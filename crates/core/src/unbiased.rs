//! The unbiased latency distribution `U` (§2.2).
//!
//! `U` approximates the latency the service would have delivered at times
//! *unrelated* to user behaviour. Direct measurements do not exist at such
//! times, so the paper's estimator draws instants uniformly at random over
//! the analysis span and, for each, takes the latency of the observed sample
//! nearest in time (breaking ties uniformly at random). Because instants are
//! drawn uniformly in *time* — not in proportion to action volume — slow
//! periods contribute according to their duration, undoing the activity
//! bias.
//!
//! Every estimator here looks samples up through one [`SampleCells`] table,
//! built once per analysis from the sanitized view: the equal-time runs of
//! the log, a bucket index over their timestamps, and each row's latency
//! bin. A draw costs one bucket probe and one table read instead of binary
//! searches through the view's selection vector.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use autosens_exec::ExecReport;
use autosens_stats::binning::Binner;
use autosens_stats::histogram::Histogram;
use autosens_telemetry::log::LogView;

use crate::error::AutoSensError;

/// Bin index of a row whose latency the binner discards.
const NO_BIN: u32 = u32::MAX;

/// Average runs per bucket of the [`SampleCells`] index (at least; the
/// power-of-two bucket width makes it up to twice this). A lookup
/// searches one bucket's runs, which share a cache line or two; fewer
/// buckets keep the index small next to the per-run arrays.
const RUNS_PER_BUCKET: u64 = 4;

/// The nearest-sample cells of a sorted, non-empty view.
///
/// Rows sharing one timestamp form a *run*; every instant belongs to the
/// cell of the run (or, at an exact midpoint, the two runs) nearest to it.
/// [`SampleCells::nearest`] answers exactly what
/// [`LogView::nearest_in_time`] answers, in O(1) expected time: a bucket
/// index over the span narrows the search to the few runs whose
/// timestamps share the query's bucket. Rows are addressed by view index,
/// and each row's latency bin is precomputed, so a draw never touches the
/// view again.
#[derive(Debug, Clone)]
pub struct SampleCells {
    binner: Binner,
    /// Distinct timestamps, ascending: one per run.
    times: Vec<i64>,
    /// Run `k` covers view rows `run_start[k]..run_start[k + 1]`; the last
    /// entry is the row count.
    run_start: Vec<u32>,
    /// `bucket_first[b]` is the first run at or after
    /// `times[0] + (b << shift)`; the last entry is the run count.
    bucket_first: Vec<u32>,
    /// Bucket width as a power of two, chosen so there is at most one
    /// bucket per [`RUNS_PER_BUCKET`] runs.
    shift: u32,
    /// Latency bin of each view row, [`NO_BIN`] where it is discarded.
    bins: Vec<u32>,
}

impl SampleCells {
    /// Build the table for `log` under `binner`. Errors on an empty or
    /// unsorted view.
    pub fn new(log: &LogView<'_>, binner: &Binner) -> Result<Self, AutoSensError> {
        log.require_sorted()?;
        let n = log.len();
        if n == 0 {
            return Err(AutoSensError::EmptySlice("unbiased estimation".into()));
        }
        if u32::try_from(n).is_err() || binner.n_bins() >= NO_BIN as usize {
            return Err(AutoSensError::Internal(format!(
                "sample table limited to u32 indices ({n} rows, {} bins)",
                binner.n_bins()
            )));
        }
        // Count the runs first so every array is allocated at its final size.
        let n_runs = 1
            + (1..n)
                .filter(|&i| log.time_at(i) != log.time_at(i - 1))
                .count();
        let mut times = Vec::with_capacity(n_runs);
        let mut run_start = Vec::with_capacity(n_runs + 1);
        let mut bins = Vec::with_capacity(n);
        for i in 0..n {
            let t = log.time_at(i);
            if times.last() != Some(&t) {
                times.push(t);
                run_start.push(i as u32);
            }
            bins.push(
                binner
                    .index_of(log.latency_at(i))
                    .map_or(NO_BIN, |b| b as u32),
            );
        }
        run_start.push(n as u32);

        let origin = times[0];
        let span = times[n_runs - 1].wrapping_sub(origin) as u64;
        let max_buckets = (n_runs as u64 / RUNS_PER_BUCKET).max(1);
        let mut shift = 0u32;
        while shift < 63 && span >> shift >= max_buckets {
            shift += 1;
        }
        let n_buckets = (span >> shift) as usize + 1;
        let mut bucket_first = Vec::with_capacity(n_buckets + 1);
        let mut k = 0usize;
        for b in 0..n_buckets as u64 {
            // Every bucket edge is at most `span`, so `k` stays in range.
            while (times[k].wrapping_sub(origin) as u64) < b << shift {
                k += 1;
            }
            bucket_first.push(k as u32);
        }
        bucket_first.push(n_runs as u32);
        Ok(SampleCells {
            binner: binner.clone(),
            times,
            run_start,
            bucket_first,
            shift,
            bins,
        })
    }

    /// View-row range `[lo, hi)` of the run(s) nearest in time to `t`:
    /// the same answer as [`LogView::nearest_in_time`] on the view the
    /// table was built from. An exact midpoint between two runs returns
    /// both; an instant outside the span returns the first or last run.
    #[inline]
    pub fn nearest(&self, t: i64) -> (usize, usize) {
        let times = &self.times;
        let last = times.len() - 1;
        if t <= times[0] {
            return self.run(0);
        }
        if t >= times[last] {
            return self.run(last);
        }
        // times[0] < t < times[last]: the first run at or after t lies in
        // t's bucket or is the first run of the next one, so 0 < k <= last.
        let b = (t.wrapping_sub(times[0]) as u64 >> self.shift) as usize;
        let (lo, hi) = (
            self.bucket_first[b] as usize,
            self.bucket_first[b + 1] as usize,
        );
        let k = lo + times[lo..hi].partition_point(|&x| x < t);
        if times[k] == t {
            return self.run(k);
        }
        match (t - times[k - 1]).cmp(&(times[k] - t)) {
            std::cmp::Ordering::Less => self.run(k - 1),
            std::cmp::Ordering::Greater => self.run(k),
            std::cmp::Ordering::Equal => (
                self.run_start[k - 1] as usize,
                self.run_start[k + 1] as usize,
            ),
        }
    }

    /// Latency bin of view row `row`, `None` where the binner discards it.
    #[inline]
    fn bin(&self, row: usize) -> Option<usize> {
        let b = self.bins[row];
        (b != NO_BIN).then_some(b as usize)
    }

    #[inline]
    fn run(&self, k: usize) -> (usize, usize) {
        (self.run_start[k] as usize, self.run_start[k + 1] as usize)
    }

    /// The row a draw lands on: the nearest run(s) to `t`, with ties among
    /// them broken by `tie` (`lo + tie % (hi - lo)`).
    #[inline]
    fn pick_row(&self, t: i64, tie: u64) -> usize {
        let (lo, hi) = self.nearest(t);
        if hi - lo == 1 {
            lo
        } else {
            lo + (tie as usize) % (hi - lo)
        }
    }
}

/// Integer bin counts of unit-weight draws. Each count is exact as an f64
/// (below 2^53), so the histogram it becomes does not depend on the order
/// the draws were counted in.
struct UnitCounts {
    counts: Vec<u64>,
    n_discarded: u64,
}

impl UnitCounts {
    fn new(binner: &Binner) -> Self {
        UnitCounts {
            counts: vec![0; binner.n_bins()],
            n_discarded: 0,
        }
    }

    #[inline]
    fn add(&mut self, bin: Option<usize>) {
        match bin {
            Some(b) => self.counts[b] += 1,
            None => self.n_discarded += 1,
        }
    }

    fn into_histogram(self, binner: &Binner) -> Result<Histogram, AutoSensError> {
        let n_recorded: u64 = self.counts.iter().sum();
        let counts = self.counts.iter().map(|&c| c as f64).collect();
        Histogram::from_parts(
            binner.clone(),
            counts,
            n_recorded as f64,
            n_recorded,
            self.n_discarded,
        )
        .map_err(AutoSensError::from)
    }
}

/// Cumulative window lengths and their total: `cum[i]` is the total
/// length of `windows[..i]` (each `[lo, hi]` inclusive; inverted windows
/// count 0). Errors unless the total is positive.
fn window_prefix_sums(windows: &[(i64, i64)]) -> Result<(Vec<i64>, i64), AutoSensError> {
    let mut cum: Vec<i64> = Vec::with_capacity(windows.len() + 1);
    let mut total = 0i64;
    cum.push(total);
    for &(lo, hi) in windows {
        total += if hi < lo { 0 } else { hi - lo + 1 };
        cum.push(total);
    }
    if total <= 0 {
        return Err(AutoSensError::BadConfig(
            "unbiased windows have zero total length".into(),
        ));
    }
    Ok((cum, total))
}

/// The instant of draw `pick` in `[0, total)`: window `w` owns picks
/// `cum[w]..cum[w + 1]`, so zero-length windows own none.
#[inline]
fn window_instant(windows: &[(i64, i64)], cum: &[i64], pick: i64) -> i64 {
    let w = cum.partition_point(|&c| c <= pick) - 1;
    windows[w].0 + (pick - cum[w])
}

fn check_draws(n_draws: usize) -> Result<(), AutoSensError> {
    if n_draws == 0 {
        return Err(AutoSensError::BadConfig(
            "unbiased draws must be > 0".into(),
        ));
    }
    Ok(())
}

/// The whole span of a non-empty view as one inclusive window.
fn span_window(log: &LogView<'_>) -> Result<(i64, i64), AutoSensError> {
    match (log.start_time(), log.end_time()) {
        (Some(s), Some(e)) => Ok((s.millis(), e.millis())),
        _ => Err(AutoSensError::EmptySlice("unbiased estimation".into())),
    }
}

/// Estimate `U` over the whole span of a (sorted, non-empty) log.
///
/// Draws `n_draws` uniformly random instants in `[start, end]` and
/// histograms the latency of the nearest sample to each.
pub fn unbiased_histogram<R: Rng>(
    log: &LogView<'_>,
    binner: &Binner,
    n_draws: usize,
    rng: &mut R,
) -> Result<Histogram, AutoSensError> {
    let windows = [span_window(log)?];
    unbiased_histogram_in_windows(log, binner, &windows, n_draws, rng)
}

/// Estimate `U` restricted to a set of time windows (each `[lo, hi]`,
/// inclusive), drawing instants uniformly over the union of the windows.
///
/// This is the slot-conditional variant used by the α machinery: the
/// windows are, e.g., every occurrence of the 14:00–15:00 hour across the
/// analysis span. Nearest-sample lookups still search the whole log — the
/// nearest observation to an instant inside a window may lie just outside
/// it, which is exactly the paper's estimator behaviour.
pub fn unbiased_histogram_in_windows<R: Rng>(
    log: &LogView<'_>,
    binner: &Binner,
    windows: &[(i64, i64)],
    n_draws: usize,
    rng: &mut R,
) -> Result<Histogram, AutoSensError> {
    if log.is_empty() {
        return Err(AutoSensError::EmptySlice("unbiased estimation".into()));
    }
    check_draws(n_draws)?;
    let (cum, total_len) = window_prefix_sums(windows)?;
    let cells = SampleCells::new(log, binner)?;
    let mut counts = UnitCounts::new(binner);
    for _ in 0..n_draws {
        // Pick a window proportionally to its length, then an instant in it.
        let t = window_instant(windows, &cum, rng.gen_range(0..total_len));
        let (lo, hi) = cells.nearest(t);
        let idx = if hi - lo == 1 {
            lo
        } else {
            rng.gen_range(lo..hi)
        };
        counts.add(cells.bin(idx));
    }
    counts.into_histogram(binner)
}

/// Chunked [`unbiased_histogram`]: the draws run as a data-parallel job.
/// See [`unbiased_histogram_in_windows_par`] for the determinism contract.
pub fn unbiased_histogram_par<R: Rng>(
    log: &LogView<'_>,
    binner: &Binner,
    n_draws: usize,
    threads: usize,
    rng: &mut R,
) -> Result<(Histogram, ExecReport), AutoSensError> {
    let windows = [span_window(log)?];
    check_draws(n_draws)?;
    let cells = SampleCells::new(log, binner)?;
    unbiased_histogram_in_windows_par(&cells, &windows, n_draws, threads, rng)
}

/// Chunked [`unbiased_histogram_in_windows`] over a prebuilt
/// [`SampleCells`] table, so callers drawing for many window sets (the α
/// groups) build it once. The draw budget is cut into fixed-size chunks;
/// each chunk draws from its own RNG stream (seeded from one `u64` taken
/// off the caller's `rng`, mixed with the chunk index) and counts its
/// draws into integer bins. Chunk histograms merge in chunk order, and
/// their counts are exact integers, so the result is bit-identical for
/// every thread count.
pub fn unbiased_histogram_in_windows_par<R: Rng>(
    cells: &SampleCells,
    windows: &[(i64, i64)],
    n_draws: usize,
    threads: usize,
    rng: &mut R,
) -> Result<(Histogram, ExecReport), AutoSensError> {
    check_draws(n_draws)?;
    let (cum, total_len) = window_prefix_sums(windows)?;
    let binner = &cells.binner;
    // One sequential draw establishes the job's seed; every chunk then
    // derives its own stream, keeping the caller's RNG consumption (and
    // the draws themselves) independent of the worker count.
    let base_seed = rng.gen::<u64>();
    let (parts, report) = autosens_exec::run_chunks(
        "unbiased_draws",
        n_draws,
        autosens_exec::chunk_size_for(n_draws),
        threads,
        |chunk, range| -> Result<Histogram, AutoSensError> {
            let mut rng = StdRng::seed_from_u64(autosens_exec::chunk_seed(base_seed, chunk as u64));
            let mut counts = UnitCounts::new(binner);
            for _ in range {
                let pick = rng.gen_range(0..total_len);
                let tie = rng.gen::<u64>();
                let row = cells.pick_row(window_instant(windows, &cum, pick), tie);
                counts.add(cells.bin(row));
            }
            counts.into_histogram(binner)
        },
    )?;
    let mut pooled = Histogram::new(binner.clone());
    for part in parts {
        pooled.merge(&part?).map_err(AutoSensError::from)?;
    }
    Ok((pooled, report))
}

/// The exponential-decay weight of an event-time instant `t_ms` relative to
/// a frontier (the freshest instant in the window): `0.5^(age / half_life)`
/// where `age = frontier_ms - t_ms`. Instants at the frontier weigh 1, one
/// half-life back weigh 0.5, and instants past the frontier are clamped to
/// weight 1 rather than amplified.
pub fn decay_weight(t_ms: i64, frontier_ms: i64, half_life_ms: i64) -> f64 {
    debug_assert!(half_life_ms > 0);
    let age = (frontier_ms - t_ms).max(0) as f64;
    0.5f64.powf(age / half_life_ms as f64)
}

/// Exponentially-decayed variant of [`unbiased_histogram_par`]: instants are
/// drawn uniformly over the whole span exactly as in the undecayed
/// estimator, but each draw deposits weight
/// `0.5^((frontier_ms - t) / half_life_ms)` instead of 1 — so the windowed
/// unbiased curve `U_w` tracks the *recent* latency environment while old
/// regimes fade geometrically. Drawing uniformly and decaying the weight
/// (rather than drawing from the decayed density) keeps the nearest-sample
/// lookup and the chunk/seed schedule identical to the lifetime estimator,
/// and the result bit-identical for every thread count. The weights are
/// not integers, so f64 sums depend on accumulation order: each chunk
/// processes its draws sorted by `(pick, tie)`, a total order fixed by the
/// chunk seed.
#[allow(clippy::too_many_arguments)]
pub fn unbiased_histogram_decayed_par<R: Rng>(
    log: &LogView<'_>,
    binner: &Binner,
    half_life_ms: i64,
    frontier_ms: i64,
    n_draws: usize,
    threads: usize,
    rng: &mut R,
) -> Result<(Histogram, ExecReport), AutoSensError> {
    if log.is_empty() {
        return Err(AutoSensError::EmptySlice("unbiased estimation".into()));
    }
    check_draws(n_draws)?;
    if half_life_ms <= 0 {
        return Err(AutoSensError::BadConfig(
            "decay half-life must be > 0 ms".into(),
        ));
    }
    let (start, end) = span_window(log)?;
    let total_len = end - start + 1;
    let cells = SampleCells::new(log, binner)?;
    let base_seed = rng.gen::<u64>();
    let (parts, report) = autosens_exec::run_chunks(
        "unbiased_decayed_draws",
        n_draws,
        autosens_exec::chunk_size_for(n_draws),
        threads,
        |chunk, range| -> Result<Histogram, AutoSensError> {
            let mut rng = StdRng::seed_from_u64(autosens_exec::chunk_seed(base_seed, chunk as u64));
            let mut draws: Vec<(i64, u64)> = range
                .map(|_| (rng.gen_range(0..total_len), rng.gen::<u64>()))
                .collect();
            draws.sort_unstable();
            // The accumulation `Histogram::record_weighted` performs, on
            // the precomputed bins.
            let mut counts = vec![0.0f64; binner.n_bins()];
            let (mut total, mut n_recorded, mut n_discarded) = (0.0f64, 0u64, 0u64);
            for (pick, tie) in draws {
                let t = start + pick;
                let weight = decay_weight(t, frontier_ms, half_life_ms);
                match cells.bin(cells.pick_row(t, tie)) {
                    Some(b) if weight.is_finite() && weight >= 0.0 => {
                        counts[b] += weight;
                        total += weight;
                        n_recorded += 1;
                    }
                    _ => n_discarded += 1,
                }
            }
            Histogram::from_parts(binner.clone(), counts, total, n_recorded, n_discarded)
                .map_err(AutoSensError::from)
        },
    )?;
    let mut pooled = Histogram::new(binner.clone());
    for part in parts {
        pooled.merge(&part?).map_err(AutoSensError::from)?;
    }
    Ok((pooled, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosens_stats::binning::OutOfRange;
    use autosens_telemetry::log::TelemetryLog;
    use autosens_telemetry::record::{ActionRecord, ActionType, Outcome, UserClass, UserId};
    use autosens_telemetry::time::SimTime;

    fn rec(t: i64, latency: f64) -> ActionRecord {
        ActionRecord {
            time: SimTime(t),
            action: ActionType::SelectMail,
            latency_ms: latency,
            user: UserId(0),
            class: UserClass::Business,
            tz_offset_ms: 0,
            outcome: Outcome::Success,
        }
    }

    fn binner() -> Binner {
        Binner::new(0.0, 1000.0, 10.0, OutOfRange::Discard).unwrap()
    }

    #[test]
    fn time_weighted_not_count_weighted() {
        // 10 actions at latency 100 cluster in the first second; one action
        // at latency 500 sits alone at t = 100 s. By count, latency 100
        // dominates 10:1 (~91%). The nearest-sample estimator instead
        // weights each sample by the time it is nearest to: the cluster
        // owns [0, ~50.45 s] and the lone sample owns the other half, so
        // the unbiased split is ~50/50 — time-weighted, not count-weighted.
        let mut records: Vec<ActionRecord> = (0..10).map(|i| rec(i * 100, 100.0)).collect();
        records.push(rec(100_000, 500.0));
        let log = TelemetryLog::from_records(records).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let h = unbiased_histogram(&log.view(), &binner(), 20_000, &mut rng).unwrap();
        let frac_fast = h.count(10) / h.total();
        let frac_slow = h.count(50) / h.total();
        assert!(
            (frac_fast - 0.5045).abs() < 0.02,
            "fast {frac_fast} (count share would be 0.91)"
        );
        assert!((frac_slow - 0.4955).abs() < 0.02, "slow {frac_slow}");
    }

    #[test]
    fn uniform_coverage_of_homogeneous_log() {
        // Regularly spaced samples alternating between two latencies get
        // roughly equal unbiased mass.
        let records: Vec<ActionRecord> = (0..1000)
            .map(|i| rec(i * 1000, if i % 2 == 0 { 105.0 } else { 505.0 }))
            .collect();
        let log = TelemetryLog::from_records(records).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let h = unbiased_histogram(&log.view(), &binner(), 30_000, &mut rng).unwrap();
        let a = h.count(10) / h.total();
        let b = h.count(50) / h.total();
        assert!((a - 0.5).abs() < 0.02, "a = {a}");
        assert!((b - 0.5).abs() < 0.02, "b = {b}");
    }

    #[test]
    fn tie_breaking_samples_all_duplicates() {
        // Three simultaneous records; nearest lookup always returns all
        // three, so random tie-breaking must spread mass across them.
        let log =
            TelemetryLog::from_records(vec![rec(500, 105.0), rec(500, 405.0), rec(500, 705.0)])
                .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let h = unbiased_histogram(&log.view(), &binner(), 9_000, &mut rng).unwrap();
        for bin in [10, 40, 70] {
            let frac = h.count(bin) / h.total();
            assert!((frac - 1.0 / 3.0).abs() < 0.03, "bin {bin}: {frac}");
        }
    }

    #[test]
    fn windows_restrict_the_draws() {
        // Latency 100 in the first 10 s, latency 500 in the next 10 s.
        let mut records: Vec<ActionRecord> = (0..100).map(|i| rec(i * 100, 100.0)).collect();
        records.extend((0..100).map(|i| rec(10_000 + i * 100, 500.0)));
        let log = TelemetryLog::from_records(records).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        // Draw only from the second window.
        let h = unbiased_histogram_in_windows(
            &log.view(),
            &binner(),
            &[(10_000, 19_900)],
            5_000,
            &mut rng,
        )
        .unwrap();
        assert!(h.count(50) / h.total() > 0.97);
        // Draw from both windows: roughly 50/50.
        let h = unbiased_histogram_in_windows(
            &log.view(),
            &binner(),
            &[(0, 9_900), (10_000, 19_900)],
            20_000,
            &mut rng,
        )
        .unwrap();
        let frac = h.count(10) / h.total();
        assert!((frac - 0.5).abs() < 0.05, "frac = {frac}");
    }

    #[test]
    fn error_cases() {
        let mut rng = StdRng::seed_from_u64(5);
        let empty = TelemetryLog::new();
        assert!(unbiased_histogram(&empty.view(), &binner(), 100, &mut rng).is_err());
        let log = TelemetryLog::from_records(vec![rec(0, 100.0)]).unwrap();
        assert!(unbiased_histogram(&log.view(), &binner(), 0, &mut rng).is_err());
        assert!(
            unbiased_histogram_in_windows(&log.view(), &binner(), &[(10, 5)], 10, &mut rng)
                .is_err()
        );
        assert!(unbiased_histogram_in_windows(&log.view(), &binner(), &[], 10, &mut rng).is_err());
    }

    #[test]
    fn par_draws_are_bit_identical_across_thread_counts() {
        let records: Vec<ActionRecord> = (0..500)
            .map(|i| rec(i * 997, 50.0 + (i % 90) as f64 * 10.0))
            .collect();
        let log = TelemetryLog::from_records(records).unwrap();
        let windows = [(0, 150_000), (200_000, 400_000)];
        let cells = SampleCells::new(&log.view(), &binner()).unwrap();
        let reference = {
            let mut rng = StdRng::seed_from_u64(7);
            unbiased_histogram_in_windows_par(&cells, &windows, 30_000, 1, &mut rng)
                .unwrap()
                .0
        };
        for threads in [2, 4, 8] {
            let mut rng = StdRng::seed_from_u64(7);
            let (h, report) =
                unbiased_histogram_in_windows_par(&cells, &windows, 30_000, threads, &mut rng)
                    .unwrap();
            let same = h
                .counts()
                .iter()
                .zip(reference.counts())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "threads={threads} diverged");
            assert_eq!(report.n_items, 30_000);
        }
        // The whole-span wrapper agrees with the serial estimator's
        // statistics (not bitwise — different RNG schedule — but close).
        let mut rng = StdRng::seed_from_u64(8);
        let (h, _) = unbiased_histogram_par(&log.view(), &binner(), 20_000, 2, &mut rng).unwrap();
        assert_eq!(h.total(), 20_000.0);
    }

    #[test]
    fn decay_weight_halves_per_half_life() {
        assert_eq!(decay_weight(1_000, 1_000, 500), 1.0);
        assert!((decay_weight(500, 1_000, 500) - 0.5).abs() < 1e-12);
        assert!((decay_weight(0, 1_000, 500) - 0.25).abs() < 1e-12);
        // Instants past the frontier clamp to 1, never amplify.
        assert_eq!(decay_weight(2_000, 1_000, 500), 1.0);
    }

    #[test]
    fn decayed_draws_weight_recent_regime_up() {
        // First half of the span is slow (500 ms), second half fast
        // (100 ms). Undecayed, the unbiased split is ~50/50; with a
        // half-life of a tenth of the span, the fast (recent) regime must
        // dominate the decayed mass.
        let mut records: Vec<ActionRecord> = (0..500).map(|i| rec(i * 100, 500.0)).collect();
        records.extend((0..500).map(|i| rec(50_000 + i * 100, 100.0)));
        let log = TelemetryLog::from_records(records).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let (h, _) = unbiased_histogram_decayed_par(
            &log.view(),
            &binner(),
            10_000,
            99_900,
            40_000,
            2,
            &mut rng,
        )
        .unwrap();
        let frac_fast = h.count(10) / h.total();
        assert!(frac_fast > 0.8, "fast share {frac_fast}");
        // Old mass fades but never to exactly zero.
        assert!(h.count(50) > 0.0);
    }

    #[test]
    fn decayed_draws_are_bit_identical_across_thread_counts() {
        let records: Vec<ActionRecord> = (0..500)
            .map(|i| rec(i * 997, 50.0 + (i % 90) as f64 * 10.0))
            .collect();
        let log = TelemetryLog::from_records(records).unwrap();
        let frontier = 499 * 997;
        let reference = {
            let mut rng = StdRng::seed_from_u64(9);
            unbiased_histogram_decayed_par(
                &log.view(),
                &binner(),
                60_000,
                frontier,
                30_000,
                1,
                &mut rng,
            )
            .unwrap()
            .0
        };
        for threads in [2, 4, 8] {
            let mut rng = StdRng::seed_from_u64(9);
            let (h, report) = unbiased_histogram_decayed_par(
                &log.view(),
                &binner(),
                60_000,
                frontier,
                30_000,
                threads,
                &mut rng,
            )
            .unwrap();
            let same = h
                .counts()
                .iter()
                .zip(reference.counts())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "threads={threads} diverged");
            assert_eq!(report.n_items, 30_000);
        }
    }

    #[test]
    fn decayed_rejects_bad_half_life() {
        let log = TelemetryLog::from_records(vec![rec(0, 100.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        assert!(
            unbiased_histogram_decayed_par(&log.view(), &binner(), 0, 0, 10, 1, &mut rng).is_err()
        );
        assert!(
            unbiased_histogram_decayed_par(&log.view(), &binner(), -5, 0, 10, 1, &mut rng).is_err()
        );
    }

    #[test]
    fn single_record_log_is_degenerate_but_works() {
        let log = TelemetryLog::from_records(vec![rec(1000, 250.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let h = unbiased_histogram(&log.view(), &binner(), 100, &mut rng).unwrap();
        assert_eq!(h.count(25), 100.0);
    }

    /// The pre-table unit-weight kernel, kept as the oracle for
    /// [`unbiased_histogram_in_windows_par`]: each chunk sorts its
    /// `(pick, tie)` draws and looks every instant up with
    /// [`LogView::nearest_in_time`].
    fn reference_in_windows_par(
        log: &LogView<'_>,
        binner: &Binner,
        windows: &[(i64, i64)],
        n_draws: usize,
        threads: usize,
        rng: &mut StdRng,
    ) -> Histogram {
        let (cum, total_len) = window_prefix_sums(windows).unwrap();
        let base_seed = rng.gen::<u64>();
        let (parts, _) = autosens_exec::run_chunks(
            "reference_draws",
            n_draws,
            autosens_exec::chunk_size_for(n_draws),
            threads,
            |chunk, range| {
                let mut rng =
                    StdRng::seed_from_u64(autosens_exec::chunk_seed(base_seed, chunk as u64));
                let mut draws: Vec<(i64, u64)> = range
                    .map(|_| (rng.gen_range(0..total_len), rng.gen::<u64>()))
                    .collect();
                draws.sort_unstable();
                let mut h = Histogram::new(binner.clone());
                let mut w = 0usize;
                for (pick, tie) in draws {
                    while cum[w + 1] <= pick {
                        w += 1;
                    }
                    let t = windows[w].0 + (pick - cum[w]);
                    let (lo, hi) = log.nearest_in_time(SimTime(t)).unwrap();
                    let idx = if hi - lo == 1 {
                        lo
                    } else {
                        lo + (tie as usize) % (hi - lo)
                    };
                    h.record(log.latency_at(idx));
                }
                h
            },
        )
        .unwrap();
        let mut pooled = Histogram::new(binner.clone());
        for part in parts {
            pooled.merge(&part).unwrap();
        }
        pooled
    }

    /// The pre-table decayed kernel, kept as the oracle for
    /// [`unbiased_histogram_decayed_par`].
    fn reference_decayed_par(
        log: &LogView<'_>,
        binner: &Binner,
        half_life_ms: i64,
        frontier_ms: i64,
        n_draws: usize,
        threads: usize,
        rng: &mut StdRng,
    ) -> Histogram {
        let (start, end) = span_window(log).unwrap();
        let total_len = end - start + 1;
        let base_seed = rng.gen::<u64>();
        let (parts, _) = autosens_exec::run_chunks(
            "reference_decayed_draws",
            n_draws,
            autosens_exec::chunk_size_for(n_draws),
            threads,
            |chunk, range| {
                let mut rng =
                    StdRng::seed_from_u64(autosens_exec::chunk_seed(base_seed, chunk as u64));
                let mut draws: Vec<(i64, u64)> = range
                    .map(|_| (rng.gen_range(0..total_len), rng.gen::<u64>()))
                    .collect();
                draws.sort_unstable();
                let mut h = Histogram::new(binner.clone());
                for (pick, tie) in draws {
                    let t = start + pick;
                    let (lo, hi) = log.nearest_in_time(SimTime(t)).unwrap();
                    let idx = if hi - lo == 1 {
                        lo
                    } else {
                        lo + (tie as usize) % (hi - lo)
                    };
                    h.record_weighted(
                        log.latency_at(idx),
                        decay_weight(t, frontier_ms, half_life_ms),
                    );
                }
                h
            },
        )
        .unwrap();
        let mut pooled = Histogram::new(binner.clone());
        for part in parts {
            pooled.merge(&part).unwrap();
        }
        pooled
    }

    fn assert_bit_identical(a: &Histogram, b: &Histogram, what: &str) {
        let same_counts = a
            .counts()
            .iter()
            .zip(b.counts())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same_counts, "{what}: counts diverged");
        assert_eq!(a.total().to_bits(), b.total().to_bits(), "{what}: total");
        assert_eq!(a.n_recorded(), b.n_recorded(), "{what}: n_recorded");
        assert_eq!(a.n_discarded(), b.n_discarded(), "{what}: n_discarded");
    }

    /// A log from `(time, latency)` pairs, viewed whole or through the
    /// selection of storage rows where `keep` is set (cycled).
    fn log_of(rows: &[(i64, f64)]) -> TelemetryLog {
        TelemetryLog::from_records(rows.iter().map(|&(t, l)| rec(t, l)).collect()).unwrap()
    }

    fn select<'a>(log: &'a TelemetryLog, keep: &[bool]) -> LogView<'a> {
        let sel: Vec<u32> = (0..log.len() as u32)
            .filter(|&i| keep[i as usize % keep.len()])
            .collect();
        log.view().with_selection(sel)
    }

    /// Hour-slot style windows over `[start, end]`: every `stride`-th slot
    /// of length `slot`, clipped to the span, plus zero-length (inverted)
    /// windows at the front, the middle and the back.
    fn slot_windows(start: i64, end: i64, slot: i64, stride: usize) -> Vec<(i64, i64)> {
        let n_slots = (end - start) / slot + 1;
        let mut windows: Vec<(i64, i64)> = (0..n_slots)
            .step_by(stride)
            .map(|i| start + i * slot)
            .map(|lo| (lo, (lo + slot - 1).min(end)))
            .collect();
        windows.insert(0, (start + 1, start));
        windows.insert(windows.len() / 2, (start + 5, start));
        windows.push((end, end - 1));
        windows
    }

    #[test]
    fn sample_cells_bucket_boundaries() {
        // Runs at 0, 10 (x3), 11, 40 and 1000, then runs spaced ever
        // wider: buckets hold several runs, one, or none, and adjacent
        // runs straddle bucket edges.
        let mut rows = vec![
            (0, 1.0),
            (10, 2.0),
            (10, 3.0),
            (10, 4.0),
            (11, 5.0),
            (40, 6.0),
            (1000, 7.0),
        ];
        rows.extend((1..40).map(|i| (1000 + i * i, 8.0)));
        let log = log_of(&rows);
        let view = log.view();
        let cells = SampleCells::new(&view, &binner()).unwrap();
        assert!(cells.bucket_first.len() > 2, "more than one bucket");
        for t in -5..2600 {
            assert_eq!(
                cells.nearest(t),
                view.nearest_in_time(SimTime(t)).unwrap(),
                "t = {t}"
            );
        }
        assert_eq!(cells.nearest(5), (0, 4), "midpoint returns both runs");
        assert_eq!(cells.nearest(10), (1, 4));
        assert!(SampleCells::new(&TelemetryLog::new().view(), &binner()).is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn sample_cells_nearest_matches_nearest_in_time(
            raw in proptest::collection::vec((0i64..60, 0.0f64..2000.0), 1..120),
            scale in proptest::prop_oneof![
                proptest::prelude::Just(1i64),
                proptest::prelude::Just(7),
                proptest::prelude::Just(1_000),
                proptest::prelude::Just(3_600_000)
            ],
            keep in proptest::collection::vec(proptest::bool::ANY, 1..5),
            queries in proptest::collection::vec(-100i64..100, 0..50),
        ) {
            // Few distinct times make many ties; the scale spreads them
            // from adjacent milliseconds to hours apart.
            let rows: Vec<(i64, f64)> = raw.iter().map(|&(t, l)| (t * scale, l)).collect();
            let log = log_of(&rows);
            let views = [log.view(), select(&log, &keep)];
            for view in views.iter().filter(|v| !v.is_empty()) {
                let cells = SampleCells::new(view, &binner()).unwrap();
                let first = view.time_at(0);
                let last = view.time_at(view.len() - 1);
                // Every sample time, both neighbours of it, every integer
                // midpoint between consecutive distinct times, and random
                // instants before, inside and after the span.
                let mut probes: Vec<i64> = Vec::new();
                for i in 0..view.len() {
                    let t = view.time_at(i);
                    probes.extend([t - 1, t, t + 1]);
                    if i > 0 {
                        let s = view.time_at(i - 1) + t;
                        probes.extend([s.div_euclid(2), (s + 1).div_euclid(2)]);
                    }
                }
                let span = (last - first).max(1);
                probes.extend(queries.iter().map(|&q| first + q * span / 50));
                for t in probes {
                    proptest::prop_assert_eq!(
                        cells.nearest(t),
                        view.nearest_in_time(SimTime(t)).unwrap(),
                        "t = {}", t
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        #[test]
        fn kernels_are_bit_identical_to_the_reference(
            raw in proptest::collection::vec((0i64..400, 0.0f64..1400.0), 1..200),
            scale in proptest::prop_oneof![
                proptest::prelude::Just(1i64),
                proptest::prelude::Just(250),
                proptest::prelude::Just(90_000)
            ],
            keep in proptest::collection::vec(proptest::bool::ANY, 1..4),
            slot in 1i64..40,
            stride in 1usize..4,
            seed in 0u64..1_000,
        ) {
            // Latencies up to 1400 ms against a 0–1000 ms binner: some
            // draws land on discarded rows.
            let rows: Vec<(i64, f64)> = raw.iter().map(|&(t, l)| (t * scale, l)).collect();
            let log = log_of(&rows);
            let binner = binner();
            let views = [log.view(), select(&log, &keep)];
            for view in views.iter().filter(|v| !v.is_empty()) {
                let cells = SampleCells::new(view, &binner).unwrap();
                let (start, end) = span_window(view).unwrap();
                let windows = slot_windows(start, end, slot * scale, stride);
                let draws = 9_000;
                for threads in [1, 2, 4, 8] {
                    let what = format!("threads={threads} rows={}", view.len());
                    let mut a = StdRng::seed_from_u64(seed);
                    let mut b = StdRng::seed_from_u64(seed);
                    let (h, _) =
                        unbiased_histogram_in_windows_par(&cells, &windows, draws, threads, &mut a)
                            .unwrap();
                    let r = reference_in_windows_par(view, &binner, &windows, draws, threads, &mut b);
                    assert_bit_identical(&h, &r, &what);
                    // Both leave the caller's RNG in the same state.
                    proptest::prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());

                    let half_life = (end - start) / 3 + 1;
                    let mut a = StdRng::seed_from_u64(seed);
                    let mut b = StdRng::seed_from_u64(seed);
                    let (h, _) = unbiased_histogram_decayed_par(
                        view, &binner, half_life, end, draws, threads, &mut a,
                    )
                    .unwrap();
                    let r = reference_decayed_par(view, &binner, half_life, end, draws, threads, &mut b);
                    assert_bit_identical(&h, &r, &format!("decayed {what}"));
                }
            }
        }
    }
}
