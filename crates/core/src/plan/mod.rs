//! The analysis plan layer: the estimator's stage chain behind one type
//! with one entry point.
//!
//! The paper's pipeline is a fixed sequence — sanitize → lossmodel →
//! α → biased/unbiased PDFs → smoothing → normalization, with optional
//! CI-bootstrap and windowed-curve stages ([`op::STAGES`] names them in
//! order). [`AnalysisPlan`] is the analysis engine and
//! [`AnalysisPlan::run`] its single entry point: what varies between
//! calls is *which input shape* ([`PlanInput`]) and *which optional
//! stages* ([`RunOptions`]). Every shape is sanitized into one sorted,
//! deduplicated view plus its bookkeeping, and one downstream function
//! runs the rest of the chain over it. The per-slice drivers behind the
//! paper's evaluation sections (`by_action_type`, `full_report`, …) live
//! in [`crate::pipeline`] and run through the same path.
//!
//! Incremental callers cache the pre-RNG per-shard states
//! ([`PlanPartials`]) and enter via [`PlanInput::prepared`]; the output
//! is bit-identical to a batch run over the same records at every thread
//! count — see the [`op`] module docs for why the RNG frontier is exactly
//! the cacheability frontier.
//!
//! ```
//! use autosens_core::plan::{AnalysisPlan, PlanInput, RunOptions};
//! use autosens_core::AutoSensConfig;
//! use autosens_sim::{generate, Scenario, SimConfig};
//!
//! let (log, _) = generate(&SimConfig::scenario(Scenario::Smoke)).unwrap();
//! let plan = AnalysisPlan::new(AutoSensConfig::default());
//! let out = plan.run(PlanInput::log(&log), RunOptions::default()).unwrap();
//! assert!(out.report.n_actions > 0);
//! assert!(out.ci.is_none()); // CI bootstrap runs only on request
//! ```

pub mod op;
mod partials;

pub use op::STAGES;
pub use partials::PlanPartials;

use rand::rngs::StdRng;
use rand::SeedableRng;

use autosens_exec::ExecReport;
use autosens_obs::{Recorder, Span, StageTiming};
use autosens_stats::histogram::Histogram;
use autosens_telemetry::log::{LogView, TelemetryLog};
use autosens_telemetry::loss::{estimate_cell_loss_par, LossCounts};
use autosens_telemetry::query::Slice;

use crate::alpha::{estimate_alpha, partition_by_group, Grouping};
use crate::biased::biased_histogram;
use crate::ci::PreferenceCi;
use crate::config::AutoSensConfig;
use crate::error::AutoSensError;
use crate::lossmodel::LossModel;
use crate::pipeline::{AnalysisReport, DecaySpec, Degradation, LossReport, WindowedCurve};
use crate::preference::NormalizedPreference;
use crate::unbiased::{decay_weight, unbiased_histogram_decayed_par, unbiased_histogram_par};

/// What the plan runs over. All shapes converge on the same stage chain
/// and the same RNG streams, so for the same underlying records every
/// shape produces a bit-identical [`AnalysisReport`].
#[derive(Debug)]
pub enum PlanInput<'a> {
    /// A full log: sanitize selects all successful actions.
    Log(&'a TelemetryLog),
    /// One slice of a log.
    Slice {
        /// The log to analyze.
        log: &'a TelemetryLog,
        /// The slice filter to apply during sanitize.
        slice: &'a Slice,
    },
    /// One slice of a borrowed [`LogView`] — the zero-copy ingest shape;
    /// a memory-mapped container's columns flow to the kernels without
    /// materializing a row.
    View {
        /// The borrowed columns to analyze.
        view: &'a LogView<'a>,
        /// The slice filter to apply during sanitize.
        slice: &'a Slice,
    },
    /// An externally sanitized log plus cached pre-RNG stage state —
    /// the incremental shape the streaming engine uses. `log` must equal
    /// what batch sanitize would produce for the same input: filtered to
    /// the slice's successes, stably time-sorted, exact duplicates
    /// removed keep-first.
    Prepared {
        /// The sanitized (sorted, deduplicated) log of successes.
        log: &'a TelemetryLog,
        /// The caller's sanitize bookkeeping and cached partials.
        meta: PreparedMeta,
    },
}

impl<'a> PlanInput<'a> {
    /// Analyze a full log (successful actions only, as in the paper).
    pub fn log(log: &'a TelemetryLog) -> PlanInput<'a> {
        PlanInput::Log(log)
    }

    /// Analyze one slice of a log.
    pub fn slice(log: &'a TelemetryLog, slice: &'a Slice) -> PlanInput<'a> {
        PlanInput::Slice { log, slice }
    }

    /// Analyze one slice of a borrowed view.
    pub fn view(view: &'a LogView<'a>, slice: &'a Slice) -> PlanInput<'a> {
        PlanInput::View { view, slice }
    }

    /// Analyze an externally sanitized log (see [`PlanInput::Prepared`]).
    pub fn prepared(log: &'a TelemetryLog, meta: PreparedMeta) -> PlanInput<'a> {
        PlanInput::Prepared { log, meta }
    }
}

/// Sanitize bookkeeping and cached stage state accompanying a
/// [`PlanInput::Prepared`] input. [`Default`] is a clean, cacheless
/// prepared run: no degradations, no partials, no windowed curve.
#[derive(Debug, Clone, Default)]
pub struct PreparedMeta {
    /// Degradations observed while preparing (out-of-order arrival,
    /// duplicates removed, …), in the order batch sanitize would report
    /// them: re-sort first, then duplicate removal.
    pub degradations: Vec<Degradation>,
    /// Records that entered sanitize after filtering (pre-dedup count).
    pub records_in: usize,
    /// Records dropped by deduplication.
    pub records_dropped: usize,
    /// Cached pre-RNG partials matching the log exactly; when
    /// present the lossmodel and α folds skip their rescans.
    pub partials: Option<PlanPartials>,
    /// Optional windowed-decay request: when present the report also
    /// carries an exponentially-decayed windowed curve. The lifetime
    /// curve is unaffected either way.
    pub decay: Option<DecaySpec>,
}

/// A CI-bootstrap request (see [`crate::ci`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CiSpec {
    /// Bootstrap replicate count.
    pub replicates: usize,
    /// Two-sided confidence level (e.g. `0.95`).
    pub level: f64,
}

/// Which optional stages a [`AnalysisPlan::run`] executes on top of
/// the always-run chain.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunOptions {
    /// Run the [`op::CI_BOOTSTRAP`] stage and return a confidence
    /// band in [`RunOutput::ci`].
    pub ci: Option<CiSpec>,
}

impl RunOptions {
    /// Request a bootstrap confidence band.
    pub fn with_ci(replicates: usize, level: f64) -> RunOptions {
        RunOptions {
            ci: Some(CiSpec { replicates, level }),
        }
    }
}

/// What a [`AnalysisPlan::run`] produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The completed analysis (including the CI stage's timing when one
    /// was requested).
    pub report: AnalysisReport,
    /// The bootstrap confidence band, when [`RunOptions::ci`] asked for
    /// one.
    pub ci: Option<PreferenceCi>,
}

/// The analysis engine: a configuration plus the recorder its spans and
/// metrics land in.
///
/// Construct one per configuration and call [`AnalysisPlan::run`] with
/// the input shape at hand; the per-slice drivers (`by_action_type`,
/// `full_report`, …) run many slices through the same path.
#[derive(Debug, Clone)]
pub struct AnalysisPlan {
    config: AutoSensConfig,
    recorder: Recorder,
}

/// What sanitize hands the downstream chain: the sorted, deduplicated
/// view of the slice's successes plus the bookkeeping every input shape
/// reports the same way.
struct Sanitized<'a> {
    /// The sanitized rows.
    view: LogView<'a>,
    /// Problems repaired so far, in the order batch sanitize reports them.
    degradations: Vec<Degradation>,
    /// Records that entered sanitize after filtering (pre-dedup count).
    records_in: usize,
    /// Records dropped by deduplication.
    records_dropped: usize,
    /// Rows copied to repair out-of-order input (0 on the zero-copy path).
    rows_copied: usize,
    /// Cached pre-RNG partials matching `view` exactly, if any.
    partials: Option<PlanPartials>,
    /// The windowed-decay request, if any.
    decay: Option<DecaySpec>,
}

impl AnalysisPlan {
    /// A plan with a configuration (validated at run time) and no span
    /// buffering — reports still carry stage timings.
    pub fn new(config: AutoSensConfig) -> AnalysisPlan {
        AnalysisPlan::with_recorder(config, Recorder::disabled())
    }

    /// A plan that records spans and metrics into `recorder`.
    pub fn with_recorder(config: AutoSensConfig, recorder: Recorder) -> AnalysisPlan {
        AnalysisPlan { config, recorder }
    }

    /// The plan's configuration.
    pub fn config(&self) -> &AutoSensConfig {
        &self.config
    }

    /// The plan's recorder (drain it with [`Recorder::finish`] after a run
    /// to obtain the span tree; its metrics registry holds the pipeline
    /// counters).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Feed one data-parallel job's scheduling report into the obs layer:
    /// a chunk counter plus one child span per worker (timing carried in
    /// the `wall_ms` field — the work already happened).
    fn record_exec(&self, parent: &Span, exec: &ExecReport) {
        self.recorder
            .metrics()
            .counter("autosens_exec_chunks_total")
            .add(exec.n_chunks as u64);
        for w in &exec.workers {
            let mut span = parent.child("exec_worker");
            span.field("job", exec.label.clone());
            span.field("worker", w.worker);
            span.field("chunks", w.chunks);
            span.field("steals", w.steals);
            span.field("wall_ms", w.wall_ms);
            span.finish();
        }
    }

    /// Run the plan over an input. One span per always-run stage under an
    /// `"analyze"` root, plus one per requested optional stage; stage
    /// timings in the report follow the same order.
    pub fn run(&self, input: PlanInput<'_>, opts: RunOptions) -> Result<RunOutput, AutoSensError> {
        // Validate the configuration before doing any work.
        self.config.binner()?;
        // Scoped so a repaired copy of out-of-order input is freed before
        // the CI stage runs.
        let mut report = {
            let root = self.recorder.root("analyze");
            let mut timings = Vec::new();
            let mut repaired = None;
            let sanitized = self.sanitize(input, &root, &mut timings, &mut repaired)?;
            self.analyze_sanitized(sanitized, root, timings)?
        };
        let ci = match opts.ci {
            Some(spec) => Some(self.ci(&mut report, spec.replicates, spec.level)?),
            None => None,
        };
        Ok(RunOutput { report, ci })
    }

    /// The sanitize stage: filter to the slice's successes, stable-sort,
    /// drop exact duplicates. Real telemetry arrives out of order (shard
    /// merges, clock skew) and duplicated (re-delivered upload batches);
    /// repair what is repairable and record the repair instead of failing.
    ///
    /// A selection over a sorted log is already in time order, so the
    /// stage runs over the borrowed view without copying a row. Degraded
    /// (out-of-order) input falls back to one materialized copy, held in
    /// `repaired`. A prepared input arrives sanitized: its span carries the
    /// caller's counts and its wall time reflects only bookkeeping.
    fn sanitize<'a>(
        &self,
        input: PlanInput<'a>,
        root: &Span,
        timings: &mut Vec<StageTiming>,
        repaired: &'a mut Option<TelemetryLog>,
    ) -> Result<Sanitized<'a>, AutoSensError> {
        let (view, slice) = match input {
            PlanInput::Log(log) => (log.view(), Slice::all()),
            PlanInput::Slice { log, slice } => (log.view(), slice.clone()),
            PlanInput::View { view, slice } => (view.borrowed(), slice.clone()),
            PlanInput::Prepared { log, meta } => {
                log.require_sorted()?;
                let mut span = root.child(op::SANITIZE);
                span.field("records_in", meta.records_in);
                span.field("records_dropped", meta.records_dropped);
                timings.push(StageTiming {
                    stage: op::SANITIZE.into(),
                    wall_ms: span.finish(),
                });
                return Ok(Sanitized {
                    view: log.view(),
                    degradations: meta.degradations,
                    records_in: meta.records_in,
                    records_dropped: meta.records_dropped,
                    rows_copied: 0,
                    partials: meta.partials,
                    decay: meta.decay,
                });
            }
        };
        let mut degradations = Vec::new();
        let mut span = root.child(op::SANITIZE);
        // Slicing re-sorts as a side effect, so the order check looks at
        // the input.
        if !view.is_sorted() {
            degradations.push(Degradation {
                stage: op::SANITIZE.into(),
                detail: "records arrived out of time order; re-sorted".into(),
            });
        }
        let (selected, filter_report) = slice
            .successes()
            .select_par_view(&view, self.config.threads)?;
        self.record_exec(&span, &filter_report);
        let records_in = selected.len();
        let (view, removed, copied) = if selected.is_sorted() {
            let (clean, removed, dedup_report) = selected.dedup_exact_par(self.config.threads);
            if let Some(report) = &dedup_report {
                self.record_exec(&span, report);
            }
            (clean, removed, 0)
        } else {
            let mut m = selected.materialize();
            m.ensure_sorted();
            let removed = m.dedup_exact_par(self.config.threads);
            (repaired.insert(m).view(), removed, records_in)
        };
        if removed > 0 {
            degradations.push(Degradation {
                stage: op::SANITIZE.into(),
                detail: format!("removed {removed} exact duplicate records"),
            });
        }
        span.field("records_in", records_in);
        span.field("records_dropped", removed);
        timings.push(StageTiming {
            stage: op::SANITIZE.into(),
            wall_ms: span.finish(),
        });
        Ok(Sanitized {
            view,
            degradations,
            records_in,
            records_dropped: removed,
            rows_copied: copied,
            partials: None,
            decay: None,
        })
    }

    /// Everything downstream of sanitize: the loss model, α estimation,
    /// the biased/unbiased PDFs, smoothing and normalization, the optional
    /// windowed curve, metrics, and report assembly. Every input shape
    /// runs through this one function — this is what makes streaming
    /// snapshots bit-identical to batch analyses.
    fn analyze_sanitized(
        &self,
        s: Sanitized<'_>,
        mut root: Span,
        mut timings: Vec<StageTiming>,
    ) -> Result<AnalysisReport, AutoSensError> {
        let Sanitized {
            view,
            mut degradations,
            records_in,
            records_dropped,
            rows_copied,
            partials,
            decay,
        } = s;
        let sub = &view;
        let binner = self.config.binner()?;
        if sub.is_empty() {
            return Err(AutoSensError::EmptySlice(
                "slice selected no successful actions".into(),
            ));
        }
        let (partition, loss_counts) = match partials {
            Some(p) => (Some(p.partition), Some(p.loss)),
            None => (None, None),
        };
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        // Loss model: estimate per-cell telemetry loss from in-band
        // evidence (duplicate/sequence-gap + volume-shortfall signals on
        // the sanitized view). The stage always runs — the loss-rate
        // gauges report even when the correction is disabled — but it
        // consumes no randomness, so an inactive correction leaves every
        // downstream bit unchanged.
        let mut span = root.child(op::LOSSMODEL);
        let counts =
            loss_counts.unwrap_or_else(|| LossCounts::from_view_par(sub, self.config.threads));
        let evidence = estimate_cell_loss_par(sub, &counts, self.config.threads);
        let model = LossModel::from_evidence(&evidence);
        let correct = self.config.loss_correct && !model.is_noop();
        span.field("cells_flagged", model.cells.len());
        span.field("active", usize::from(correct));
        {
            let metrics = self.recorder.metrics();
            metrics.gauge("autosens_loss_rate").set(model.overall_rate);
            for c in &model.cells {
                metrics
                    .gauge(&format!("autosens_loss_rate_{}", c.label))
                    .set(c.rate);
            }
        }
        timings.push(StageTiming {
            stage: op::LOSSMODEL.into(),
            wall_ms: span.finish(),
        });

        let grouping = if self.config.weekday_weekend_slots {
            Grouping::HourSlotsByDayKind
        } else {
            Grouping::HourSlots
        };
        let (biased, unbiased, alpha, naive) = if self.config.alpha_correction {
            let mut span = root.child(op::ALPHA);
            span.field("groups", grouping.n_groups());
            // With an active correction the α system is solved twice from
            // one set of inputs (one RNG-bearing draw stage): once naive,
            // once with the loss weights applied to the biased masses.
            let (est, naive_est) = estimate_alpha(
                sub,
                &binner,
                grouping,
                &self.config,
                &mut rng,
                partition,
                correct.then_some(&model),
            )?;
            for r in &est.exec_reports {
                self.record_exec(&span, r);
            }
            // Groups with data but no usable α are dropped from the pooled
            // histograms; surface each exclusion as a degradation so the
            // operator knows which time windows the curve no longer covers.
            for g in &est.groups {
                if g.n_actions > 0 && g.alpha.is_none() {
                    degradations.push(Degradation {
                        stage: op::ALPHA.into(),
                        detail: format!(
                            "group {} ({} actions) excluded: no usable alpha",
                            g.label, g.n_actions
                        ),
                    });
                }
            }
            timings.push(StageTiming {
                stage: op::ALPHA.into(),
                wall_ms: span.finish(),
            });
            let span = root.child(op::BIASED_PDF);
            let b = est.normalized_biased(&binner)?;
            let naive_b = naive_est
                .as_ref()
                .map(|n| n.normalized_biased(&binner))
                .transpose()?;
            timings.push(StageTiming {
                stage: op::BIASED_PDF.into(),
                wall_ms: span.finish(),
            });
            let span = root.child(op::UNBIASED_PDF);
            let u = est.pooled_unbiased(&binner)?;
            let naive_u = naive_est
                .as_ref()
                .map(|n| n.pooled_unbiased(&binner))
                .transpose()?;
            timings.push(StageTiming {
                stage: op::UNBIASED_PDF.into(),
                wall_ms: span.finish(),
            });
            (b, u, Some(est), naive_b.zip(naive_u))
        } else {
            let span = root.child(op::BIASED_PDF);
            let naive_b = biased_histogram(sub, &binner);
            let b = if correct {
                // Reweight without α: the pooled biased histogram is the
                // per-record weighted sum (cell × day factor). The weights
                // depend on each record's calendar day, so a precomputed
                // unit-weight partition cannot be reused here — the
                // weighted rescan is the only loss-correct path over the
                // view.
                let (wpart, report) =
                    partition_by_group(sub, &binner, Some(&model), self.config.threads)?;
                self.record_exec(&span, &report);
                if wpart.n_records() != sub.len() as u64 {
                    return Err(AutoSensError::Internal(format!(
                        "group partition covers {} actions, log has {}",
                        wpart.n_records(),
                        sub.len()
                    )));
                }
                wpart.pooled_biased()?
            } else {
                naive_b.clone()
            };
            timings.push(StageTiming {
                stage: op::BIASED_PDF.into(),
                wall_ms: span.finish(),
            });
            let mut span = root.child(op::UNBIASED_PDF);
            span.field("draws", self.config.unbiased_draws);
            let (u, draw_report) = unbiased_histogram_par(
                sub,
                &binner,
                self.config.unbiased_draws,
                self.config.threads,
                &mut rng,
            )?;
            self.record_exec(&span, &draw_report);
            timings.push(StageTiming {
                stage: op::UNBIASED_PDF.into(),
                wall_ms: span.finish(),
            });
            let naive = correct.then(|| (naive_b, u.clone()));
            (b, u, None, naive)
        };

        let preference = NormalizedPreference::fit_traced(
            &biased,
            &unbiased,
            &self.config,
            &root,
            &mut timings,
        )?;

        // The naive side-channel curve re-fits with the same config but no
        // tracing (the smoothing/normalization stage spans describe the
        // corrected curve, which is the report's primary output).
        let loss = naive.map(|(naive_biased, naive_unbiased)| LossReport {
            overall_rate: model.overall_rate,
            cells: model.cells.clone(),
            naive_preference: NormalizedPreference::fit(
                &naive_biased,
                &naive_unbiased,
                &self.config,
            )
            .ok(),
            naive_biased,
            naive_unbiased,
        });

        // Windowed decayed curve: an incident-tracking view of the same
        // records, computed last on its own RNG stream so that — present or
        // absent — every lifetime stage above keeps its exact byte output.
        let windowed = decay
            .map(|spec| self.windowed_curve(sub, spec, &root, &mut timings))
            .transpose()?;

        let metrics = self.recorder.metrics();
        metrics.counter("autosens_core_analyses_total").inc();
        metrics
            .counter("autosens_core_records_read_total")
            .add(records_in as u64);
        metrics
            .counter("autosens_core_records_dropped_total")
            .add(records_dropped as u64);
        metrics
            .counter("autosens_core_degradations_total")
            .add(degradations.len() as u64);
        // Zero-copy accounting: rows analyzed through borrowed views vs
        // rows physically copied to repair degraded input. Both register
        // (even at zero) so batch and streaming runs expose the same set.
        metrics
            .counter("autosens_core_view_rows_total")
            .add(sub.len() as u64);
        metrics
            .counter("autosens_core_rows_copied_total")
            .add(rows_copied as u64);
        for d in &degradations {
            metrics
                .counter(&format!("autosens_core_degradations_{}_total", d.stage))
                .inc();
        }
        root.field("n_actions", sub.len());
        root.field("degradations", degradations.len());

        Ok(AnalysisReport {
            preference,
            alpha,
            n_actions: sub.len() as u64,
            biased,
            unbiased,
            loss,
            windowed,
            degradations,
            stage_timings: Some(timings),
        })
    }

    /// Compute the exponentially-decayed windowed curve (see
    /// [`WindowedCurve`]): a decayed-weight sweep for `B_w`, the decayed
    /// draw estimator for `U_w`, and a fit with the same smoothing /
    /// normalization config as the lifetime curve but no α correction —
    /// the decayed horizon covers too few occurrences of each hour slot
    /// for stable per-slot activity factors.
    fn windowed_curve(
        &self,
        sub: &LogView<'_>,
        spec: DecaySpec,
        root: &Span,
        timings: &mut Vec<StageTiming>,
    ) -> Result<WindowedCurve, AutoSensError> {
        if spec.half_life_ms <= 0 {
            return Err(AutoSensError::BadConfig(
                "decay half-life must be > 0 ms".into(),
            ));
        }
        let binner = self.config.binner()?;
        let mut span = root.child(op::WINDOWED_CURVE);
        span.field("half_life_ms", spec.half_life_ms as u64);
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xDECA);
        let mut biased = Histogram::new(binner.clone());
        for i in 0..sub.len() {
            biased.record_weighted(
                sub.latency_at(i),
                decay_weight(sub.time_at(i), spec.frontier_ms, spec.half_life_ms),
            );
        }
        let (unbiased, draw_report) = unbiased_histogram_decayed_par(
            sub,
            &binner,
            spec.half_life_ms,
            spec.frontier_ms,
            self.config.unbiased_draws,
            self.config.threads,
            &mut rng,
        )?;
        self.record_exec(&span, &draw_report);
        let effective_mass = biased.total();
        let preference = NormalizedPreference::fit(&biased, &unbiased, &self.config).ok();
        span.field("effective_mass", effective_mass);
        span.field("fit", u64::from(preference.is_some()));
        timings.push(StageTiming {
            stage: op::WINDOWED_CURVE.into(),
            wall_ms: span.finish(),
        });
        Ok(WindowedCurve {
            spec,
            biased,
            unbiased,
            effective_mass,
            preference,
        })
    }

    /// The optional `ci_bootstrap` stage: fit a bootstrap confidence band
    /// (see [`crate::ci`]) over a completed report's pooled histograms and
    /// append its stage timing. Runs on its own RNG stream (`seed ^ 0xC1`),
    /// so mapped and owned inputs produce bit-identical bands.
    fn ci(
        &self,
        report: &mut AnalysisReport,
        replicates: usize,
        level: f64,
    ) -> Result<PreferenceCi, AutoSensError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xC1);
        let mut span = self.recorder.root(op::CI_BOOTSTRAP);
        span.field("replicates_requested", replicates);
        let (ci, exec_report) = crate::ci::preference_ci_traced(
            &report.biased,
            &report.unbiased,
            &self.config,
            replicates,
            level,
            &mut rng,
        )?;
        self.record_exec(&span, &exec_report);
        span.field("replicates_ok", ci.replicates);
        self.recorder
            .metrics()
            .counter("autosens_core_bootstrap_replicates_total")
            .add(ci.replicates as u64);
        let wall_ms = span.finish();
        if let Some(timings) = report.stage_timings.as_mut() {
            timings.push(StageTiming {
                stage: op::CI_BOOTSTRAP.into(),
                wall_ms,
            });
        }
        Ok(ci)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosens_sim::{generate, Scenario, SimConfig};

    fn smoke_log() -> TelemetryLog {
        let (log, _) = generate(&SimConfig::scenario(Scenario::Smoke)).unwrap();
        log
    }

    fn fast_config() -> AutoSensConfig {
        AutoSensConfig {
            unbiased_draws: 48_000,
            min_supported_bins: 15,
            ..AutoSensConfig::default()
        }
    }

    #[test]
    fn every_input_shape_matches_the_log_shape() {
        let log = smoke_log();
        let plan = AnalysisPlan::new(fast_config());
        let base = plan
            .run(PlanInput::log(&log), RunOptions::default())
            .unwrap()
            .report;
        let all = Slice::all();
        let by_slice = plan
            .run(PlanInput::slice(&log, &all), RunOptions::default())
            .unwrap()
            .report;
        let view = log.view();
        let by_view = plan
            .run(PlanInput::view(&view, &all), RunOptions::default())
            .unwrap()
            .report;
        assert_eq!(base.preference.series(), by_slice.preference.series());
        assert_eq!(base.preference.series(), by_view.preference.series());
        assert_eq!(base.n_actions, by_view.n_actions);
    }

    #[test]
    fn ci_request_appends_the_bootstrap_stage() {
        let log = smoke_log();
        let plan = AnalysisPlan::new(fast_config());
        let out = plan
            .run(PlanInput::log(&log), RunOptions::with_ci(25, 0.95))
            .unwrap();
        let ci = out.ci.expect("ci requested");
        assert!(ci.replicates > 0);
        let timings = out.report.stage_timings.unwrap();
        assert_eq!(
            timings.last().unwrap().stage,
            op::CI_BOOTSTRAP,
            "CI stage timing must come last"
        );
    }

    #[test]
    fn prepared_shape_with_partials_is_bit_identical_to_batch() {
        let log = smoke_log();
        let plan = AnalysisPlan::new(fast_config());
        let batch = plan
            .run(PlanInput::log(&log), RunOptions::default())
            .unwrap()
            .report;

        // Sanitize externally: the smoke log is clean, so select + sort
        // is the identity and partials can be folded record by record.
        let selected = Slice::all().successes().select(&log);
        let sanitized = selected.materialize();
        let binner = plan.config().binner().unwrap();
        let mut partials = PlanPartials::empty(&binner);
        for r in &sanitized.to_records() {
            partials.record(r);
        }
        let records_in = sanitized.view().len();
        let meta = PreparedMeta {
            records_in,
            partials: Some(partials),
            ..PreparedMeta::default()
        };
        let prepared = plan
            .run(PlanInput::prepared(&sanitized, meta), RunOptions::default())
            .unwrap()
            .report;
        assert_eq!(batch.preference.series(), prepared.preference.series());
        assert_eq!(batch.biased.counts(), prepared.biased.counts());
        assert_eq!(batch.unbiased.counts(), prepared.unbiased.counts());
        assert_eq!(batch.n_actions, prepared.n_actions);
    }
}
