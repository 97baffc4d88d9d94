//! The stage names: the declared identity of every pipeline stage.
//!
//! Each stage of the estimator is named once, here. The spans, metrics,
//! stage timings, `Degradation::stage` labels and the profile artifact's
//! stage column all use these constants, so renaming a stage is a
//! one-line change that every consumer follows.
//!
//! ## Why the RNG frontier is the cacheability frontier
//!
//! The pipeline seeds one `StdRng` after sanitize and threads it through
//! the stages in a fixed order. Any state accumulated *before* the first
//! draw is a pure, order-insensitive fold over the sanitized records —
//! unit-weight integer histogram additions and `u64` counters — so
//! per-shard partials of it merge bit-identically to a batch rescan.
//! Those are the sorted shard columns ([`SANITIZE`]), the per-day loss
//! counts ([`LOSSMODEL`]) and the per-cell group partition that
//! [`ALPHA`] and [`BIASED_PDF`] regroup; [`crate::plan::PlanPartials`]
//! bundles the last two. Anything at or past a draw depends on the
//! *global* window (the draw count and instant layout are functions of
//! the window's start/end), so caching it per shard would change the
//! random sequence and break the bit-equality invariant: the α solve's
//! group-conditional draws, [`UNBIASED_PDF`] and [`WINDOWED_CURVE`]
//! (whose weights also depend on the window frontier). The
//! [`CI_BOOTSTRAP`] is the extreme case: it resamples the final pooled
//! histograms, so there is no per-shard decomposition of it at all.

/// Filter / stable sort / exact dedup.
pub const SANITIZE: &str = "sanitize";
/// Per-cell telemetry-loss estimation from in-band evidence.
pub const LOSSMODEL: &str = "lossmodel";
/// Per-group activity-factor (α) estimation.
pub const ALPHA: &str = "alpha";
/// The pooled (α-normalized, loss-weighted) biased latency PDF.
pub const BIASED_PDF: &str = "biased_pdf";
/// The unbiased latency PDF from random draw instants.
pub const UNBIASED_PDF: &str = "unbiased_pdf";
/// Savitzky–Golay smoothing of the B/U ratio.
pub const SMOOTHING: &str = "smoothing";
/// Normalization of the smoothed ratio at the reference latency.
pub const NORMALIZATION: &str = "normalization";
/// The bootstrap confidence band (optional, requested via
/// [`RunOptions`](crate::plan::RunOptions)).
pub const CI_BOOTSTRAP: &str = "ci_bootstrap";
/// The exponentially-decayed windowed curve (optional, streaming-only).
pub const WINDOWED_CURVE: &str = "windowed_curve";

/// The always-run stages, in execution order. Every analysis run (with
/// the α correction enabled) produces exactly one span per entry under
/// its `"analyze"` root; [`CI_BOOTSTRAP`] and [`WINDOWED_CURVE`] run only
/// on request.
pub const STAGES: &[&str] = &[
    SANITIZE,
    LOSSMODEL,
    ALPHA,
    BIASED_PDF,
    UNBIASED_PDF,
    SMOOTHING,
    NORMALIZATION,
];
