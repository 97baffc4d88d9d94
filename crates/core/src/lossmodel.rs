//! Loss-aware correction: turn per-cell loss evidence into
//! inverse-observation-probability weights for the analysis kernels.
//!
//! The telemetry layer estimates, per loss cell (local hour × day kind ×
//! user class) and per calendar day, how many records a view *should*
//! have had ([`autosens_telemetry::loss::estimate_cell_loss`]). This
//! module converts that evidence into a [`LossModel`]: one weight per
//! cell plus one weight per flagged (day, hour), each `1 / (1 - rate)`
//! clamped to [`MAX_WEIGHT`], combined per record by
//! [`LossModel::weight_for`]. The pipeline then builds the biased
//! histogram (and the α grouping's per-group histograms) as a *weighted*
//! sum over records, so a (day, hour) that kept only 80% of its records
//! contributes each surviving record 1.25 times — undoing, in
//! expectation, the thinning the loss mechanism applied. The day factor
//! is essential, not a refinement: a weight constant over a whole time
//! group multiplies that group's biased counts and its α estimate
//! identically and cancels out of the α-normalized pool, so day-blind
//! cell weights alone cannot correct the α path at all.
//!
//! ## Why this removes MNAR bias
//!
//! The preference curve is a ratio of the biased latency distribution `B`
//! to the unbiased opportunity distribution `U`. Loss that is correlated
//! with time-of-day or class (and therefore, through the diurnal load
//! curve, with latency) thins `B` non-uniformly: slow-hour records vanish
//! more often, so high-latency mass is underrepresented and the fitted
//! curve looks *less* latency-averse than the population truly is.
//! Reweighting each observed record by the inverse of its cell's estimated
//! observation probability restores the expected cell totals before the
//! pooling step, which is exactly inverse-probability weighting under a
//! missing-at-random-within-cell assumption.
//!
//! ## When it is a no-op
//!
//! Zero estimated loss in every cell (clean telemetry, or loss the
//! estimators cannot see) yields unit weights everywhere —
//! [`LossModel::is_noop`] — and the pipeline skips the corrected path
//! entirely, leaving the report bit-identical to `loss_correct: false`.
//!
//! ## Failure modes
//!
//! * Loss invisible to the evidence layer (uniform thinning of irregular
//!   arrivals) leaves the curve uncorrected — but such MCAR loss does not
//!   bias the ratio `B/U` in the first place.
//! * Loss correlated with latency *within* a (day, hour) — finer than the
//!   day-localized grid — is only partially corrected: the model restores
//!   day and cell totals, not within-slot shape (a burst's surviving
//!   records keep the burst's own latency mix).
//! * Day-localized rates are measured against the median same-kind day;
//!   when more than half the days of a slot are damaged the baseline
//!   itself is depressed and the correction underestimates.
//! * A cell estimated near-total loss would explode its weight; the clamp
//!   at [`MAX_WEIGHT`] trades residual bias for bounded variance.

use serde::{Deserialize, Serialize};

use autosens_telemetry::loss::{loss_cell_index, LossEvidence, N_LOSS_CELLS};

/// Weight ceiling: a cell may be upweighted at most this much (rate
/// ≈ 0.9). Beyond that, a handful of surviving records would dominate the
/// pooled histogram, so the clamp bounds the variance of the correction.
pub const MAX_WEIGHT: f64 = 10.0;

/// Per-cell correction weights derived from loss evidence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LossModel {
    /// One weight per loss cell, in cell-index order; `1.0` for clean cells.
    pub weights: Vec<f64>,
    /// The corrections actually applied (cells with weight > 1), for
    /// reporting.
    pub cells: Vec<CellCorrection>,
    /// Day-localized weights (sorted by day; only days with at least one
    /// upweighted hour appear). See [`LossModel::weight_for`] for why these
    /// exist separately from the cell weights.
    #[serde(default)]
    pub day_weights: Vec<DayWeights>,
    /// Volume-weighted overall estimated loss rate.
    pub overall_rate: f64,
}

/// Inverse-observation-probability weights for one calendar day
/// (class-pooled, per local hour — matching the day-localized evidence).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DayWeights {
    /// Local day index.
    pub day: i64,
    /// 24 per-hour weights (`1.0` for clean hours).
    pub weights: Vec<f64>,
}

/// One corrected cell, as surfaced in reports and metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellCorrection {
    /// Loss-cell index.
    pub cell: usize,
    /// Metric-name-safe cell label (`h{hh}_{wd|we}_{class}`).
    pub label: String,
    /// Estimated loss rate of the cell.
    pub rate: f64,
    /// Applied inverse-observation-probability weight.
    pub weight: f64,
}

impl LossModel {
    /// Build the model from the telemetry layer's evidence.
    pub fn from_evidence(evidence: &LossEvidence) -> LossModel {
        let mut weights = vec![1.0f64; N_LOSS_CELLS];
        let mut cells = Vec::new();
        for c in &evidence.cells {
            if c.rate <= 0.0 {
                continue;
            }
            let weight = (1.0 / (1.0 - c.rate)).clamp(1.0, MAX_WEIGHT);
            weights[c.cell] = weight;
            cells.push(CellCorrection {
                cell: c.cell,
                label: c.label(),
                rate: c.rate,
                weight,
            });
        }
        let day_weights = evidence
            .day_rates
            .iter()
            .map(|d| DayWeights {
                day: d.day,
                weights: d
                    .rates
                    .iter()
                    .map(|&r| {
                        if r > 0.0 {
                            (1.0 / (1.0 - r).max(1.0 / MAX_WEIGHT)).clamp(1.0, MAX_WEIGHT)
                        } else {
                            1.0
                        }
                    })
                    .collect(),
            })
            .filter(|d| d.weights.iter().any(|&w| w > 1.0))
            .collect();
        LossModel {
            weights,
            cells,
            day_weights,
            overall_rate: evidence.overall_rate,
        }
    }

    /// The correction weight of one record: its cell weight times its
    /// day-localized weight, clamped to [`MAX_WEIGHT`].
    ///
    /// The day factor is what makes the correction effective under the α
    /// normalization: a weight constant across a whole time group scales
    /// the group's biased histogram and its α estimate by the same factor
    /// and cancels out of the normalized pool, so cell weights alone
    /// cannot undo loss that the grouping already absorbs. Bursty (MNAR)
    /// loss hits *specific days* of a slot; restoring those days relative
    /// to the slot's median day reshapes the within-group mix — the part
    /// of the bias that survives α — which is exactly what the day factor
    /// does.
    pub fn weight_for(&self, day: i64, hour: u8, weekend: bool, class_code: u8) -> f64 {
        let cell_w = self.weights[loss_cell_index(hour, weekend, class_code)];
        let day_w = self
            .day_weights
            .binary_search_by_key(&day, |d| d.day)
            .ok()
            .map(|i| self.day_weights[i].weights[hour as usize])
            .unwrap_or(1.0);
        (cell_w * day_w).clamp(1.0, MAX_WEIGHT)
    }

    /// True when every weight is exactly 1 — the correction would not
    /// change a single bit of the report, and the pipeline skips it.
    pub fn is_noop(&self) -> bool {
        self.cells.is_empty() && self.day_weights.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosens_telemetry::loss::{loss_cell_index, CellLossEvidence};

    fn evidence_with(rates: &[(usize, f64)]) -> LossEvidence {
        let cells = (0..N_LOSS_CELLS)
            .map(|cell| {
                let rate = rates
                    .iter()
                    .find(|(c, _)| *c == cell)
                    .map(|(_, r)| *r)
                    .unwrap_or(0.0);
                let observed = 100u64;
                let expected = if rate > 0.0 {
                    observed as f64 / (1.0 - rate)
                } else {
                    observed as f64
                };
                CellLossEvidence {
                    cell,
                    hour: (cell / 2 / 2) as u8,
                    weekend: (cell / 2) % 2 == 1,
                    class_code: (cell % 2) as u8,
                    observed,
                    expected,
                    rate,
                }
            })
            .collect();
        LossEvidence {
            cells,
            day_rates: Vec::new(),
            overall_rate: rates.iter().map(|(_, r)| r).sum::<f64>() / N_LOSS_CELLS as f64,
        }
    }

    #[test]
    fn zero_evidence_is_a_noop() {
        let model = LossModel::from_evidence(&evidence_with(&[]));
        assert!(model.is_noop());
        assert!(model.weights.iter().all(|&w| w == 1.0));
        assert_eq!(model.weights.len(), N_LOSS_CELLS);
        assert!(model.cells.is_empty() && model.day_weights.is_empty());
    }

    #[test]
    fn weights_are_inverse_observation_probability() {
        let cell = loss_cell_index(9, false, 0);
        let model = LossModel::from_evidence(&evidence_with(&[(cell, 0.2)]));
        assert!(!model.is_noop());
        assert!((model.weights[cell] - 1.25).abs() < 1e-12);
        assert!(model
            .weights
            .iter()
            .enumerate()
            .all(|(i, &w)| i == cell || w == 1.0));
        assert_eq!(model.cells.len(), 1);
        assert_eq!(model.cells[0].label, "h09_wd_business");
    }

    #[test]
    fn extreme_rates_are_clamped() {
        let cell = loss_cell_index(3, true, 1);
        let model = LossModel::from_evidence(&evidence_with(&[(cell, 0.99)]));
        assert_eq!(model.weights[cell], MAX_WEIGHT);
    }

    #[test]
    fn model_serializes() {
        let cell = loss_cell_index(12, false, 1);
        let model = LossModel::from_evidence(&evidence_with(&[(cell, 0.1)]));
        let json = serde_json::to_string(&model).unwrap();
        let back: LossModel = serde_json::from_str(&json).unwrap();
        assert_eq!(model, back);
    }
}
