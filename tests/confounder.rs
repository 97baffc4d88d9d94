//! The time-confounder correction (§2.4.1): without α-normalization the
//! diurnal coupling of activity and latency distorts — and can invert —
//! the inferred preference; with it, the planted preference is recovered.

mod common;

use autosens_core::AutoSensConfig;
use autosens_core::{AnalysisPlan, PlanInput, RunOptions};
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::{ActionType, UserClass};
use autosens_telemetry::time::DayPeriod;

fn slice() -> Slice {
    Slice::all()
        .action(ActionType::SelectMail)
        .class(UserClass::Business)
}

#[test]
fn alpha_correction_removes_the_inversion() {
    let (log, _) = common::data();
    let corrected = common::run_slice(log, &slice()).expect("fits");
    let uncorrected = AnalysisPlan::new(AutoSensConfig {
        alpha_correction: false,
        ..AutoSensConfig::default()
    })
    .run(PlanInput::slice(log, &slice()), RunOptions::default())
    .expect("fits")
    .report;

    let probe = 1000.0;
    let with_alpha = corrected.preference.at(probe).expect("supported");
    let without_alpha = uncorrected.preference.at(probe).expect("supported");
    // Uncorrected: busy hours are both active and slow, inflating apparent
    // activity at high latency — the naive estimate sits far above the
    // corrected one (and typically above 1, the Table 1 inversion).
    assert!(
        without_alpha > with_alpha + 0.15,
        "uncorrected {without_alpha:.3} should exceed corrected {with_alpha:.3}"
    );
    assert!(
        without_alpha > 0.95,
        "naive estimate should (wrongly) suggest no sensitivity, got {without_alpha:.3}"
    );
    assert!(
        with_alpha < 0.85,
        "corrected estimate should show real sensitivity, got {with_alpha:.3}"
    );
}

#[test]
fn alpha_by_period_matches_activity_profile() {
    let (log, truth) = common::data();
    let est = common::plan().alpha_by_period(log, &slice()).expect("fits");
    // Reference period normalized to 1.
    let morning = est.groups[0].alpha.expect("morning usable");
    assert!((morning - 1.0).abs() < 1e-9);
    // Night well below day, and within 2x of the planted profile.
    let night = est.groups[3].alpha.expect("night usable");
    let planted = truth.true_alpha(UserClass::Business, DayPeriod::Night2to8);
    assert!(night < 0.5, "night alpha {night:.3}");
    assert!(
        night / planted < 2.0 && planted / night < 2.0,
        "night alpha {night:.3} vs planted {planted:.3}"
    );
    // Afternoon between night and morning.
    let afternoon = est.groups[1].alpha.expect("afternoon usable");
    assert!(night < afternoon && afternoon < 1.3);
}

#[test]
fn alpha_is_roughly_flat_across_latency_bins() {
    let (log, _) = common::data();
    let est = common::plan().alpha_by_period(log, &slice()).expect("fits");
    // The paper's justification for averaging alpha over bins (Fig 8): the
    // per-bin alphas of the afternoon period (the best-supported non-
    // reference group) vary modestly around their mean.
    let per_bin = &est.groups[1].per_bin;
    assert!(
        per_bin.len() >= 10,
        "need supported bins, got {}",
        per_bin.len()
    );
    let vals: Vec<f64> = per_bin.iter().map(|(_, a)| *a).collect();
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    let sd = (vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64).sqrt();
    assert!(
        sd / mean < 0.45,
        "per-bin alpha CV = {:.3} (mean {mean:.3})",
        sd / mean
    );
}

#[test]
fn more_reference_slots_stabilize_alpha() {
    // With a single reference slot the alpha estimate inherits that slot's
    // noise; averaging over several references must not blow up, and both
    // configurations should land in the same neighbourhood.
    let (log, _) = common::data();
    let one = AnalysisPlan::new(AutoSensConfig {
        alpha_references: 1,
        ..AutoSensConfig::default()
    })
    .run(PlanInput::slice(log, &slice()), RunOptions::default())
    .expect("fits")
    .report;
    let many = AnalysisPlan::new(AutoSensConfig {
        alpha_references: 6,
        ..AutoSensConfig::default()
    })
    .run(PlanInput::slice(log, &slice()), RunOptions::default())
    .expect("fits")
    .report;
    let a = one.preference.at(900.0).expect("supported");
    let b = many.preference.at(900.0).expect("supported");
    assert!((a - b).abs() < 0.15, "1-ref {a:.3} vs 6-ref {b:.3}");
}
