//! Figure 8: the time-based activity factor α per 6-hour period, with the
//! 8am–2pm period as reference. The paper's claims: α is lower at night
//! (less activity regardless of latency) and stays flat across the latency
//! bins — which is what justifies averaging α over bins in §2.4.1.

use autosens_core::report::{f3, series_csv, text_table};
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::{ActionType, UserClass};

use super::{Artifact, ShapeCheck};
use crate::dataset::Dataset;

/// Regenerate Figure 8.
pub fn generate(data: &Dataset) -> Artifact {
    let base = Slice::all()
        .action(ActionType::SelectMail)
        .class(UserClass::Business);
    let est = data
        .plan
        .alpha_by_period(&data.log, &base)
        .expect("business SelectMail slice fits");

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for g in &est.groups {
        rows.push(vec![
            g.label.clone(),
            g.n_actions.to_string(),
            g.alpha.map(f3).unwrap_or_else(|| "-".into()),
            g.per_bin.len().to_string(),
        ]);
        csv.push((
            format!("fig8_{}", g.label.replace('-', "_")),
            series_csv(("latency_ms", "alpha"), &g.per_bin),
        ));
    }
    let mut rendered = String::from(
        "Figure 8 — time-based activity factor by period\n\
         (business SelectMail; 8am-2pm as reference)\n\n",
    );
    rendered.push_str(&text_table(
        &["period", "n actions", "alpha", "supported bins"],
        &rows,
    ));
    // Ground truth for comparison.
    rendered.push_str("\nplanted activity-profile alpha (weekday truth): ");
    for p in autosens_telemetry::time::DayPeriod::all() {
        rendered.push_str(&format!(
            "{}={:.3} ",
            p.label(),
            data.truth.true_alpha(UserClass::Business, p)
        ));
    }
    rendered.push('\n');

    // Checks.
    let alpha = |i: usize| est.groups[i].alpha;
    let morning = alpha(0);
    let night_evening: Vec<f64> = [alpha(2), alpha(3)].into_iter().flatten().collect();
    // Flatness across bins: coefficient of variation of per-bin alpha over
    // the well-supported range for the afternoon period (the one with most
    // overlap with the reference).
    let flat_detail;
    let flat_pass;
    {
        let per_bin = &est.groups[1].per_bin;
        if per_bin.len() >= 10 {
            let vals: Vec<f64> = per_bin.iter().map(|(_, a)| *a).collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            let sd = (vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
                / vals.len() as f64)
                .sqrt();
            let cv = sd / mean;
            flat_pass = cv < 0.35;
            flat_detail = format!("CV of per-bin alpha (2pm-8pm) = {cv:.3}");
        } else {
            flat_pass = false;
            flat_detail = "too few supported bins".into();
        }
    }
    let truth_night = data.truth.true_alpha(
        UserClass::Business,
        autosens_telemetry::time::DayPeriod::Night2to8,
    );
    let checks = vec![
        ShapeCheck::new(
            "reference period alpha = 1",
            morning.map(|a| (a - 1.0).abs() < 1e-9).unwrap_or(false),
            format!("{morning:?}"),
        ),
        ShapeCheck::new(
            "nighttime alpha well below daytime",
            !night_evening.is_empty() && night_evening.iter().all(|&a| a < 0.5),
            format!("{night_evening:?}"),
        ),
        ShapeCheck::new(
            "alpha roughly flat across latency bins",
            flat_pass,
            flat_detail,
        ),
        ShapeCheck::new(
            "estimated night alpha within 2x of the planted truth",
            alpha(3)
                .map(|a| a / truth_night < 2.0 && truth_night / a < 2.0)
                .unwrap_or(false),
            format!("measured {:?} vs planted {truth_night:.3}", alpha(3)),
        ),
    ];

    Artifact {
        id: "fig8",
        title: "Activity factor by period",
        rendered,
        csv,
        checks,
    }
}
