//! Figure 9: month-over-month stability — the preference curves for
//! SelectMail and SwitchFolder in January vs. February should coincide
//! closely, showing the sensitivity is a stable property over this window.

use autosens_core::report::{f3, series_csv, text_table};
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::{ActionType, UserClass};
use autosens_telemetry::time::Month;

use super::{Artifact, ShapeCheck};
use crate::dataset::Dataset;

/// Regenerate Figure 9.
pub fn generate(data: &Dataset) -> Artifact {
    let grid = [600.0, 1000.0, 1400.0];
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut checks = Vec::new();

    for action in [ActionType::SelectMail, ActionType::SwitchFolder] {
        let base = Slice::all().action(action).class(UserClass::Business);
        let results = data
            .plan
            .by_month(&data.log, &base, &[Month::Jan, Month::Feb]);
        let mut month_prefs = Vec::new();
        for (month, result) in &results {
            match result {
                Ok(report) => {
                    let mut row = vec![
                        format!("{action:?}"),
                        month.label().to_string(),
                        report.n_actions.to_string(),
                    ];
                    for l in grid {
                        row.push(
                            report
                                .preference
                                .at(l)
                                .map(f3)
                                .unwrap_or_else(|| "-".into()),
                        );
                    }
                    rows.push(row);
                    csv.push((
                        format!(
                            "fig9_{}_{}",
                            action.name().to_lowercase(),
                            month.label().to_lowercase()
                        ),
                        series_csv(("latency_ms", "preference"), &report.preference.series()),
                    ));
                    month_prefs.push((month, report.preference.clone()));
                }
                Err(e) => rows.push(vec![
                    format!("{action:?}"),
                    month.label().to_string(),
                    "-".into(),
                    format!("error: {e}"),
                    "-".into(),
                    "-".into(),
                ]),
            }
        }
        // Stability check: mean absolute gap between the two months over
        // the shared probe range.
        if month_prefs.len() == 2 {
            let probes: Vec<f64> = (4..=12).map(|i| i as f64 * 100.0).collect();
            let cmp = autosens_core::compare::compare_curves(
                &month_prefs[0].1,
                &month_prefs[1].1,
                &probes,
            );
            let (pass, detail) = match cmp {
                Some(cmp) => (
                    cmp.points.len() >= 7 && cmp.mae < 0.08,
                    format!(
                        "MAE {:.4}, max gap {:.4} @ {:.0} ms over {} probes",
                        cmp.mae,
                        cmp.max_gap.1,
                        cmp.max_gap.0,
                        cmp.points.len()
                    ),
                ),
                None => (false, "no shared probes".into()),
            };
            checks.push(ShapeCheck::new(
                format!("{action:?} Jan and Feb curves agree (MAE < 0.08)"),
                pass,
                detail,
            ));
        } else {
            checks.push(ShapeCheck::new(
                format!("{action:?} has curves for both months"),
                false,
                "a month failed to fit",
            ));
        }
    }

    let mut rendered = String::from(
        "Figure 9 — month-over-month stability (business users)\n\
         (reference 300 ms)\n\n",
    );
    rendered.push_str(&text_table(
        &["action", "month", "n", "@600ms", "@1000ms", "@1400ms"],
        &rows,
    ));

    Artifact {
        id: "fig9",
        title: "Consistency across months",
        rendered,
        csv,
        checks,
    }
}
