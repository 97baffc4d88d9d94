//! Figure 4: normalized latency preference per action type, for business
//! users, reference 300 ms. The paper's headline shape claims: SelectMail
//! drops most sharply, then SwitchFolder; Search is much shallower (users
//! tolerate search latency); ComposeSend (asynchronous UI) is nearly flat.

use autosens_core::pipeline::AnalysisReport;
use autosens_core::report::{f3, series_csv, text_table};
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::{ActionType, UserClass};

use super::{Artifact, ShapeCheck};
use crate::dataset::Dataset;

/// Regenerate Figure 4.
pub fn generate(data: &Dataset) -> Artifact {
    let base = Slice::all().class(UserClass::Business);
    let results = data.plan.by_action_type(&data.log, &base);

    let grid = [500.0, 1000.0, 1500.0, 2000.0];
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut reports: Vec<(ActionType, Option<AnalysisReport>)> = Vec::new();
    for (action, result) in results {
        match result {
            Ok(report) => {
                let mut row = vec![format!("{action:?}"), report.n_actions.to_string()];
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
                    format!("fig4_{}", action.name().to_lowercase()),
                    series_csv(("latency_ms", "preference"), &report.preference.series()),
                ));
                reports.push((action, Some(report)));
            }
            Err(e) => {
                rows.push(vec![
                    format!("{action:?}"),
                    "-".into(),
                    format!("error: {e}"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
                reports.push((action, None));
            }
        }
    }

    let mut rendered = String::from(
        "Figure 4 — normalized latency preference by action type\n\
         (business users, reference 300 ms)\n\n",
    );
    rendered.push_str(&text_table(
        &["action", "n", "@500ms", "@1000ms", "@1500ms", "@2000ms"],
        &rows,
    ));

    let at = |a: ActionType, l: f64| -> Option<f64> {
        reports
            .iter()
            .find(|(x, _)| *x == a)
            .and_then(|(_, r)| r.as_ref())
            .and_then(|r| r.preference.at(l))
    };

    let probe = 1200.0;
    let sm = at(ActionType::SelectMail, probe);
    let sf = at(ActionType::SwitchFolder, probe);
    let se = at(ActionType::Search, probe);
    let cs = at(ActionType::ComposeSend, probe);
    let pair = |a: Option<f64>, b: Option<f64>| -> (bool, String) {
        match (a, b) {
            (Some(a), Some(b)) => (a < b, format!("{a:.3} < {b:.3}")),
            _ => (false, "missing".into()),
        }
    };
    let (p1, d1) = pair(sm, se);
    let (p2, d2) = pair(sf, se);
    let (p3, d3) = pair(se, cs);
    let sm500 = at(ActionType::SelectMail, 500.0);
    let sm1000 = at(ActionType::SelectMail, 1000.0);
    let sm1500 = at(ActionType::SelectMail, 1500.0);
    let checks = vec![
        ShapeCheck::new("SelectMail steeper than Search @1200ms", p1, d1),
        ShapeCheck::new("SwitchFolder steeper than Search @1200ms", p2, d2),
        ShapeCheck::new("Search steeper than ComposeSend @1200ms", p3, d3),
        ShapeCheck::new(
            "ComposeSend nearly flat (>= 0.85 @1200ms)",
            cs.map(|v| v >= 0.85).unwrap_or(false),
            format!("{cs:?}"),
        ),
        ShapeCheck::new(
            "SelectMail near paper's 0.88 / 0.68 / 0.61 @ 500/1000/1500 ms",
            match (sm500, sm1000, sm1500) {
                (Some(a), Some(b), Some(c)) => {
                    (a - 0.88).abs() < 0.08 && (b - 0.68).abs() < 0.08 && (c - 0.61).abs() < 0.10
                }
                _ => false,
            },
            format!("{sm500:?} / {sm1000:?} / {sm1500:?}"),
        ),
        ShapeCheck::new(
            "SelectMail recovery tracks planted truth (MAE < 0.08 on 400-1500 ms)",
            {
                let mut err = 0.0;
                let mut n = 0;
                for l in (400..=1500).step_by(100) {
                    if let Some(m) = at(ActionType::SelectMail, l as f64) {
                        let t = data.truth.normalized_preference(
                            ActionType::SelectMail,
                            UserClass::Business,
                            l as f64,
                            300.0,
                        );
                        err += (m - t).abs();
                        n += 1;
                    }
                }
                n >= 8 && (err / n as f64) < 0.08
            },
            "mean |measured - planted|",
        ),
    ];

    Artifact {
        id: "fig4",
        title: "Preference by action type",
        rendered,
        csv,
        checks,
    }
}
