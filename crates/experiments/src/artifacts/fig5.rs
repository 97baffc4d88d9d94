//! Figure 5: business vs. consumer latency preference for SelectMail.
//! The paper finds the drop-off is sharper for (paying) business users.

use autosens_core::report::{f3, series_csv, text_table};
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::{ActionType, UserClass};

use super::{Artifact, ShapeCheck};
use crate::dataset::Dataset;

/// Regenerate Figure 5.
pub fn generate(data: &Dataset) -> Artifact {
    let base = Slice::all().action(ActionType::SelectMail);
    let results = data.plan.by_user_class(&data.log, &base);

    let grid = [500.0, 1000.0, 1500.0, 2000.0];
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut vals = std::collections::HashMap::new();
    for (class, result) in &results {
        match result {
            Ok(report) => {
                let mut row = vec![class.name().to_string(), report.n_actions.to_string()];
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
                    format!("fig5_{}", class.name().to_lowercase()),
                    series_csv(("latency_ms", "preference"), &report.preference.series()),
                ));
                vals.insert(*class, report.preference.clone());
            }
            Err(e) => rows.push(vec![
                class.name().to_string(),
                "-".into(),
                format!("error: {e}"),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        }
    }

    let mut rendered = String::from(
        "Figure 5 — business vs consumer preference for SelectMail\n\
         (reference 300 ms)\n\n",
    );
    rendered.push_str(&text_table(
        &["class", "n", "@500ms", "@1000ms", "@1500ms", "@2000ms"],
        &rows,
    ));

    let mut checks = Vec::new();
    let probes = [800.0, 1200.0, 1600.0];
    for l in probes {
        let b = vals.get(&UserClass::Business).and_then(|p| p.at(l));
        let c = vals.get(&UserClass::Consumer).and_then(|p| p.at(l));
        let (pass, detail) = match (b, c) {
            (Some(b), Some(c)) => (b < c, format!("business {b:.3} < consumer {c:.3}")),
            _ => (false, "missing".into()),
        };
        checks.push(ShapeCheck::new(
            format!("business steeper than consumer @{l:.0}ms"),
            pass,
            detail,
        ));
    }

    Artifact {
        id: "fig5",
        title: "Business vs consumer preference (SelectMail)",
        rendered,
        csv,
        checks,
    }
}
