//! Figure 6: conditioning to speed — consumer users grouped into quartiles
//! by per-user median latency. The paper finds sensitivity decreases
//! monotonically from Q1 (fastest users) to Q4 (slowest users).

use autosens_core::report::{f3, series_csv, text_table};
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::{ActionType, UserClass};
use autosens_telemetry::users::LatencyQuartiles;

use super::{Artifact, ShapeCheck};
use crate::dataset::Dataset;

/// Regenerate Figure 6.
pub fn generate(data: &Dataset) -> Artifact {
    let base = Slice::all()
        .action(ActionType::SelectMail)
        .class(UserClass::Consumer);
    let (quartiles, results) = data
        .plan
        .by_latency_quartile(&data.log, &base, 20)
        .expect("enough consumer users");

    let grid = [600.0, 900.0, 1200.0];
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut prefs: Vec<Option<autosens_core::NormalizedPreference>> = vec![None; 4];
    for (q, result) in &results {
        match result {
            Ok(report) => {
                let mut row = vec![
                    LatencyQuartiles::label(*q).to_string(),
                    quartiles.groups[*q].len().to_string(),
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
                    format!("fig6_q{}", q + 1),
                    series_csv(("latency_ms", "preference"), &report.preference.series()),
                ));
                prefs[*q] = Some(report.preference.clone());
            }
            Err(e) => rows.push(vec![
                LatencyQuartiles::label(*q).to_string(),
                "-".into(),
                "-".into(),
                format!("error: {e}"),
                "-".into(),
                "-".into(),
            ]),
        }
    }

    let mut rendered = String::from(
        "Figure 6 — preference by per-user median-latency quartile\n\
         (consumer SelectMail; Q1 = fastest users; reference 300 ms)\n\n",
    );
    rendered.push_str(&format!(
        "quartile cuts: {:.0} / {:.0} / {:.0} ms\n\n",
        quartiles.cuts[0], quartiles.cuts[1], quartiles.cuts[2]
    ));
    rendered.push_str(&text_table(
        &[
            "quartile", "users", "actions", "@600ms", "@900ms", "@1200ms",
        ],
        &rows,
    ));

    // Checks: Q1 most sensitive, Q4 least; the full ordering should hold at
    // a mid-range probe, and the extremes must separate clearly.
    let probe = 900.0;
    let at = |q: usize| prefs[q].as_ref().and_then(|p| p.at(probe));
    let all: Vec<Option<f64>> = (0..4).map(at).collect();
    let monotone = all.windows(2).all(|w| match (w[0], w[1]) {
        (Some(a), Some(b)) => a <= b + 0.03, // small tolerance for noise
        _ => false,
    });
    let extremes = match (all[0], all[3]) {
        (Some(q1), Some(q4)) => q1 < q4,
        _ => false,
    };
    let checks = vec![
        ShapeCheck::new(
            "sensitivity decreases Q1 -> Q4 (within noise) @900ms",
            monotone,
            format!("{all:?}"),
        ),
        ShapeCheck::new(
            "Q1 clearly more sensitive than Q4 @900ms",
            extremes,
            format!("Q1 {:?} vs Q4 {:?}", all[0], all[3]),
        ),
        ShapeCheck::new(
            "quartile cuts are increasing",
            quartiles.cuts[0] < quartiles.cuts[1] && quartiles.cuts[1] < quartiles.cuts[2],
            format!("{:?}", quartiles.cuts),
        ),
    ];

    Artifact {
        id: "fig6",
        title: "Conditioning to speed (latency quartiles)",
        rendered,
        csv,
        checks,
    }
}
