//! `galo-e2e compare A/ B/`: two directories of run records (written by
//! `run --out`), one row per workload × end-to-end metric, and a verdict
//! — the table a later change pastes next to its claim.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::quartiles;

/// workload → metric → one value per run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_runs(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        // Per-layer records and anything that is not a run record are
        // not end-to-end evidence.
        let (Some(workload), Some(false), Some(metrics)) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("trace").and_then(Json::as_bool),
            doc.get("metrics").and_then(Json::as_object),
        ) else {
            continue;
        };
        if doc.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "{}: an incorrect run proves nothing",
                path.display()
            ));
        }
        let of_workload = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                of_workload.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    WithinBound,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `(q1, median, q3)`; a single run is its own quartiles.
fn spread(values: &[f64]) -> (f64, f64, f64) {
    match values {
        [one] => (*one, *one, *one),
        _ => quartiles(values),
    }
}

/// B against A. Clean separation — every run of one side beating every
/// run of the other — decides by itself. Otherwise a side whose
/// inter-quartile range exceeds the bound cannot resolve a difference of
/// the bound's size; and otherwise the medians decide.
pub fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    // Orient so that larger is worse.
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worst = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
    let best = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
    if worst(b) < best(a) {
        return Verdict::Better;
    }
    if best(b) > worst(a) {
        return Verdict::Worse;
    }
    let (a_q1, a_med, a_q3) = spread(a);
    let (b_q1, b_med, b_q3) = spread(b);
    let iqr = ((a_q3 - a_q1) / a_med).max((b_q3 - b_q1) / b_med);
    if iqr > metric.bound {
        return Verdict::Unresolved;
    }
    let worsening = sign * (b_med - a_med) / a_med;
    if worsening > metric.bound {
        Verdict::Worse
    } else if worsening < -metric.bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

pub fn compare(a_dir: &Path, b_dir: &Path) -> Result<String, String> {
    let (a, b) = (read_runs(a_dir)?, read_runs(b_dir)?);
    let mut out = format!(
        "{:<15} {:<12} {:>4} {:>13} {:>13} {:>13} {:>4} {:>13} {:>13} {:>13} {:>8} {:>6}  verdict\n",
        "workload", "metric", "nA", "A q1", "A median", "A q3", "nB", "B q1", "B median", "B q3",
        "B vs A", "bound"
    );
    let mut rows = 0;
    for (workload, a_metrics) in &a {
        let Some(b_metrics) = b.get(workload) else {
            continue;
        };
        for metric in &END_TO_END {
            let (Some(av), Some(bv)) = (a_metrics.get(metric.name), b_metrics.get(metric.name))
            else {
                continue;
            };
            let (a_q1, a_med, a_q3) = spread(av);
            let (b_q1, b_med, b_q3) = spread(bv);
            out.push_str(&format!(
                "{:<15} {:<12} {:>4} {:>13.4} {:>13.4} {:>13.4} {:>4} {:>13.4} {:>13.4} {:>13.4} {:>+7.1}% {:>5.0}%  {}\n",
                workload,
                metric.name,
                av.len(),
                a_q1,
                a_med,
                a_q3,
                bv.len(),
                b_q1,
                b_med,
                b_q3,
                100.0 * (b_med - a_med) / a_med,
                100.0 * metric.bound,
                verdict(metric, av, bv).as_str()
            ));
            rows += 1;
        }
    }
    if rows == 0 {
        return Err("the two directories share no workload".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPS: &EndToEnd = &END_TO_END[1]; // ops_per_s, higher is better
    const P50: &EndToEnd = &END_TO_END[2]; // op_p50_us, lower is better

    #[test]
    fn verdicts() {
        assert_eq!((OPS.name, P50.name), ("ops_per_s", "op_p50_us"));
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Same code: within bound.
        assert_eq!(
            verdict(OPS, &a, &[100.2, 99.8, 100.9, 99.1, 100.0]),
            Verdict::WithinBound
        );
        // Every run of B beats every run of A, however small the gap.
        assert_eq!(
            verdict(OPS, &a, &[102.0, 103.0, 102.5, 104.0, 102.2]),
            Verdict::Better
        );
        assert_eq!(
            verdict(P50, &a, &[102.0, 103.0, 102.5, 104.0, 102.2]),
            Verdict::Worse
        );
        // Overlapping runs, medians apart by more than the bound.
        let slow = [99.5, 60.0, 62.0, 61.0, 63.0, 60.5, 61.5, 62.5, 63.5];
        assert_eq!(verdict(OPS, &a, &slow), Verdict::Worse);
        assert_eq!(verdict(P50, &slow, &a), Verdict::Worse);
        assert_eq!(verdict(OPS, &slow, &a), Verdict::Better);
        // A side noisier than the bound resolves nothing.
        let noisy = [100.0, 60.0, 140.0, 80.0, 120.0];
        assert_eq!(verdict(OPS, &a, &noisy), Verdict::Unresolved);
    }
}
