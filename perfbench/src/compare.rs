//! Comparing two sets of runs: the timing verdict with the bounds in
//! `BENCHMARK.json`, and the exact gate on deterministic counts.
//!
//! `perfbench --compare BASE CAND` reads two files holding the result
//! lines of repeated runs (one JSON object per line; other lines are
//! ignored) and exits 1 when an end-to-end metric got worse by more than
//! its bound or a deterministic count differs.

use crate::metrics::is_deterministic;
use crate::util::median;
use ompvar_obs::json::{self, Value};
use std::collections::BTreeMap;

/// Outcome of comparing one metric between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's median is worse by more than the bound.
    Worse,
    /// The candidate's median is better by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
}

/// Compare medians: `bound` is the share of the base median by which the
/// candidate may be worse before it counts as a regression.
pub fn verdict(base: &[f64], cand: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    let (b, c) = (median(base), median(cand));
    let worse_by = if lower_is_better {
        c / b - 1.0
    } else {
        b / c - 1.0
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// [`verdict`] for interleaved pairs: `base[i]` and `cand[i]` ran back to
/// back, so the median of the per-pair ratios cancels slow drift of the
/// host that the medians of two separate sets would carry. The
/// sensitivity self-test compares this way.
#[cfg(test)]
pub fn paired_verdict(base: &[f64], cand: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    assert_eq!(base.len(), cand.len(), "paired samples");
    let ratios: Vec<f64> = base.iter().zip(cand).map(|(b, c)| c / b).collect();
    verdict(&[1.0], &[median(&ratios)], bound, lower_is_better)
}

/// End-to-end metrics of `BENCHMARK.json`: name → (bound, lower is better).
pub fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, (f64, bool)>, String> {
    let doc = json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without bound")?;
            let lower = m.get("better").and_then(Value::as_str) == Some("lower");
            Ok((name.to_string(), (bound, lower)))
        })
        .collect()
}

/// Metric values of every result line in `text`, by name.
pub fn results(text: &str) -> BTreeMap<String, Vec<f64>> {
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let Ok(v) = json::parse(line) else { continue };
        let Some(Value::Obj(ms)) = v.get("metrics") else {
            continue;
        };
        for (name, m) in ms {
            if let Some(x) = m.get("value").and_then(Value::as_f64) {
                out.entry(name.clone()).or_default().push(x);
            }
        }
    }
    out
}

/// Every finding of comparing `cand` with `base`: end-to-end metrics
/// worse beyond their bound, and deterministic counts that differ
/// anywhere across the two sets.
pub fn findings(
    bounds: &BTreeMap<String, (f64, bool)>,
    base: &BTreeMap<String, Vec<f64>>,
    cand: &BTreeMap<String, Vec<f64>>,
) -> Vec<String> {
    let mut out = Vec::new();
    for (name, &(bound, lower)) in bounds {
        if let (Some(b), Some(c)) = (base.get(name), cand.get(name)) {
            if verdict(b, c, bound, lower) == Verdict::Worse {
                out.push(format!(
                    "{name}: median {:.6} -> {:.6}, worse by more than {bound}",
                    median(b),
                    median(c)
                ));
            }
        }
    }
    for (name, b) in base.iter().filter(|(n, _)| is_deterministic(n)) {
        let all: Vec<f64> = b
            .iter()
            .chain(cand.get(name).into_iter().flatten())
            .copied()
            .collect();
        if all.iter().any(|x| *x != all[0]) {
            out.push(format!("{name}: deterministic count differs: {all:?}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_uses_the_bound_on_medians() {
        let base = [1.0, 1.02, 0.98];
        assert_eq!(
            verdict(&base, &[1.25, 1.27, 1.24], 0.15, true),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &[1.05, 1.0, 1.03], 0.15, true),
            Verdict::Same
        );
        assert_eq!(
            verdict(&base, &[0.8, 0.8, 0.8], 0.15, true),
            Verdict::Better
        );
        // Drift that moves both sides of each pair cancels in the ratios.
        let drift = [1.0, 1.3, 0.9];
        let slowed = [1.25, 1.625, 1.125];
        assert_eq!(paired_verdict(&drift, &slowed, 0.2, true), Verdict::Worse);
        assert_eq!(paired_verdict(&drift, &drift, 0.2, true), Verdict::Same);
    }

    #[test]
    fn deterministic_counts_gate_exactly() {
        let line = |ev: f64, w: f64| {
            format!(
                "{{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{\
                 \"sim.events\":{{\"value\":{ev},\"unit\":\"count\"}},\
                 \"wall_s\":{{\"value\":{w},\"unit\":\"s\"}}}}}}"
            )
        };
        let b: BTreeMap<String, (f64, bool)> = [("wall_s".to_string(), (0.15, true))].into();
        let base = results(&format!(
            "noise\n{}\n{}\n",
            line(10.0, 1.0),
            line(10.0, 1.1)
        ));
        let same = results(&line(10.0, 1.05));
        assert!(findings(&b, &base, &same).is_empty());
        let moved = results(&line(11.0, 1.05));
        assert_eq!(findings(&b, &base, &moved).len(), 1);
    }
}
