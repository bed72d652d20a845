//! Figure 2: BabelStream execution time (ms) when increasing the number
//! of hardware threads on Dardel (2–254) and Vera (2–30).
//!
//! The paper's observation: execution time *decreases* as threads are
//! added (more cores engage more NUMA domains' bandwidth), flattening as
//! each domain's bandwidth saturates.

use crate::common::{Check, ExpOptions, ExpReport, Platform};
use crate::sweep::Sweep;
use ompvar_bench_stream::{kernel_stats, kernels::StreamConfig, region, StreamKernel};
use ompvar_core::Table;

/// Mean kernel time (ms, averaged over the five kernels) per thread
/// count.
pub fn scaling_series(opts: &ExpOptions, platform: Platform) -> Vec<(usize, f64)> {
    let cfg = StreamConfig {
        iterations: opts.stream_iters(),
        ..StreamConfig::default()
    };
    let mut counts = platform.scaling_threads();
    if counts[0] != 2 {
        counts.insert(0, 2);
    }
    let rts: Vec<_> = counts.iter().map(|&n| platform.pinned_rt(n)).collect();
    let mut sweep = Sweep::new(opts);
    for (&n, rt) in counts.iter().zip(&rts) {
        sweep.push(rt, region(&cfg, n), 1, opts.seed);
    }
    let avg_ms = sweep.run(|_, res| {
        let stats = kernel_stats(res);
        StreamKernel::ALL
            .iter()
            .map(|k| stats[k].avg_us)
            .sum::<f64>()
            / (StreamKernel::ALL.len() as f64 * 1e3)
    });
    counts.into_iter().zip(avg_ms).map(|(n, ms)| (n, ms[0])).collect()
}

/// Execute and report.
pub fn run(opts: &ExpOptions) -> ExpReport {
    let mut tables = Vec::new();
    let mut checks = Vec::new();
    for platform in [Platform::Dardel, Platform::Vera] {
        let series = scaling_series(opts, platform);
        let mut t = Table::new(
            &format!(
                "Fig 2{}: BabelStream mean kernel time (ms) vs threads on {}",
                if platform == Platform::Dardel { "a" } else { "b" },
                platform.label()
            ),
            &["threads", "mean kernel ms"],
        );
        for &(n, ms) in &series {
            t.row(&[n.to_string(), format!("{ms:.3}")]);
        }
        tables.push(t);

        let first = series.first().unwrap().1;
        let last = series.last().unwrap().1;
        checks.push(Check::new(
            &format!("{}: time decreases with threads", platform.label()),
            last < first * 0.7,
            format!("{first:.2} → {last:.2} ms"),
        ));
        // Never *increases* significantly from one step to the next.
        let monotone = series.windows(2).all(|w| w[1].1 <= w[0].1 * 1.15);
        checks.push(Check::new(
            &format!("{}: scaling is (near-)monotone", platform.label()),
            monotone,
            format!("{series:?}"),
        ));
    }
    ExpReport {
        name: "fig2".into(),
        tables,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_mode_shapes_hold() {
        let rep = run(&ExpOptions { jobs: 2, ..ExpOptions::fast() });
        assert!(rep.all_passed(), "fig2 checks failed:\n{}", rep.render());
    }
}
