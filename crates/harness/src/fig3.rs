//! Figure 3: scalability of performance variability — per-run normalized
//! min/max execution time for `schedbench`, `syncbench` and `BabelStream`
//! as the hardware-thread count grows, on both platforms.
//!
//! The paper's observations: variability grows with the thread count,
//! pronounced for `syncbench` and `BabelStream` at high counts (≥128 on
//! Dardel, ≥30 on Vera), and much less pronounced for `schedbench`
//! (dynamic scheduling self-balances perturbations).

use crate::common::{Check, ExpOptions, ExpReport, Platform};
use crate::sweep::{calibrate, Sweep};
use ompvar_bench_epcc::syncbench::{self, SyncConstruct};
use ompvar_bench_epcc::{schedbench, EpccConfig};
use ompvar_bench_stream::{kernel_stats, kernels::StreamConfig, StreamKernel};
use ompvar_core::{fmt_ratio, Summary, Table};
use ompvar_rt::config::RegionResult;
use ompvar_rt::region::Schedule;

/// The three benchmarks of the figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// schedbench, dynamic_1.
    Sched,
    /// syncbench, reduction.
    Sync,
    /// BabelStream (worst kernel).
    Stream,
}

impl Bench {
    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            Bench::Sched => "schedbench",
            Bench::Sync => "syncbench",
            Bench::Stream => "babelstream",
        }
    }
}

/// Variability envelope of one configuration: the *quartile over runs*
/// of the per-run normalized min and max (25th percentile of the mins,
/// 75th of the maxs). Residual noise hits only a fraction of runs, so a
/// median would miss it, while a worst-case envelope would be dominated
/// by a single rare multi-millisecond IRQ burst; the quartiles capture
/// "a typical bad run".
#[derive(Debug, Clone, Copy)]
pub struct Envelope {
    /// 25th-percentile per-run `min/avg` (≤ 1).
    pub lo: f64,
    /// 75th-percentile per-run `max/avg` (≥ 1).
    pub hi: f64,
}

impl Envelope {
    /// Total envelope width (`hi − lo`).
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

fn sched_cfg(opts: &ExpOptions) -> EpccConfig {
    let mut cfg = EpccConfig::schedbench_default().fast(opts.outer_reps().min(20));
    if opts.fast {
        cfg.iters_per_thr = 512;
    } else {
        // Keep simulated event counts tractable across the full sweep;
        // per-iteration behaviour is unchanged.
        cfg.iters_per_thr = 2048;
    }
    cfg
}

/// Envelope of one benchmark at one thread count.
pub fn envelope(opts: &ExpOptions, platform: Platform, bench: Bench, n: usize) -> Envelope {
    envelopes(opts, &[(platform, bench, n)])[0]
}

/// Residual noise events are rare (a few per second): the measured
/// syncbench window needs enough repetitions to sample them, so fast
/// mode uses *more* (cheap, short) repetitions here.
fn sync_cfg(opts: &ExpOptions) -> EpccConfig {
    let reps = if opts.fast { 60 } else { opts.outer_reps() };
    EpccConfig::syncbench_default().fast(reps)
}

/// One run's normalized extremes `(min/avg, max/avg)`. For BabelStream,
/// the worst across its kernels.
fn norm_extremes(bench: Bench, res: &RegionResult) -> (f64, f64) {
    match bench {
        Bench::Sched | Bench::Sync => {
            let s = Summary::of(res.reps());
            (s.norm_min(), s.norm_max())
        }
        Bench::Stream => {
            let stats = kernel_stats(res);
            (
                StreamKernel::ALL
                    .iter()
                    .map(|k| stats[k].norm_min())
                    .fold(f64::INFINITY, f64::min),
                StreamKernel::ALL
                    .iter()
                    .map(|k| stats[k].norm_max())
                    .fold(f64::NEG_INFINITY, f64::max),
            )
        }
    }
}

/// Envelopes of several `(platform, bench, threads)` cells, calibrated
/// as one sweep and run as a second.
fn envelopes(opts: &ExpOptions, cells: &[(Platform, Bench, usize)]) -> Vec<Envelope> {
    let rts: Vec<_> = cells.iter().map(|&(p, _, n)| p.pinned_rt(n)).collect();
    let sync = sync_cfg(opts);
    let probes: Vec<_> = cells
        .iter()
        .zip(&rts)
        .filter(|((_, bench, _), _)| *bench == Bench::Sync)
        .map(|(&(_, _, n), rt)| (rt, SyncConstruct::Reduction, n, crate::fig1::inner_cap(opts, n)))
        .collect();
    let mut inners = calibrate(opts, &sync, &probes).into_iter();
    let stream = StreamConfig {
        iterations: opts.stream_iters(),
        ..StreamConfig::default()
    };
    let mut sweep = Sweep::new(opts);
    for (&(_, bench, n), rt) in cells.iter().zip(&rts) {
        let region = match bench {
            Bench::Sched => schedbench::region(&sched_cfg(opts), Schedule::Dynamic { chunk: 1 }, n),
            Bench::Sync => {
                let inner = inners.next().expect("one calibration per syncbench cell");
                syncbench::region_with_inner(&sync, SyncConstruct::Reduction, n, inner)
            }
            Bench::Stream => ompvar_bench_stream::region(&stream, n),
        };
        sweep.push(rt, region, opts.n_runs(), opts.seed);
    }
    // Per cell: the quartiles over runs of the per-run extremes.
    sweep
        .run(|c, res| norm_extremes(cells[c].1, res))
        .into_iter()
        .map(|runs| {
            let (los, his): (Vec<f64>, Vec<f64>) = runs.into_iter().unzip();
            Envelope {
                lo: ompvar_core::percentile(&los, 25.0),
                hi: ompvar_core::percentile(&his, 75.0),
            }
        })
        .collect()
}

/// Execute and report.
pub fn run(opts: &ExpOptions) -> ExpReport {
    let mut tables = Vec::new();
    let mut checks = Vec::new();
    let benches = [Bench::Sched, Bench::Sync, Bench::Stream];
    let counts = |platform: Platform| {
        if opts.fast {
            // A low and a high count suffice for the shape in fast mode.
            match platform {
                Platform::Dardel => vec![8, 128],
                Platform::Vera => vec![4, 30],
            }
        } else {
            platform.scaling_threads()
        }
    };
    let mut cells = Vec::new();
    for platform in [Platform::Dardel, Platform::Vera] {
        for bench in benches {
            cells.extend(counts(platform).into_iter().map(|n| (platform, bench, n)));
        }
    }
    let mut envs = cells.iter().zip(envelopes(opts, &cells));
    for platform in [Platform::Dardel, Platform::Vera] {
        let mut t = Table::new(
            &format!(
                "Fig 3 ({}): normalized min/max envelope vs threads",
                platform.label()
            ),
            &["bench", "threads", "norm min", "norm max"],
        );
        for bench in benches {
            let envs: Vec<(usize, Envelope)> = envs
                .by_ref()
                .take(counts(platform).len())
                .map(|(&(_, _, n), e)| (n, e))
                .collect();
            for (n, e) in &envs {
                t.row(&[
                    bench.label().to_string(),
                    n.to_string(),
                    fmt_ratio(e.lo),
                    fmt_ratio(e.hi),
                ]);
            }
            if matches!(bench, Bench::Sync | Bench::Stream) {
                // Shape: high thread counts show a wider envelope.
                let low = envs.first().unwrap();
                let high = envs.last().unwrap();
                checks.push(Check::new(
                    &format!(
                        "{} {}: variability grows with threads",
                        platform.label(),
                        bench.label()
                    ),
                    high.1.width() > low.1.width(),
                    format!(
                        "width {:.4} @ {} thr → {:.4} @ {} thr",
                        low.1.width(),
                        low.0,
                        high.1.width(),
                        high.0
                    ),
                ));
            }
        }
        tables.push(t);
    }
    ExpReport {
        name: "fig3".into(),
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
        assert!(rep.all_passed(), "fig3 checks failed:\n{}", rep.render());
    }
}
