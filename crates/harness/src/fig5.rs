//! Figure 5: the effect of simultaneous multithreading on Dardel.
//!
//! Same thread count, two placements: **ST** (one thread per physical
//! core, siblings left idle for the OS) vs. **MT** (both hardware threads
//! of half as many cores). The paper's observations:
//!
//! * (a/d) `schedbench` at 128 threads: MT shows very high variability
//!   among the outer repetitions of each run;
//! * (b/e) `syncbench` at 32 threads: the per-run CV of the repetitions
//!   is much higher under MT, especially for `for`, `single`, `ordered`
//!   and `reduction`;
//! * (c/f) BabelStream at 128 threads: MT widens the normalized min/max
//!   band.
//!
//! Mechanism (modeled): with the sibling idle, most per-core kernel
//! housekeeping runs there, costing only a mild SMT co-run slowdown;
//! with both contexts busy, kernel work must preempt a benchmark thread
//! outright (plus a cache-refill penalty on resume).

use crate::common::{Check, ExpOptions, ExpReport, Platform};
use crate::sweep::{calibrate, Sweep};
use ompvar_bench_epcc::syncbench::{self, SyncConstruct};
use ompvar_bench_epcc::{schedbench, EpccConfig};
use ompvar_bench_stream::{kernel_stats, kernels::StreamConfig, StreamKernel};
use ompvar_core::{fmt_ratio, RunSet, Summary, Table};
use ompvar_rt::region::{RegionSpec, Schedule};
use ompvar_rt::simrt::SimRuntime;

const PLATFORM: Platform = Platform::Dardel;

/// The constructs the paper singles out as most SMT-sensitive.
pub const SENSITIVE: [SyncConstruct; 4] = [
    SyncConstruct::For,
    SyncConstruct::Single,
    SyncConstruct::Ordered,
    SyncConstruct::Reduction,
];

/// schedbench at high thread count: `(st, mt)` run sets.
///
/// Uses `static_1`: unlike the dynamic schedule (which self-balances
/// around perturbations), a static partition exposes every preemption of
/// any thread directly in the repetition time — the configuration where
/// the paper's MT variability is starkest.
pub fn schedbench_runs(opts: &ExpOptions) -> (RunSet, RunSet) {
    let n = if opts.fast { 64 } else { 128 };
    let mut cfg = EpccConfig::schedbench_default().fast(opts.outer_reps().min(40));
    cfg.iters_per_thr = if opts.fast { 256 } else { 1024 };
    let region = schedbench::region(&cfg, Schedule::Static { chunk: 1 }, n);
    let (st_rt, mt_rt) = (PLATFORM.pinned_rt(n), PLATFORM.pinned_mt_rt(n));
    let mut sets = st_and_mt(opts, &st_rt, &mt_rt, [region]).run_sets().into_iter();
    (sets.next().unwrap(), sets.next().unwrap())
}

/// A sweep running every region on the ST runtime and then on the MT
/// one, cells interleaved `(st, mt)` per region.
fn st_and_mt<'a>(
    opts: &ExpOptions,
    st_rt: &'a SimRuntime,
    mt_rt: &'a SimRuntime,
    regions: impl IntoIterator<Item = RegionSpec>,
) -> Sweep<'a> {
    let mut sweep = Sweep::new(opts);
    for region in regions {
        sweep.push(st_rt, region.clone(), opts.n_runs(), opts.seed);
        sweep.push(mt_rt, region, opts.n_runs(), opts.seed);
    }
    sweep
}

/// syncbench per-construct CV comparison at 32 threads: for each
/// construct, `(mean CV over runs under ST, under MT)`.
pub fn syncbench_cvs(opts: &ExpOptions) -> Vec<(SyncConstruct, f64, f64)> {
    let n = 32;
    let reps = if opts.fast { 60 } else { opts.outer_reps() };
    let cfg = EpccConfig::syncbench_default().fast(reps);
    let cap = crate::fig1::inner_cap(opts, n);
    let st_rt = PLATFORM.pinned_rt(n);
    let mt_rt = PLATFORM.pinned_mt_rt(n);
    let probes: Vec<_> = SyncConstruct::ALL.iter().map(|&c| (&st_rt, c, n, cap)).collect();
    let inners = calibrate(opts, &cfg, &probes);
    let regions = SyncConstruct::ALL
        .iter()
        .zip(inners)
        .map(|(&c, inner)| syncbench::region_with_inner(&cfg, c, n, inner));
    // Per run only its repetition CV; per cell the mean over runs.
    let mean_cvs: Vec<f64> = st_and_mt(opts, &st_rt, &mt_rt, regions)
        .run(|_, res| Summary::of(res.reps()).cv)
        .into_iter()
        .map(|cvs| cvs.iter().sum::<f64>() / cvs.len() as f64)
        .collect();
    SyncConstruct::ALL
        .iter()
        .zip(mean_cvs.chunks(2))
        .map(|(&c, st_mt)| (c, st_mt[0], st_mt[1]))
        .collect()
}

/// Median of a sample.
fn median(xs: &[f64]) -> f64 {
    ompvar_core::percentile(xs, 50.0)
}

/// BabelStream comparison: `(st, mt)` as `(mean kernel time µs, mean
/// absolute intra-run spread µs)`. Absolute spread is the right
/// variability axis here: MT kernels take ~2× longer (half the engaged
/// NUMA domains), which would *dilute* a normalized band even while the
/// microsecond-level spread grows.
pub fn stream_envelopes(opts: &ExpOptions) -> ((f64, f64), (f64, f64)) {
    let n = if opts.fast { 64 } else { 128 };
    let cfg = StreamConfig {
        iterations: opts.stream_iters(),
        ..StreamConfig::default()
    };
    let region = ompvar_bench_stream::region(&cfg, n);
    let (st_rt, mt_rt) = (PLATFORM.pinned_rt(n), PLATFORM.pinned_mt_rt(n));
    let mut envelopes = st_and_mt(opts, &st_rt, &mt_rt, [region])
        .run(|_, res| {
            let stats = kernel_stats(res);
            StreamKernel::ALL.map(|k| (stats[&k].avg_us, stats[&k].max_us - stats[&k].min_us))
        })
        .into_iter()
        .map(|runs| {
            let (mut time_sum, mut spread_sum, mut count) = (0.0, 0.0, 0usize);
            for (time, spread) in runs.into_iter().flatten() {
                time_sum += time;
                spread_sum += spread;
                count += 1;
            }
            (time_sum / count as f64, spread_sum / count as f64)
        });
    (envelopes.next().unwrap(), envelopes.next().unwrap())
}

/// Execute and report.
pub fn run(opts: &ExpOptions) -> ExpReport {
    let mut tables = Vec::new();
    let mut checks = Vec::new();

    // (a/d) schedbench.
    let (st, mt) = schedbench_runs(opts);
    let mut t = Table::new(
        "Fig 5a/5d: schedbench per-run intra-run spread (max/min of reps), Dardel",
        &["run #", "ST", "MT"],
    );
    for i in 0..st.n_runs() {
        t.row(&[
            (i + 1).to_string(),
            fmt_ratio(st.runs[i].summary().spread()),
            fmt_ratio(mt.runs[i].summary().spread()),
        ]);
    }
    tables.push(t);
    let st_w = median(&st.run_cvs());
    let mt_w = median(&mt.run_cvs());
    checks.push(Check::new(
        "schedbench: MT has higher repetition variability than ST",
        mt_w > st_w,
        format!("median per-run cv ST {st_w:.5} vs MT {mt_w:.5}"),
    ));

    // (b/e) syncbench CVs.
    let cvs = syncbench_cvs(opts);
    let mut t = Table::new(
        "Fig 5b/5e: syncbench mean per-run CV, 32 threads, Dardel",
        &["construct", "ST cv", "MT cv"],
    );
    for (c, s, m) in &cvs {
        t.row(&[c.label().to_string(), format!("{s:.5}"), format!("{m:.5}")]);
    }
    tables.push(t);
    let worse = SENSITIVE
        .iter()
        .filter(|c| {
            cvs.iter()
                .find(|(cc, _, _)| cc == *c)
                .map(|(_, s, m)| m > s)
                .unwrap_or(false)
        })
        .count();
    checks.push(Check::new(
        "syncbench: MT raises CV for most SMT-sensitive constructs",
        worse >= 3,
        format!("{worse}/4 of for/single/ordered/reduction worse under MT"),
    ));

    // (c/f) BabelStream.
    let ((st_time, st_spread), (mt_time, mt_spread)) = stream_envelopes(opts);
    let mut t = Table::new(
        "Fig 5c/5f: BabelStream mean kernel time and intra-run spread (µs), Dardel",
        &["config", "mean kernel µs", "mean max−min µs"],
    );
    t.row(&["ST".into(), fmt_ratio(st_time), fmt_ratio(st_spread)]);
    t.row(&["MT".into(), fmt_ratio(mt_time), fmt_ratio(mt_spread)]);
    tables.push(t);
    checks.push(Check::new(
        "babelstream: no benefit from SMT (MT clearly slower)",
        mt_time > st_time * 1.5,
        format!("mean kernel ST {st_time:.1} µs vs MT {mt_time:.1} µs"),
    ));
    checks.push(Check::new(
        "babelstream: MT has larger absolute intra-run spread",
        mt_spread > st_spread,
        format!("mean max−min ST {st_spread:.1} µs vs MT {mt_spread:.1} µs"),
    ));

    ExpReport {
        name: "fig5".into(),
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
        assert!(rep.all_passed(), "fig5 checks failed:\n{}", rep.render());
    }
}
