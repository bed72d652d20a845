//! Exact engine event counts per OpenMP construct and per loop iteration.
//!
//! Each count is the difference between two runs of one EPCC region that
//! differ only in their inner repetition (or iteration) count, divided by
//! the number of extra construct instances per thread. The runtime is a
//! pinned Dardel team with sterile parameters, so the counts are a pure
//! function of the code: they repeat exactly and move only when the
//! engine's events per construct change.

use crate::metrics::{self, Metrics, ITER_SCHEDULES, OPS};
use crate::trace::Tracer;
use ompvar_bench_epcc::syncbench::{self, SyncConstruct};
use ompvar_bench_epcc::{schedbench, EpccConfig};
use ompvar_harness::Platform;
use ompvar_rt::region::{RegionSpec, Schedule};
use ompvar_rt::simrt::SimRuntime;
use ompvar_sim::params::SimParams;

const THREADS: usize = 16;
const OUTER: u32 = 4;
const SEED: u64 = 0xC0_117;

fn events(tr: &Tracer, rt: &SimRuntime, region: &RegionSpec) -> f64 {
    let res = metrics::run_traced(tr, rt, region, SEED).expect("sterile EPCC region completes");
    res.counters.expect("simulated runs report counters").events as f64
}

/// Fill `sim.events_per_op.*` and `sim.events_per_iter.*`.
pub fn construct_counts(tr: &Tracer, m: &mut Metrics) {
    let rt = Platform::Dardel
        .pinned_rt(THREADS)
        .with_params(SimParams::sterile());
    let cfg = EpccConfig::syncbench_default().fast(OUTER);
    let (lo, hi) = (8, 16);
    for (c, op) in SyncConstruct::ALL.iter().zip(OPS) {
        let e = |inner| {
            events(
                tr,
                &rt,
                &syncbench::region_with_inner(&cfg, *c, THREADS, inner),
            )
        };
        let per = (e(hi) - e(lo)) / f64::from((hi - lo) * OUTER) / THREADS as f64;
        m.set(format!("sim.events_per_op.{op}"), per);
    }
    let schedules = [
        Schedule::Static { chunk: 1 },
        Schedule::Dynamic { chunk: 1 },
        Schedule::Guided { min_chunk: 1 },
    ];
    for (s, name) in schedules.into_iter().zip(ITER_SCHEDULES) {
        let e = |iters| {
            let mut cfg = EpccConfig::schedbench_default().fast(OUTER);
            cfg.iters_per_thr = iters;
            events(tr, &rt, &schedbench::region(&cfg, s, THREADS))
        };
        let (lo, hi) = (32u64, 64u64);
        let per = (e(hi) - e(lo)) / ((hi - lo) * u64::from(OUTER)) as f64 / THREADS as f64;
        m.set(format!("sim.events_per_iter.{name}"), per);
    }
}
