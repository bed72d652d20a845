//! Port of the EPCC `syncbench` micro-benchmark.
//!
//! `syncbench` measures the overhead of every OpenMP synchronization
//! construct: each timed repetition executes the construct `inner_reps`
//! times, and `inner_reps` is calibrated so one repetition lasts roughly
//! `test_time_us` (the EPCC auto-calibration).

use crate::params::EpccConfig;
use ompvar_rt::region::{Construct, RegionSpec, Schedule};
use ompvar_rt::runner::RegionRunner;

/// The synchronization constructs evaluated by syncbench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncConstruct {
    /// `#pragma omp parallel` around a delay body (fork/join overhead).
    Parallel,
    /// `#pragma omp for` over `n_threads` delay iterations.
    For,
    /// `#pragma omp parallel for` (region + loop).
    ParallelFor,
    /// `#pragma omp barrier`.
    Barrier,
    /// `#pragma omp single`.
    Single,
    /// `#pragma omp critical`.
    Critical,
    /// Explicit `omp_set_lock`/`omp_unset_lock`.
    LockUnlock,
    /// `#pragma omp ordered` inside a static loop.
    Ordered,
    /// `#pragma omp atomic`.
    Atomic,
    /// `reduction(+:...)` clause.
    Reduction,
}

impl SyncConstruct {
    /// All constructs, in syncbench's reporting order.
    pub const ALL: [SyncConstruct; 10] = [
        SyncConstruct::Parallel,
        SyncConstruct::For,
        SyncConstruct::ParallelFor,
        SyncConstruct::Barrier,
        SyncConstruct::Single,
        SyncConstruct::Critical,
        SyncConstruct::LockUnlock,
        SyncConstruct::Ordered,
        SyncConstruct::Atomic,
        SyncConstruct::Reduction,
    ];

    /// Label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            SyncConstruct::Parallel => "parallel",
            SyncConstruct::For => "for",
            SyncConstruct::ParallelFor => "parallel_for",
            SyncConstruct::Barrier => "barrier",
            SyncConstruct::Single => "single",
            SyncConstruct::Critical => "critical",
            SyncConstruct::LockUnlock => "lock_unlock",
            SyncConstruct::Ordered => "ordered",
            SyncConstruct::Atomic => "atomic",
            SyncConstruct::Reduction => "reduction",
        }
    }

    /// The construct body executed once per inner repetition, mirroring
    /// the upstream `syncbench.c` kernels.
    pub fn body(&self, cfg: &EpccConfig, n_threads: usize) -> Vec<Construct> {
        let d = cfg.delay_us;
        match self {
            SyncConstruct::Parallel => vec![Construct::ParallelRegion {
                body: vec![Construct::DelayUs(d)],
            }],
            SyncConstruct::For => vec![Construct::ParallelFor {
                schedule: Schedule::Static { chunk: 1 },
                total_iters: n_threads as u64,
                body_us: d,
                ordered_us: None,
                nowait: false,
            }],
            SyncConstruct::ParallelFor => vec![Construct::ParallelRegion {
                body: vec![Construct::ParallelFor {
                    schedule: Schedule::Static { chunk: 1 },
                    total_iters: n_threads as u64,
                    body_us: d,
                    ordered_us: None,
                    nowait: false,
                }],
            }],
            SyncConstruct::Barrier => vec![Construct::DelayUs(d), Construct::Barrier],
            SyncConstruct::Single => vec![Construct::Single { body_us: d }],
            SyncConstruct::Critical => vec![Construct::Critical { body_us: d }],
            SyncConstruct::LockUnlock => vec![Construct::LockUnlock { body_us: d }],
            SyncConstruct::Ordered => vec![Construct::ParallelFor {
                schedule: Schedule::Static { chunk: 1 },
                total_iters: n_threads as u64,
                body_us: 0.0,
                ordered_us: Some(d),
                nowait: false,
            }],
            SyncConstruct::Atomic => vec![Construct::Atomic],
            SyncConstruct::Reduction => vec![Construct::Reduction { body_us: d }],
        }
    }
}

/// Build the syncbench region for a construct with an explicit inner
/// repetition count.
pub fn region_with_inner(
    cfg: &EpccConfig,
    construct: SyncConstruct,
    n_threads: usize,
    inner_reps: u32,
) -> RegionSpec {
    RegionSpec::measured(
        n_threads,
        cfg.outer_reps,
        inner_reps,
        construct.body(cfg, n_threads),
    )
}

/// Seed of the calibration probe run.
pub const CALIBRATION_SEED: u64 = 0xCA11B;

/// Inner repetitions of the calibration probe.
const PROBE_INNER: u32 = 4;

/// The short probe run of EPCC-style calibration: 2 outer ×
/// `PROBE_INNER` inner repetitions of `construct`.
pub fn calibration_probe(cfg: &EpccConfig, construct: SyncConstruct, n_threads: usize) -> RegionSpec {
    let probe_cfg = EpccConfig {
        outer_reps: 2,
        ..*cfg
    };
    region_with_inner(&probe_cfg, construct, n_threads, PROBE_INNER)
}

/// Scale the probe's repetition times (`probe_reps`, from a run of
/// [`calibration_probe`]) so one repetition lasts about `test_time_us`.
/// The result is clamped to `[1, cap]` to keep simulated event counts
/// tractable.
pub fn inner_reps_from_probe(cfg: &EpccConfig, probe_reps: &[f64], cap: u32) -> u32 {
    // Use the second repetition (the first may include warmup placement).
    let rep_us = probe_reps[1].max(1e-3);
    let per_op = rep_us / PROBE_INNER as f64;
    ((cfg.test_time_us / per_op).round() as u32).clamp(1, cap)
}

/// EPCC-style auto-calibration of the inner repetition count: run one
/// [`calibration_probe`] at [`CALIBRATION_SEED`] and scale it with
/// [`inner_reps_from_probe`].
pub fn calibrate_inner_reps<R: RegionRunner>(
    rt: &R,
    cfg: &EpccConfig,
    construct: SyncConstruct,
    n_threads: usize,
    cap: u32,
) -> u32 {
    let probe = calibration_probe(cfg, construct, n_threads);
    let res = rt
        .run_region(&probe, CALIBRATION_SEED)
        .expect("syncbench region completes");
    inner_reps_from_probe(cfg, res.reps(), cap)
}

/// Reference time of one inner repetition, µs: the serial cost of the
/// construct's delay body (EPCC's "reference" measurement).
pub fn reference_op_us(cfg: &EpccConfig, construct: SyncConstruct) -> f64 {
    match construct {
        // Loop-shaped constructs run one delay per thread in parallel →
        // the reference is a single delay.
        SyncConstruct::Parallel
        | SyncConstruct::For
        | SyncConstruct::ParallelFor
        | SyncConstruct::Barrier
        | SyncConstruct::Critical
        | SyncConstruct::LockUnlock
        | SyncConstruct::Ordered
        | SyncConstruct::Reduction => cfg.delay_us,
        SyncConstruct::Single => cfg.delay_us,
        SyncConstruct::Atomic => 0.0,
    }
}

/// Overhead per construct execution, µs, from a measured repetition.
pub fn overhead_us(
    cfg: &EpccConfig,
    construct: SyncConstruct,
    rep_us: f64,
    inner_reps: u32,
) -> f64 {
    rep_us / inner_reps as f64 - reference_op_us(cfg, construct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompvar_rt::config::RtConfig;
    use ompvar_rt::simrt::SimRuntime;
    use ompvar_sim::params::SimParams;
    use ompvar_topology::{MachineSpec, Places};

    fn rt(n: usize) -> SimRuntime {
        SimRuntime::new(
            MachineSpec::vera(),
            RtConfig::pinned_close(Places::Threads(Some(n))),
        )
        .with_params(SimParams::sterile())
    }

    #[test]
    fn all_constructs_run_on_the_simulator() {
        let cfg = EpccConfig::syncbench_default().fast(2);
        for c in SyncConstruct::ALL {
            let region = region_with_inner(&cfg, c, 4, 5);
            let res = rt(4).run_region(&region, 1).expect("syncbench region completes");
            assert_eq!(res.reps().len(), 2, "{}", c.label());
            assert!(res.reps()[1] > 0.0, "{}", c.label());
        }
    }

    #[test]
    fn calibration_hits_test_time_ballpark() {
        let cfg = EpccConfig::syncbench_default().fast(2);
        let rt = rt(8);
        let inner = calibrate_inner_reps(&rt, &cfg, SyncConstruct::Barrier, 8, 10_000);
        assert!(inner > 1);
        let res = rt.run_region(&region_with_inner(&cfg, SyncConstruct::Barrier, 8, inner), 1).expect("syncbench region completes");
        let rep = res.reps()[1];
        assert!(
            rep > cfg.test_time_us * 0.4 && rep < cfg.test_time_us * 2.5,
            "calibrated rep {rep} µs (target {})",
            cfg.test_time_us
        );
    }

    #[test]
    fn reduction_is_most_expensive_core_sync() {
        // Paper §5.1: reduction is the most time-consuming of the
        // synchronization micro-benchmarks.
        let cfg = EpccConfig::syncbench_default().fast(2);
        let rt = rt(16);
        let inner = 20;
        let mut costs = Vec::new();
        for c in [
            SyncConstruct::Barrier,
            SyncConstruct::Single,
            SyncConstruct::Atomic,
            SyncConstruct::Reduction,
        ] {
            let res = rt.run_region(&region_with_inner(&cfg, c, 16, inner), 1).expect("syncbench region completes");
            costs.push((c.label(), overhead_us(&cfg, c, res.reps()[1], inner)));
        }
        let red = costs.iter().find(|(l, _)| *l == "reduction").unwrap().1;
        for (l, c) in &costs {
            assert!(red >= *c, "reduction {red} vs {l} {c}");
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = SyncConstruct::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 10);
    }

    #[test]
    fn overhead_subtracts_reference() {
        let cfg = EpccConfig::syncbench_default();
        let oh = overhead_us(&cfg, SyncConstruct::Barrier, 100.0, 10);
        assert!((oh - (10.0 - 0.1)).abs() < 1e-9);
    }
}
