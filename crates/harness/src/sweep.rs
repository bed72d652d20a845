//! The one path every paper experiment's simulated runs take.
//!
//! The paper's protocol is *R independent runs per configuration*; in
//! simulation each run is a pure function of (runtime, region, seed). A
//! [`Sweep`] is a list of cells — a `&SimRuntime`, a region, a run count
//! and a base seed — flattened into (cell, run) items that run across
//! `--jobs` threads through [`ompvar_supervisor::par_map`].
//!
//! Determinism contract: run `i` of a cell uses seed `seed_base + i`;
//! every item's result lands in the slot of its index; results come
//! back per cell in run order, so an experiment folding them in that
//! order renders byte-identically at any `--jobs`. When runs fail, the
//! lowest-index failure's panic is the one re-raised, at any `--jobs`.
//!
//! Only the simulator is accepted: native runs measure the host, and
//! concurrent native runs would perturb each other's timings.

use crate::common::ExpOptions;
use ompvar_bench_epcc::syncbench::{self, SyncConstruct};
use ompvar_bench_epcc::EpccConfig;
use ompvar_core::RunSet;
use ompvar_rt::config::RegionResult;
use ompvar_rt::region::RegionSpec;
use ompvar_rt::simrt::SimRuntime;
use ompvar_supervisor::{par_map, resolve_jobs};

struct Cell<'a> {
    rt: &'a SimRuntime,
    region: RegionSpec,
    runs: usize,
    seed_base: u64,
}

/// A batch of independent simulated runs. See the module docs.
pub struct Sweep<'a> {
    jobs: usize,
    cells: Vec<Cell<'a>>,
}

impl<'a> Sweep<'a> {
    /// An empty sweep that will run on `opts.jobs` threads.
    pub fn new(opts: &ExpOptions) -> Sweep<'a> {
        Sweep {
            jobs: resolve_jobs(opts.jobs),
            cells: Vec::new(),
        }
    }

    /// Add a cell: `runs` runs of `region` on `rt`, run `i` seeded
    /// `seed_base + i`. Cells come back in the order they were added.
    pub fn push(&mut self, rt: &'a SimRuntime, region: RegionSpec, runs: usize, seed_base: u64) {
        self.cells.push(Cell {
            rt,
            region,
            runs,
            seed_base,
        });
    }

    /// Execute every run and return, per cell, `keep(cell, &result)` of
    /// each run in run order. `keep` extracts what the experiment folds;
    /// the full [`RegionResult`] is dropped as soon as it returns.
    ///
    /// # Panics
    ///
    /// When a run fails, with the lowest-index failing run's message.
    pub fn run<R: Send>(self, keep: impl Fn(usize, &RegionResult) -> R + Sync) -> Vec<Vec<R>> {
        let items: Vec<(usize, usize)> = self
            .cells
            .iter()
            .enumerate()
            .flat_map(|(c, cell)| (0..cell.runs).map(move |i| (c, i)))
            .collect();
        let mut flat = par_map(items.len(), self.jobs, |k| {
            let (c, i) = items[k];
            let cell = &self.cells[c];
            let res = cell
                .rt
                .run(&cell.region, cell.seed_base + i as u64)
                .unwrap_or_else(|e| panic!("run {i}/{} on sim failed: {e}", cell.runs));
            keep(c, &res)
        })
        .into_iter();
        self.cells
            .iter()
            .map(|cell| flat.by_ref().take(cell.runs).collect())
            .collect()
    }

    /// Execute every run keeping its repetition times: one [`RunSet`]
    /// per cell.
    pub fn run_sets(self) -> Vec<RunSet> {
        self.run(|_, res| res.reps().to_vec())
            .into_iter()
            .map(RunSet::new)
            .collect()
    }
}

/// EPCC calibration of syncbench inner repetitions for several
/// configurations as one sweep of probe runs: each `(rt, construct,
/// n_threads, cap)` gives what [`syncbench::calibrate_inner_reps`]
/// would return for it.
pub fn calibrate(
    opts: &ExpOptions,
    cfg: &EpccConfig,
    probes: &[(&SimRuntime, SyncConstruct, usize, u32)],
) -> Vec<u32> {
    let mut sweep = Sweep::new(opts);
    for &(rt, construct, n, _) in probes {
        sweep.push(
            rt,
            syncbench::calibration_probe(cfg, construct, n),
            1,
            syncbench::CALIBRATION_SEED,
        );
    }
    sweep
        .run(|c, res| syncbench::inner_reps_from_probe(cfg, res.reps(), probes[c].3))
        .into_iter()
        .map(|runs| runs[0])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Platform;
    use ompvar_bench_epcc::run_many;
    use ompvar_rt::region::Construct;

    fn opts(jobs: usize) -> ExpOptions {
        ExpOptions {
            jobs,
            ..ExpOptions::fast()
        }
    }

    #[test]
    fn cells_match_run_many_at_any_jobs() {
        let a = Platform::Vera.pinned_rt(4);
        let b = Platform::Vera.unbound_rt();
        let region = RegionSpec::measured(4, 3, 5, vec![Construct::Barrier]);
        let want = [run_many(&a, &region, 3, 11), run_many(&b, &region, 2, 40)];
        for jobs in [1, 2, 3] {
            let mut sweep = Sweep::new(&opts(jobs));
            sweep.push(&a, region.clone(), 3, 11);
            sweep.push(&b, region.clone(), 2, 40);
            assert_eq!(sweep.run_sets(), want, "jobs={jobs}");
        }
    }

    #[test]
    fn calibration_matches_the_epcc_method() {
        let cfg = EpccConfig::syncbench_default().fast(4);
        let rt = Platform::Vera.pinned_rt(8);
        let probes = [
            (&rt, SyncConstruct::Barrier, 8, 500),
            (&rt, SyncConstruct::Reduction, 8, 3),
        ];
        let want: Vec<u32> = probes
            .iter()
            .map(|&(rt, c, n, cap)| syncbench::calibrate_inner_reps(rt, &cfg, c, n, cap))
            .collect();
        assert_eq!(calibrate(&opts(2), &cfg, &probes), want);
    }

    /// Reports render byte-identically however many threads the sweeps
    /// fan out over.
    #[test]
    fn reports_are_identical_across_jobs() {
        use crate::{chunks, fig2, fig4, fig67, taskbench_exp, ExpReport};
        type Experiment = fn(&ExpOptions) -> ExpReport;
        let experiments: [(&str, Experiment); 5] = [
            ("fig2", fig2::run),
            ("fig4", fig4::run),
            ("fig6", fig67::run_fig6),
            ("taskbench", taskbench_exp::run),
            ("chunks", chunks::run),
        ];
        for (name, run) in experiments {
            assert_eq!(run(&opts(1)).render(), run(&opts(3)).render(), "{name}");
        }
    }

    #[test]
    fn failing_run_panics_with_the_run_many_message() {
        // A 1 ns virtual-time budget cannot fit the region.
        let rt = Platform::Vera.pinned_rt(4).with_time_limit(1);
        let region = RegionSpec::measured(4, 2, 2, vec![Construct::Barrier]);
        let mut sweep = Sweep::new(&opts(2));
        sweep.push(&rt, region, 2, 1);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sweep.run_sets()))
            .expect_err("the budget is exhausted");
        let msg = err.downcast_ref::<String>().expect("formatted message");
        assert!(msg.starts_with("run 0/2 on sim failed: "), "{msg}");
    }
}
