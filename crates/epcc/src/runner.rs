//! The multi-run protocol: execute a region `n_runs` times and collect a
//! [`RunSet`] for variability analysis.

use ompvar_core::RunSet;
use ompvar_rt::region::RegionSpec;
use ompvar_rt::runner::RegionRunner;

/// Run `region` `n_runs` times. Each run `i` uses seed
/// `seed_base + i` (simulated backend), mirroring the paper's protocol of
/// 10 independent job submissions per configuration.
pub fn run_many<R: RegionRunner>(
    rt: &R,
    region: &RegionSpec,
    n_runs: usize,
    seed_base: u64,
) -> RunSet {
    let mut runs = Vec::with_capacity(n_runs);
    for i in 0..n_runs {
        let res = rt
            .run_region(region, seed_base + i as u64)
            .unwrap_or_else(|e| panic!("run {i}/{n_runs} on {} failed: {e}", rt.backend_name()));
        runs.push(res.reps().to_vec());
    }
    RunSet::new(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompvar_rt::config::RtConfig;
    use ompvar_rt::region::Construct;
    use ompvar_rt::simrt::SimRuntime;
    use ompvar_sim::params::SimParams;
    use ompvar_topology::{MachineSpec, Places};

    #[test]
    fn collects_one_entry_per_run() {
        let rt = SimRuntime::new(
            MachineSpec::vera(),
            RtConfig::pinned_close(Places::Threads(Some(4))),
        )
        .with_params(SimParams::sterile());
        let region = RegionSpec::measured(4, 3, 5, vec![Construct::Barrier]);
        let rs = run_many(&rt, &region, 4, 100);
        assert_eq!(rs.n_runs(), 4);
        assert!(rs.runs.iter().all(|r| r.reps_us.len() == 3));
    }

    #[test]
    fn noisy_runs_differ_across_seeds() {
        let rt = SimRuntime::new(
            MachineSpec::vera(),
            RtConfig::pinned_close(Places::Threads(Some(4))),
        );
        // Long enough (~100 ms per run) that noise arrivals and frequency
        // pulses are near-certain to land inside the measured window.
        let region = RegionSpec::measured(
            4,
            10,
            20,
            vec![Construct::DelayUs(500.0), Construct::Barrier],
        );
        let rs = run_many(&rt, &region, 3, 7);
        let means = rs.run_means();
        assert!(means.windows(2).any(|w| w[0] != w[1]));
    }
}
