//! The metric catalogue, the metric map a run prints, and the
//! accumulators the traced pass fills.
//!
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.
//! Which end-to-end metric and workload each per-layer metric should move
//! is written down in `perfbench/METRICS.md`.

use crate::trace::{self, Span};
use crate::util::percentile;
use ompvar_rt::config::RegionResult;
use ompvar_rt::region::RegionSpec;
use ompvar_rt::simrt::SimRuntime;
use ompvar_rt::RtError;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit, better)`.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// The syncbench constructs, in `SyncConstruct::ALL` order, as metric
/// suffixes.
pub const OPS: [&str; 10] = [
    "parallel",
    "for",
    "parallel_for",
    "barrier",
    "single",
    "critical",
    "lock_unlock",
    "ordered",
    "atomic",
    "reduction",
];

/// The schedbench schedules measured per iteration.
pub const ITER_SCHEDULES: [&str; 3] = ["static_1", "dynamic_1", "guided_1"];

/// The paper experiments timed one by one.
pub const EXPERIMENTS: [&str; 11] = [
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "ablation",
    "taskbench",
    "chunks",
];

const FIXED_LAYER: [(&str, &str, &str); 46] = [
    ("sim.events", "count", "lower"),
    ("sim.events_per_run", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.sim_per_host_s", "s/s", "higher"),
    ("sim.ticks", "count", "lower"),
    ("sim.preemptions", "count", "lower"),
    ("sim.migrations", "count", "lower"),
    ("sim.noise_events", "count", "lower"),
    ("sim.freq_transitions", "count", "lower"),
    ("rt.run.calls", "count", "higher"),
    ("rt.run.busy_ms", "ms", "lower"),
    ("rt.run_us.p50", "us", "lower"),
    ("rt.run_us.p99", "us", "lower"),
    ("rt.run.expected_errors", "count", "lower"),
    ("rt.run.unexpected_errors", "count", "lower"),
    ("analyze.calls", "count", "higher"),
    ("analyze.busy_ms", "ms", "lower"),
    ("analyze.diags", "count", "lower"),
    ("qcheck.generate_ms", "ms", "lower"),
    ("epcc.calibrate_ms", "ms", "lower"),
    ("epcc.run_many_ms", "ms", "lower"),
    ("epcc.runs", "count", "higher"),
    ("stream.run_ms", "ms", "lower"),
    ("core.stats_ms", "ms", "lower"),
    ("obs.fold_ms", "ms", "lower"),
    ("obs.json_render_ms", "ms", "lower"),
    ("obs.trace_spans", "count", "lower"),
    ("supervisor.units", "count", "higher"),
    ("supervisor.unit_us.p50", "us", "lower"),
    ("supervisor.unit_us.p99", "us", "lower"),
    ("supervisor.idle_ms", "ms", "lower"),
    ("supervisor.self_ms", "ms", "lower"),
    ("supervisor.journal_bytes", "B", "lower"),
    ("supervisor.journal_bytes_per_unit", "B", "lower"),
    ("supervisor.create_shards_ms", "ms", "lower"),
    ("supervisor.resume_shards_ms", "ms", "lower"),
    ("supervisor.replayed_units", "count", "higher"),
    ("supervisor.rerun_units", "count", "lower"),
    ("supervisor.steals", "count", "lower"),
    ("supervisor.retries", "count", "lower"),
    ("supervisor.quarantined", "count", "lower"),
    ("harness.render_ms", "ms", "lower"),
    ("harness.report_write_ms", "ms", "lower"),
    ("harness.checks_failed", "count", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
    ("bench.failed_ratio", "ratio", "lower"),
];

/// Every per-layer metric, in print order: `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &str, &str)> = FIXED_LAYER
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect();
    let at = 9; // construct counts follow the engine counters
    let mut counts: Vec<(String, &str, &str)> = OPS
        .iter()
        .map(|op| (format!("sim.events_per_op.{op}"), "count", "lower"))
        .collect();
    counts.extend(
        ITER_SCHEDULES
            .iter()
            .map(|s| (format!("sim.events_per_iter.{s}"), "count", "lower")),
    );
    v.splice(at..at, counts);
    let harness = v
        .iter()
        .position(|(n, _, _)| n == "harness.render_ms")
        .expect("listed");
    let exps: Vec<(String, &str, &str)> = EXPERIMENTS
        .iter()
        .map(|e| (format!("harness.exp_ms.{e}"), "ms", "lower"))
        .collect();
    v.splice(harness..harness, exps);
    v
}

/// Counts that are a pure function of the seed and the code: two sets of
/// runs at one seed must agree on them exactly (see `compare`).
pub fn is_deterministic(name: &str) -> bool {
    name == "sim.events"
        || name.starts_with("sim.events_per_op.")
        || name.starts_with("sim.events_per_iter.")
        || name == "analyze.diags"
        || name == "obs.trace_spans"
        || name == "supervisor.journal_bytes"
}

/// Metric values by name (units come from the catalogue).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    /// Set `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    /// Value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Engine and runtime totals over the `SimRuntime::run` calls the traced
/// pass makes, read from `RegionResult.counters`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimTally {
    /// Successful runs (the ones that report counters).
    pub runs: u64,
    /// Runs that returned an error the workload expects.
    pub expected_errors: u64,
    /// Runs that returned an error it does not.
    pub unexpected_errors: u64,
    /// Engine events.
    pub events: u64,
    /// Timer ticks.
    pub ticks: u64,
    /// Noise preemptions.
    pub preemptions: u64,
    /// Task migrations.
    pub migrations: u64,
    /// Noise arrivals.
    pub noise_events: u64,
    /// Frequency retargets.
    pub freq_transitions: u64,
    /// Simulated region wall time, µs.
    pub sim_us: f64,
    /// Trace spans in the returned timelines.
    pub trace_spans: u64,
}

impl SimTally {
    /// Fold one successful run.
    pub fn record(&mut self, res: &RegionResult) {
        self.runs += 1;
        self.sim_us += res.wall_us;
        self.trace_spans += res.trace.as_ref().map_or(0, |t| t.len() as u64);
        if let Some(c) = res.counters {
            self.events += c.events;
            self.ticks += c.ticks;
            self.preemptions += c.preemptions;
            self.migrations += c.migrations;
            self.noise_events += c.noise_events;
            self.freq_transitions += c.freq_transitions;
        }
    }

    /// The `sim.*` and `rt.*` metrics, with host time taken from the
    /// `rt.run` spans.
    pub fn write(&self, spans: &[Span], m: &mut Metrics) {
        let run_us: Vec<f64> = trace::durations_ms(spans, RT_RUN)
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        let host_s = run_us.iter().sum::<f64>() / 1e6;
        m.set("sim.events", self.events as f64);
        m.set(
            "sim.events_per_run",
            self.events as f64 / self.runs.max(1) as f64,
        );
        m.set(
            "sim.events_per_s",
            if host_s > 0.0 {
                self.events as f64 / host_s
            } else {
                0.0
            },
        );
        m.set(
            "sim.sim_per_host_s",
            if host_s > 0.0 {
                self.sim_us / 1e6 / host_s
            } else {
                0.0
            },
        );
        m.set("sim.ticks", self.ticks as f64);
        m.set("sim.preemptions", self.preemptions as f64);
        m.set("sim.migrations", self.migrations as f64);
        m.set("sim.noise_events", self.noise_events as f64);
        m.set("sim.freq_transitions", self.freq_transitions as f64);
        m.set("rt.run.calls", run_us.len() as f64);
        m.set("rt.run.busy_ms", host_s * 1e3);
        if !run_us.is_empty() {
            m.set("rt.run_us.p50", percentile(&run_us, 0.50));
            m.set("rt.run_us.p99", percentile(&run_us, 0.99));
        }
        m.set("rt.run.expected_errors", self.expected_errors as f64);
        m.set("rt.run.unexpected_errors", self.unexpected_errors as f64);
        m.set("obs.trace_spans", self.trace_spans as f64);
    }
}

/// Span name of one `SimRuntime::run` call.
pub const RT_RUN: &str = "rt.run";

/// `rt.run(region, seed)` inside an [`RT_RUN`] span.
pub fn run_traced(
    tr: &crate::trace::Tracer,
    rt: &SimRuntime,
    region: &RegionSpec,
    seed: u64,
) -> Result<RegionResult, RtError> {
    tr.span(RT_RUN, || rt.run(region, seed))
}
