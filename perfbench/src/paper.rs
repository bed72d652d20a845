//! `paper_figures`: the paper's simulation experiments in fast mode,
//! dispatched through `run_campaign` on two workers the way
//! `ompvar-repro --fast --jobs 2 table2 fig1 … chunks` runs them: a
//! supervised attempt per experiment with retries, CSVs written as each
//! experiment finishes, then the `ompvar-run-report/1` document rendered
//! and written atomically. The CLI's static preflight (analysis of each
//! experiment's region specs, rejecting the experiment before it runs)
//! is input validation, so it happens in set-up here; a rejected
//! experiment still fails its unit inside the executor as in the CLI.
//!
//! Unit: one experiment. It fails when it is quarantined (a panic that
//! outlived its retries, or a preflight rejection) or when its report
//! differs from the same experiment's report in the run's first pass.
//! Fast-mode shape checks depend on the seed, so a failed shape check is
//! counted in `harness.checks_failed`, not as a failed unit.

use crate::metrics::{self, Metrics, SimTally, EXPERIMENTS};
use crate::trace::{self, Span, Tracer};
use crate::util::{fnv, Pace, FNV0};
use crate::workload::{bytes_in, Scratch, Tally, Workload};
use ompvar_bench_epcc::syncbench;
use ompvar_bench_epcc::{run_many, schedbench, EpccConfig};
use ompvar_bench_stream::{kernel_stats, kernels::StreamConfig};
use ompvar_harness::{
    ablation, analyze_exp, chunks, common, fig1, fig2, fig3, fig4, fig5, fig67, table2,
    taskbench_exp, Check, ExpOptions, ExpReport, Platform,
};
use ompvar_obs::json;
use ompvar_rt::region::{RegionError, Schedule};
use ompvar_rt::RtError;
use ompvar_supervisor::{
    atomic_write, attempt_seed, create_shards, run_campaign, Checkpointable, ExecUnit,
    ExecutorConfig, Header, Manifest, Outcome, RetryRecord, SupervisorConfig, UnitError,
    UnitResult,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Executor workers, as `--jobs 2`.
pub const JOBS: usize = 2;

fn run_one(name: &str, opts: &ExpOptions) -> ExpReport {
    match name {
        "table2" => table2::run(opts),
        "fig1" => fig1::run(opts),
        "fig2" => fig2::run(opts),
        "fig3" => fig3::run(opts),
        "fig4" => fig4::run(opts),
        "fig5" => fig5::run(opts),
        "fig6" => fig67::run_fig6(opts),
        "fig7" => fig67::run_fig7(opts),
        "ablation" => ablation::run(opts),
        "taskbench" => taskbench_exp::run(opts),
        "chunks" => chunks::run(opts),
        other => unreachable!("not a paper experiment: {other}"),
    }
}

/// The CLI's static preflight: the first Error-severity finding in the
/// experiment's region specs, if any.
fn preflight(name: &str, opts: &ExpOptions) -> Option<RegionError> {
    analyze_exp::preflight_specs(name, opts)
        .into_iter()
        .find_map(|(_, spec)| {
            ompvar_analyze::analyze(&spec)
                .first_error()
                .and_then(|d| d.cause)
        })
}

/// One supervised attempt, as the CLI makes it: a preflight rejection is
/// a permanent failure, otherwise the experiment runs under
/// `catch_unwind` with the attempt's decorrelated seed.
fn attempt(
    name: &str,
    opts: &ExpOptions,
    rejected: Option<RegionError>,
    n: u32,
) -> Result<ExpReport, UnitError> {
    if let Some(cause) = rejected {
        return Err(UnitError::from_rt(&RtError::InvalidRegion(cause)));
    }
    let opts = ExpOptions {
        seed: attempt_seed(opts.seed, n),
        ..opts.clone()
    };
    catch_unwind(AssertUnwindSafe(|| run_one(name, &opts))).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        UnitError::from_panic(msg)
    })
}

/// The FAIL report the CLI synthesizes for a quarantined experiment.
fn quarantine_report(name: &str, retries: &[RetryRecord]) -> ExpReport {
    let history: Vec<String> = retries
        .iter()
        .map(|r| format!("attempt {}: {}", r.attempt, r.error))
        .collect();
    ExpReport {
        name: name.to_string(),
        tables: Vec::new(),
        checks: vec![Check::new(
            "experiment completes within its retry budget",
            false,
            format!(
                "quarantined after {} attempt(s): {}",
                retries.len(),
                history.join("; ")
            ),
        )],
    }
}

struct Prepared {
    dir: Scratch,
    opts: ExpOptions,
    manifests: Vec<Manifest>,
    /// Preflight verdict per experiment.
    rejected: Vec<Option<RegionError>>,
}

struct PassOut {
    doc: String,
    /// Each experiment's checkpoint payload, in canonical order.
    payloads: Vec<String>,
    quarantined: Vec<String>,
    checks_failed: u64,
    retries: u64,
    steals: u64,
    busy_ns: u128,
    campaign_ns: u128,
    journal_bytes: u64,
}

/// The workload. See the module docs.
pub struct Paper {
    seed: u64,
    experiments: Vec<&'static str>,
    work: PathBuf,
    passes: usize,
    prepared: Option<Prepared>,
    last: Option<PassOut>,
    /// The last pass's output directory, removed by `check` so the
    /// removal stays out of the timed pass.
    spent: Option<Scratch>,
    first: Option<(String, Vec<String>)>,
    sim: SimTally,
    epcc_runs: u64,
    digest: u64,
}

impl Paper {
    /// The experiments at experiment seed `seed`, writing under `work`.
    pub fn new(seed: u64, work: PathBuf) -> Paper {
        Paper {
            seed,
            experiments: EXPERIMENTS.to_vec(),
            work,
            passes: 0,
            prepared: None,
            last: None,
            spent: None,
            first: None,
            sim: SimTally::default(),
            epcc_runs: 0,
            digest: FNV0,
        }
    }

    /// Run only `experiments` (the sensitivity test uses cheap ones).
    #[cfg(test)]
    pub fn with_experiments(mut self, experiments: &[&'static str]) -> Paper {
        self.experiments = experiments.to_vec();
        self
    }

    fn opts(&self) -> ExpOptions {
        ExpOptions {
            fast: true,
            seed: self.seed,
            jobs: JOBS,
            ..ExpOptions::default()
        }
    }
}

impl Workload for Paper {
    fn setup(&mut self, tr: &Arc<Tracer>) -> Result<(), String> {
        self.passes += 1;
        let dir = Scratch::new(&self.work.join(format!("paper-{}", self.passes)))?;
        let opts = ExpOptions {
            out_dir: dir.path().to_path_buf(),
            ..self.opts()
        };
        let header = Header {
            seed: opts.seed,
            fast: true,
            targets: self.experiments.iter().map(|s| s.to_string()).collect(),
        };
        let manifests = tr
            .span("supervisor.create_shards", || {
                create_shards(&opts.checkpoint_dir(), "manifest", &header, JOBS)
            })
            .map_err(|e| format!("create_shards: {e}"))?;
        let rejected = tr.span("analyze.preflight", || {
            self.experiments
                .iter()
                .map(|name| preflight(name, &opts))
                .collect()
        });
        self.prepared = Some(Prepared {
            dir,
            opts,
            manifests,
            rejected,
        });
        Ok(())
    }

    fn pass(&mut self, tr: &Arc<Tracer>, pace: Pace) -> Result<(), String> {
        let p = self.prepared.take().ok_or("pass without setup")?;
        let units: Vec<ExecUnit<ExpReport>> = self
            .experiments
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let (name, opts, tr) = (name.to_string(), p.opts.clone(), Arc::clone(tr));
                let rejected = p.rejected[i];
                ExecUnit::new(name.clone(), move |n| {
                    let t = Instant::now();
                    let span = format!("harness.exp.{name}");
                    let out = tr.unit_span(&span, Some(i as u64 + 1), || {
                        attempt(&name, &opts, rejected, n)
                    });
                    pace.after(t);
                    out
                })
            })
            .collect();
        let cfg = ExecutorConfig {
            jobs: JOBS,
            unit_timeout: None,
            supervisor: SupervisorConfig {
                seed: p.opts.seed,
                max_retries: 2,
                sleep: true,
                ..SupervisorConfig::default()
            },
            chaos: None,
        };
        // As the CLI streams it: each finished experiment rendered and its
        // CSVs written (the rendering goes nowhere here).
        let out_dir = p.opts.out_dir.clone();
        let progress = |r: &UnitResult<ExpReport>| {
            if let Outcome::Completed { value, .. } = &r.outcome {
                std::hint::black_box(value.render());
                if let Err(e) = value.write_csvs(&out_dir) {
                    eprintln!("paper_figures: could not write CSVs: {e}");
                }
            }
        };
        let t = Instant::now();
        let run = tr.span("supervisor.run_campaign", || {
            tr.anchor_here();
            let r = run_campaign(&cfg, &units, Some(p.manifests), &[], None, Some(&progress));
            tr.clear_anchor();
            r
        });
        let campaign_ns = t.elapsed().as_nanos();

        let mut reports = Vec::new();
        let (mut quarantined, mut retries) = (Vec::new(), 0);
        for r in &run.results {
            match &r.outcome {
                Outcome::Completed {
                    value, retries: rs, ..
                } => {
                    retries += rs.len() as u64;
                    reports.push(value.clone());
                }
                Outcome::Quarantined { retries: rs, .. } => {
                    retries += rs.len() as u64;
                    quarantined.push(r.name.clone());
                    reports.push(quarantine_report(&r.name, rs));
                }
            }
        }
        let mut notes = run.recovery_notes.clone();
        notes.sort_unstable();
        let doc = tr.span("harness.render", || {
            common::run_report_json(
                p.opts.seed,
                true,
                false,
                run.leaked_threads,
                &notes,
                &reports,
            )
        });
        tr.span("supervisor.atomic_write", || {
            atomic_write(&p.dir.path().join("report.json"), doc.as_bytes())
        })
        .map_err(|e| format!("atomic_write: {e}"))?;
        self.last = Some(PassOut {
            payloads: reports.iter().map(|r| json::write(&r.to_ckpt())).collect(),
            checks_failed: reports
                .iter()
                .flat_map(|r| &r.checks)
                .filter(|c| !c.passed)
                .count() as u64,
            doc,
            quarantined,
            retries,
            steals: run.steals as u64,
            busy_ns: run.results.iter().map(|r| r.duration.as_nanos()).sum(),
            campaign_ns,
            journal_bytes: 0,
        });
        self.spent = Some(p.dir);
        Ok(())
    }

    fn check(&mut self, _tr: &Arc<Tracer>) -> Tally {
        let out = self.last.as_mut().expect("check follows a pass");
        if let Some(dir) = self.spent.take() {
            out.journal_bytes = bytes_in(&dir.path().join("checkpoint"), "manifest");
        }
        let (first_doc, first_payloads) = self
            .first
            .get_or_insert_with(|| (out.doc.clone(), out.payloads.clone()));
        if self.digest == FNV0 {
            self.digest = fnv(FNV0, first_doc.as_bytes());
        }
        let mut failed = 0;
        for (i, name) in self.experiments.iter().enumerate() {
            let q = out.quarantined.iter().any(|n| n == name);
            let differs = out.payloads[i] != first_payloads[i];
            if q {
                eprintln!("paper_figures: {name} was quarantined");
            }
            if differs {
                eprintln!("paper_figures: {name} report differs from the first pass");
            }
            failed += u64::from(q || differs);
        }
        if out.doc != *first_doc {
            eprintln!("paper_figures: run report is not byte-identical across passes");
            failed = failed.max(1);
        }
        Tally {
            attempted: self.experiments.len() as u64,
            failed,
        }
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    /// The figure sub-functions on the critical path, then the EPCC,
    /// STREAM and run-set statistics layers on fig5's configurations.
    fn probe(&mut self, tr: &Arc<Tracer>) {
        let opts = self.opts();
        tr.span("harness.fig5.schedbench_runs", || {
            fig5::schedbench_runs(&opts)
        });
        tr.span("harness.fig5.syncbench_cvs", || fig5::syncbench_cvs(&opts));
        tr.span("harness.fig5.stream_envelopes", || {
            fig5::stream_envelopes(&opts)
        });
        for bench in [fig3::Bench::Sched, fig3::Bench::Sync, fig3::Bench::Stream] {
            tr.span("harness.fig3.envelope", || {
                fig3::envelope(&opts, Platform::Vera, bench, 16)
            });
        }

        // fig5's syncbench half for its SMT-sensitive constructs: the
        // calibration, the run set, and its statistics, plus one direct
        // run per configuration for the engine counters.
        let n = 32;
        let rt = Platform::Dardel.pinned_rt(n);
        let cfg = EpccConfig::syncbench_default().fast(60);
        let cap = fig1::inner_cap(&opts, n);
        let mut regions = Vec::new();
        for c in fig5::SENSITIVE {
            let inner = tr.span("epcc.calibrate_inner_reps", || {
                syncbench::calibrate_inner_reps(&rt, &cfg, c, n, cap)
            });
            regions.push((rt.clone(), syncbench::region_with_inner(&cfg, c, n, inner)));
        }
        let mut sched = EpccConfig::schedbench_default().fast(8);
        sched.iters_per_thr = 256;
        let rt64 = Platform::Dardel.pinned_rt(64);
        regions.push((
            rt64.clone(),
            schedbench::region(&sched, Schedule::Static { chunk: 1 }, 64),
        ));
        for (rt, region) in &regions {
            let rs = tr.span("epcc.run_many", || {
                run_many(rt, region, opts.n_runs(), opts.seed)
            });
            self.epcc_runs += rs.n_runs() as u64;
            tr.span("core.stats", || {
                std::hint::black_box((rs.run_cvs(), rs.across_runs(), rs.pooled(), rs.run_spread()))
            });
            match metrics::run_traced(tr, rt, region, opts.seed) {
                Ok(res) => self.sim.record(&res),
                Err(_) => self.sim.unexpected_errors += 1,
            }
        }
        let stream_cfg = StreamConfig {
            iterations: opts.stream_iters(),
            ..StreamConfig::default()
        };
        let stream = ompvar_bench_stream::region(&stream_cfg, 64);
        for i in 0..opts.n_runs() as u64 {
            tr.span("stream.run", || {
                match metrics::run_traced(tr, &rt64, &stream, opts.seed ^ i) {
                    Ok(res) => {
                        std::hint::black_box(kernel_stats(&res));
                        self.sim.record(&res);
                    }
                    Err(_) => self.sim.unexpected_errors += 1,
                }
            });
        }
    }

    fn layers(&self, spans: &[Span], m: &mut Metrics) {
        let out = self.last.as_ref().expect("layers follow a pass");
        self.sim.write(spans, m);
        for e in EXPERIMENTS {
            m.set(
                format!("harness.exp_ms.{e}"),
                trace::total_ms(spans, &format!("harness.exp.{e}")),
            );
        }
        m.set(
            "harness.render_ms",
            trace::total_ms(spans, "harness.render"),
        );
        m.set(
            "harness.report_write_ms",
            trace::total_ms(spans, "supervisor.atomic_write"),
        );
        m.set("harness.checks_failed", out.checks_failed as f64);
        m.set(
            "epcc.calibrate_ms",
            trace::total_ms(spans, "epcc.calibrate_inner_reps"),
        );
        m.set("epcc.run_many_ms", trace::total_ms(spans, "epcc.run_many"));
        m.set("epcc.runs", self.epcc_runs as f64);
        m.set("stream.run_ms", trace::total_ms(spans, "stream.run"));
        m.set("core.stats_ms", trace::total_ms(spans, "core.stats"));
        let units = self.experiments.len() as f64;
        m.set("supervisor.units", units);
        let idle = (JOBS as u128 * out.campaign_ns).saturating_sub(out.busy_ns);
        m.set("supervisor.idle_ms", idle as f64 / 1e6);
        m.set(
            "supervisor.self_ms",
            trace::self_total_ms(spans, "supervisor.run_campaign"),
        );
        m.set("supervisor.journal_bytes", out.journal_bytes as f64);
        m.set(
            "supervisor.journal_bytes_per_unit",
            out.journal_bytes as f64 / units,
        );
        m.set(
            "supervisor.create_shards_ms",
            trace::total_ms(spans, "supervisor.create_shards"),
        );
        m.set("supervisor.steals", out.steals as f64);
        m.set("supervisor.retries", out.retries as f64);
        m.set("supervisor.quarantined", out.quarantined.len() as f64);
    }
}
