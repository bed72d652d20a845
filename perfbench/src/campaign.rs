//! `campaign_fresh` and `campaign_resume`: a variability-shaped campaign
//! of thousands of deliberately tiny units.
//!
//! Each unit is one short attributed run of a 4-thread Vera region (a
//! `dynamic,1` schedbench loop or a syncbench barrier) under one of four
//! fault plans: sterile, a noise storm, a frequency cap, or a rank-1
//! stall. Units run through `create_shards` + `run_campaign` on two
//! workers, are journaled, and are folded in canonical order into
//! `QuantileSketch`/`VarAccum` per cell; the fold is rendered as JSON and
//! written with `atomic_write`. The engine does little per unit, so
//! dispatch, manifest appends, folding and rendering carry the pass.
//!
//! The resume variant sets up by running the fresh campaign to a
//! complete journal; its timed pass is `resume_shards`, the replay of
//! every unit, the fold and the render.
//!
//! Unit: one campaign unit. It fails when it is quarantined or (on
//! resume) re-run instead of replayed; every unit of a pass fails when
//! the pass's rendered fold differs from the reference rendering (the
//! first pass's for fresh, the fresh campaign's for resume).

use crate::metrics::{self, Metrics, SimTally};
use crate::trace::{self, Span, Tracer};
use crate::util::{fnv, percentile, Pace, FNV0};
use crate::workload::{bytes_in, Scratch, Tally, Workload};
use ompvar_bench_epcc::{schedbench, syncbench, EpccConfig, SyncConstruct};
use ompvar_harness::Platform;
use ompvar_obs::json::{self, Value};
use ompvar_obs::{AttrSource, QuantileSketch, VarAccum, N_SOURCES};
use ompvar_rt::region::{RegionSpec, Schedule};
use ompvar_rt::simrt::SimRuntime;
use ompvar_sim::fault::FaultPlan;
use ompvar_sim::params::SimParams;
use ompvar_sim::time::{SEC, US};
use ompvar_supervisor::{
    atomic_write, attempt_seed, create_shards, name_seed, resume_shards, run_campaign, CampaignRun,
    Checkpointable, Entry, ExecUnit, ExecutorConfig, Header, Manifest, Outcome, SupervisorConfig,
    UnitError,
};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Executor workers (the benchmark machine has two cores).
pub const JOBS: usize = 2;
const THREADS: usize = 4;
/// Region shapes.
const SHAPES: [&str; 2] = ["sched", "sync"];
/// Fault plans.
const CONFIGS: [&str; 4] = ["sterile", "noise", "freq_cap", "stall"];
/// Faults fire early: the regions are only tens of µs long.
const AT: ompvar_sim::time::Time = 2 * US;
/// Journal base name.
const BASE: &str = "campaign";

fn region(shape: &str) -> RegionSpec {
    match shape {
        "sched" => {
            let mut cfg = EpccConfig::schedbench_default().fast(2);
            cfg.iters_per_thr = 8;
            schedbench::region(&cfg, Schedule::Dynamic { chunk: 1 }, THREADS)
        }
        _ => syncbench::region_with_inner(
            &EpccConfig::syncbench_default().fast(2),
            SyncConstruct::Barrier,
            THREADS,
            4,
        ),
    }
}

fn plan(config: &str) -> FaultPlan {
    match config {
        "noise" => FaultPlan::new().noise_storm(AT, SEC, 3 * US, 2 * US, 0.3),
        "freq_cap" => FaultPlan::new().freq_cap(AT, None, 1.2, None),
        "stall" => FaultPlan::new().task_stall(AT, Some(1), 5e3),
        _ => FaultPlan::new(),
    }
}

fn runtime(config: &str) -> SimRuntime {
    Platform::Vera
        .pinned_rt(THREADS)
        .with_params(SimParams::sterile())
        .with_faults(plan(config))
        .with_time_limit(SEC)
        .with_attribution(true)
}

/// One attributed run, as journaled.
#[derive(Debug, Clone, PartialEq)]
struct CampRun {
    wall_ns: u64,
    rep_ns: Vec<u64>,
    useful_ns: f64,
    by_source: [f64; N_SOURCES],
    conserved: bool,
}

impl Checkpointable for CampRun {
    fn to_ckpt(&self) -> Value {
        let nums = |xs: &mut dyn Iterator<Item = f64>| Value::Arr(xs.map(Value::Num).collect());
        Value::Obj(vec![
            ("wall_ns".into(), Value::Num(self.wall_ns as f64)),
            (
                "rep_ns".into(),
                nums(&mut self.rep_ns.iter().map(|&r| r as f64)),
            ),
            ("useful_ns".into(), Value::Num(self.useful_ns)),
            (
                "by_source".into(),
                nums(&mut self.by_source.iter().copied()),
            ),
            ("conserved".into(), Value::Bool(self.conserved)),
        ])
    }

    fn from_ckpt(v: &Value) -> Option<CampRun> {
        let nums =
            |v: &Value| -> Option<Vec<f64>> { v.as_arr()?.iter().map(Value::as_f64).collect() };
        let by_source: [f64; N_SOURCES] = nums(v.get("by_source")?)?.try_into().ok()?;
        Some(CampRun {
            wall_ns: v.get("wall_ns")?.as_f64()? as u64,
            rep_ns: nums(v.get("rep_ns")?)?
                .into_iter()
                .map(|x| x as u64)
                .collect(),
            useful_ns: v.get("useful_ns")?.as_f64()?,
            by_source,
            conserved: v.get("conserved")?.as_bool()?,
        })
    }
}

/// One attributed run; `sim` (traced pass only) tallies its counters.
fn measure(
    rt: &SimRuntime,
    region: &RegionSpec,
    seed: u64,
    tr: &Tracer,
    sim: Option<&Mutex<SimTally>>,
) -> Result<CampRun, UnitError> {
    let res = metrics::run_traced(tr, rt, region, seed).map_err(|e| UnitError::from_rt(&e))?;
    if let Some(sim) = sim {
        sim.lock().expect("tally lock poisoned").record(&res);
    }
    let attr = res
        .attribution
        .as_ref()
        .expect("attributed run returns a ledger");
    let mut by_source = [0.0; N_SOURCES];
    for (i, &s) in AttrSource::ALL.iter().enumerate() {
        by_source[i] = attr.total(s);
    }
    Ok(CampRun {
        wall_ns: (res.wall_us * 1e3).round() as u64,
        rep_ns: res
            .reps()
            .iter()
            .map(|&us| (us * 1e3).round() as u64)
            .collect(),
        useful_ns: attr.useful_total(),
        by_source,
        conserved: attr.check_conservation(res.wall_us * 1e3, 1e-6).is_ok(),
    })
}

/// Streaming per-cell aggregate.
struct Cell {
    name: String,
    wall: VarAccum,
    reps: QuantileSketch,
    useful_ns: f64,
    by_source: [f64; N_SOURCES],
    runs: u64,
    conserved: bool,
}

impl Cell {
    fn new(name: &str) -> Cell {
        Cell {
            name: name.to_string(),
            wall: VarAccum::new(),
            reps: QuantileSketch::new(),
            useful_ns: 0.0,
            by_source: [0.0; N_SOURCES],
            runs: 0,
            conserved: true,
        }
    }

    fn fold(&mut self, r: &CampRun) {
        self.wall.record(r.wall_ns);
        let mut s = QuantileSketch::new();
        for &x in &r.rep_ns {
            s.record(x);
        }
        self.reps.merge(&s);
        self.useful_ns += r.useful_ns;
        for (acc, x) in self.by_source.iter_mut().zip(r.by_source) {
            *acc += x;
        }
        self.runs += 1;
        self.conserved &= r.conserved;
    }

    fn to_value(&self) -> Value {
        let q = |p: f64| Value::Num(self.reps.quantile(p).unwrap_or(0) as f64);
        let total: f64 = self.useful_ns + self.by_source.iter().sum::<f64>();
        let shares = AttrSource::ALL
            .iter()
            .map(|s| {
                (
                    s.name().to_string(),
                    Value::Num(self.by_source[s.index()] / total),
                )
            })
            .collect();
        Value::Obj(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("runs".into(), Value::Num(self.runs as f64)),
            (
                "wall_ns".into(),
                Value::Obj(vec![
                    ("mean".into(), Value::Num(self.wall.mean())),
                    ("cov".into(), Value::Num(self.wall.cov())),
                    (
                        "min".into(),
                        Value::Num(self.wall.min().unwrap_or(0) as f64),
                    ),
                    (
                        "max".into(),
                        Value::Num(self.wall.max().unwrap_or(0) as f64),
                    ),
                ]),
            ),
            (
                "rep_ns".into(),
                Value::Obj(vec![("p50".into(), q(0.5)), ("p99".into(), q(0.99))]),
            ),
            ("useful_share".into(), Value::Num(self.useful_ns / total)),
            ("shares".into(), Value::Obj(shares)),
            ("conserved".into(), Value::Bool(self.conserved)),
        ])
    }
}

struct Prepared {
    dir: Scratch,
    header: Header,
    manifests: Option<Vec<Manifest>>,
    /// Resume only: the fresh campaign's rendering of the same journal.
    fresh_doc: Option<String>,
    runtimes: Arc<Vec<SimRuntime>>,
    regions: Arc<Vec<RegionSpec>>,
}

/// What one pass leaves for `check` and `layers`.
struct PassOut {
    doc: String,
    units: u64,
    quarantined: u64,
    replayed: u64,
    retries: u64,
    steals: u64,
    busy_ns: u128,
    campaign_ns: u128,
    journal_bytes: u64,
    reference: Option<String>,
}

/// The workload. See the module docs.
pub struct Campaign {
    base: u64,
    runs_per_cell: usize,
    resume: bool,
    work: PathBuf,
    passes: usize,
    prepared: Option<Prepared>,
    last: Option<PassOut>,
    /// The last pass's journal directory, removed by `check` so the
    /// removal stays out of the timed pass.
    spent: Option<Scratch>,
    first_doc: Option<String>,
    sim: Arc<Mutex<SimTally>>,
    digest: u64,
}

impl Campaign {
    /// A campaign of `runs_per_cell` units per cell drawn from stream
    /// `base`, fresh or resumed, journaling under `work`.
    pub fn new(base: u64, runs_per_cell: usize, resume: bool, work: PathBuf) -> Campaign {
        Campaign {
            base,
            runs_per_cell,
            resume,
            work,
            passes: 0,
            prepared: None,
            last: None,
            spent: None,
            first_doc: None,
            sim: Arc::new(Mutex::new(SimTally::default())),
            digest: FNV0,
        }
    }

    fn cells() -> Vec<String> {
        SHAPES
            .iter()
            .flat_map(|s| CONFIGS.iter().map(move |c| format!("{s}/{c}")))
            .collect()
    }

    fn unit_names(&self) -> Vec<String> {
        Self::cells()
            .iter()
            .flat_map(|c| (0..self.runs_per_cell).map(move |i| format!("{c}/{i}")))
            .collect()
    }

    fn prepare(&mut self, tr: &Tracer) -> Result<Prepared, String> {
        self.passes += 1;
        let dir = Scratch::new(&self.work.join(format!("campaign-{}", self.passes)))?;
        // The journal stores the seed as a JSON number: keep it exact in an f64.
        let header = Header {
            seed: self.base >> 11,
            fast: true,
            targets: self.unit_names(),
        };
        let manifests = tr
            .span("supervisor.create_shards", || {
                create_shards(dir.path(), BASE, &header, JOBS)
            })
            .map_err(|e| format!("create_shards: {e}"))?;
        Ok(Prepared {
            dir,
            header,
            manifests: Some(manifests),
            fresh_doc: None,
            runtimes: Arc::new(CONFIGS.iter().map(|c| runtime(c)).collect()),
            regions: Arc::new(SHAPES.iter().map(|s| region(s)).collect()),
        })
    }

    /// Dispatch, fold, render and write one campaign over `p`.
    fn execute(
        &self,
        p: &mut Prepared,
        replay: &[Entry],
        tr: &Arc<Tracer>,
    ) -> Result<PassOut, String> {
        let names = self.unit_names();
        let per_cell = self.runs_per_cell;
        let units: Vec<ExecUnit<CampRun>> = names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let (name, base) = (name.clone(), self.base);
                let (runtimes, regions) = (Arc::clone(&p.runtimes), Arc::clone(&p.regions));
                let (tr, sim) = (Arc::clone(tr), Arc::clone(&self.sim));
                let cell = i / per_cell;
                ExecUnit::new(name.clone(), move |attempt| {
                    let seed = attempt_seed(base ^ name_seed(&name), attempt);
                    let (rt, region) = (
                        &runtimes[cell % CONFIGS.len()],
                        &regions[cell / CONFIGS.len()],
                    );
                    let sim = tr.enabled().then_some(&*sim);
                    tr.unit_span("supervisor.unit", Some(i as u64 + 1), || {
                        measure(rt, region, seed, &tr, sim)
                    })
                })
            })
            .collect();
        let cfg = ExecutorConfig {
            jobs: JOBS,
            unit_timeout: None,
            supervisor: SupervisorConfig {
                seed: self.base,
                max_retries: 2,
                sleep: false,
                ..SupervisorConfig::default()
            },
            chaos: None,
        };
        let t = Instant::now();
        let run: CampaignRun<CampRun> = tr.span("supervisor.run_campaign", || {
            tr.anchor_here();
            let r = run_campaign(&cfg, &units, p.manifests.take(), replay, None, None);
            tr.clear_anchor();
            r
        });
        let campaign_ns = t.elapsed().as_nanos();

        let mut cells: Vec<Cell> = Self::cells().iter().map(|n| Cell::new(n)).collect();
        let (mut quarantined, mut replayed, mut retries) = (0, 0, 0);
        tr.span("obs.fold", || {
            for r in &run.results {
                replayed += u64::from(r.outcome.from_checkpoint());
                match &r.outcome {
                    Outcome::Completed {
                        value, retries: rs, ..
                    } => {
                        retries += rs.len() as u64;
                        cells[r.index / per_cell].fold(value);
                    }
                    Outcome::Quarantined { retries: rs, .. } => {
                        retries += rs.len() as u64;
                        quarantined += 1;
                        eprintln!("campaign: unit {} quarantined: {rs:?}", r.name);
                    }
                }
            }
        });
        let doc = tr.span("obs.json_render", || {
            let mut s = json::write(&Value::Obj(vec![
                ("schema".into(), Value::Str("perfbench-campaign/1".into())),
                ("seed".into(), Value::Num(self.base as f64)),
                (
                    "cells".into(),
                    Value::Arr(cells.iter().map(Cell::to_value).collect()),
                ),
            ]));
            s.push('\n');
            s
        });
        tr.span("supervisor.atomic_write", || {
            atomic_write(&p.dir.path().join("campaign.json"), doc.as_bytes())
        })
        .map_err(|e| format!("atomic_write: {e}"))?;
        Ok(PassOut {
            doc,
            units: units.len() as u64,
            quarantined,
            replayed,
            retries,
            steals: run.steals as u64,
            busy_ns: run.results.iter().map(|r| r.duration.as_nanos()).sum(),
            campaign_ns,
            journal_bytes: 0,
            reference: None,
        })
    }
}

impl Workload for Campaign {
    fn setup(&mut self, tr: &Arc<Tracer>) -> Result<(), String> {
        let mut p = self.prepare(tr)?;
        if self.resume {
            // The journal to resume from: a complete fresh campaign,
            // untraced so the traced pass shows only the resume side.
            let off = Arc::new(Tracer::new(false));
            let out = self.execute(&mut p, &[], &off)?;
            p.fresh_doc = Some(out.doc);
        }
        self.prepared = Some(p);
        Ok(())
    }

    fn pass(&mut self, tr: &Arc<Tracer>, pace: Pace) -> Result<(), String> {
        let t = Instant::now();
        let mut p = self.prepared.take().ok_or("pass without setup")?;
        if tr.enabled() {
            *self.sim.lock().expect("tally lock poisoned") = SimTally::default();
        }
        let replay = if self.resume {
            let (ms, merged) = tr
                .span("supervisor.resume_shards", || {
                    resume_shards(p.dir.path(), BASE, &p.header, JOBS)
                })
                .map_err(|e| format!("resume_shards: {e}"))?;
            p.manifests = Some(ms);
            merged
        } else {
            Vec::new()
        };
        let mut out = self.execute(&mut p, &replay, tr)?;
        // A unit's dispatch, journaling and fold happen outside its
        // closure (and replayed units run none), so the sensitivity delay
        // is charged on the whole pass.
        pace.after(t);
        out.reference = p.fresh_doc.take();
        self.last = Some(out);
        self.spent = Some(p.dir);
        Ok(())
    }

    fn check(&mut self, _tr: &Arc<Tracer>) -> Tally {
        let out = self.last.as_mut().expect("check follows a pass");
        if let Some(dir) = self.spent.take() {
            out.journal_bytes = bytes_in(dir.path(), BASE);
        }
        let reference = match &out.reference {
            Some(fresh) => fresh,
            None => self.first_doc.get_or_insert_with(|| out.doc.clone()),
        };
        if self.digest == FNV0 {
            self.digest = fnv(FNV0, reference.as_bytes());
        }
        let rerun = if self.resume {
            out.units - out.replayed
        } else {
            0
        };
        let mut failed = out.quarantined + rerun;
        if rerun > 0 {
            eprintln!("campaign_resume: {rerun} unit(s) re-ran instead of replaying");
        }
        if out.doc != *reference {
            eprintln!("campaign: rendered fold differs from the reference rendering");
            failed = out.units;
        }
        Tally {
            attempted: out.units,
            failed,
        }
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn layers(&self, spans: &[Span], m: &mut Metrics) {
        let out = self.last.as_ref().expect("layers follow a pass");
        let sim = self.sim.lock().expect("tally lock poisoned").clone();
        sim.write(spans, m);
        let unit_us: Vec<f64> = trace::durations_ms(spans, "supervisor.unit")
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        if !unit_us.is_empty() {
            m.set("supervisor.unit_us.p50", percentile(&unit_us, 0.50));
            m.set("supervisor.unit_us.p99", percentile(&unit_us, 0.99));
        }
        m.set("supervisor.units", out.units as f64);
        let idle = (JOBS as u128 * out.campaign_ns).saturating_sub(out.busy_ns);
        m.set("supervisor.idle_ms", idle as f64 / 1e6);
        m.set(
            "supervisor.self_ms",
            trace::self_total_ms(spans, "supervisor.run_campaign"),
        );
        m.set("supervisor.journal_bytes", out.journal_bytes as f64);
        m.set(
            "supervisor.journal_bytes_per_unit",
            out.journal_bytes as f64 / out.units as f64,
        );
        m.set(
            "supervisor.create_shards_ms",
            trace::total_ms(spans, "supervisor.create_shards"),
        );
        m.set(
            "supervisor.resume_shards_ms",
            trace::total_ms(spans, "supervisor.resume_shards"),
        );
        m.set("supervisor.replayed_units", out.replayed as f64);
        m.set(
            "supervisor.rerun_units",
            if self.resume {
                (out.units - out.replayed) as f64
            } else {
                0.0
            },
        );
        m.set("supervisor.steals", out.steals as f64);
        m.set("supervisor.retries", out.retries as f64);
        m.set("supervisor.quarantined", out.quarantined as f64);
        m.set("obs.fold_ms", trace::total_ms(spans, "obs.fold"));
        m.set(
            "obs.json_render_ms",
            trace::total_ms(spans, "obs.json_render"),
        );
        m.set(
            "harness.report_write_ms",
            trace::total_ms(spans, "supervisor.atomic_write"),
        );
    }
}
