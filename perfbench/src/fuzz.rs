//! `fuzz_corpus`: the sim side of the fuzz campaign on one thread.
//!
//! The corpus is generator programs in the measurement shapes the
//! simulator throughput corpus uses (teams up to 8, nesting depth 3,
//! locks, tasks, no data environment). Each program runs twice on the
//! sterile, traced runtime the qcheck oracles use. Runs are short and
//! varied, so per-run lowering, validation and the idle fast-forward
//! carry weight next to the event loop.
//!
//! Unit: one program (two runs). A unit fails when its two runs differ
//! (wall-time bits, semantic effects, final values, counters), when it
//! differs from the same program in the run's first pass, or when it
//! errors although the analyzer does not flag it as may-deadlock.

use crate::metrics::{self, Metrics, SimTally};
use crate::trace::{self, Span, Tracer};
use crate::util::{fnv, nth, Pace, FNV0};
use crate::workload::{Tally, Workload};
use ompvar_qcheck::gen::{self, GenConfig};
use ompvar_rt::region::RegionSpec;
use ompvar_rt::simrt::SimRuntime;
use ompvar_rt::RtConfig;
use ompvar_sim::params::SimParams;
use ompvar_sim::time::SEC;
use ompvar_sim::trace::{Counters, SemanticEffects};
use ompvar_topology::{MachineSpec, Places};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Largest team the generator draws.
const MAX_THREADS: usize = 8;

/// Generator shapes of the corpus (deeper nesting, longer loops and
/// bigger teams than the qcheck default, so runs spend their time in the
/// engine rather than in per-run setup).
pub fn gen_config() -> GenConfig {
    GenConfig {
        max_threads: MAX_THREADS,
        max_block_len: 8,
        max_depth: 3,
        max_repeat: 8,
        max_iters: 96,
        max_body_us: 2.0,
        max_tasks: 6,
        max_vars: 0,
    }
}

/// The fuzz campaign's simulated runtime: Vera, threads pinned close,
/// sterile parameters, tracing on.
pub fn runtime(n_threads: usize) -> SimRuntime {
    SimRuntime::new(
        MachineSpec::vera(),
        RtConfig::pinned_close(Places::Threads(Some(n_threads))),
    )
    .with_params(SimParams::sterile())
    .with_time_limit(300 * SEC)
    .with_tracing(true)
}

/// What the determinism check compares of one run.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    wall_bits: u64,
    effects: SemanticEffects,
    final_values: BTreeMap<u32, i64>,
    counters: Option<Counters>,
}

type Outcome = Result<Fingerprint, String>;

struct Prepared {
    corpus: Vec<(RegionSpec, u64)>,
    /// Runtime per team size (index = threads).
    runtimes: Vec<SimRuntime>,
}

/// The analyzer's view of one program.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    may_deadlock: bool,
    clean: bool,
}

/// The workload. See the module docs.
pub struct Fuzz {
    base: u64,
    cases: usize,
    prepared: Option<Prepared>,
    last: Vec<[Outcome; 2]>,
    first: Option<Vec<[Outcome; 2]>>,
    verdicts: Option<Vec<Verdict>>,
    diags: u64,
    sim: SimTally,
    digest: u64,
}

impl Fuzz {
    /// `cases` programs drawn from the stream `base`.
    pub fn new(base: u64, cases: usize) -> Fuzz {
        Fuzz {
            base,
            cases,
            prepared: None,
            last: Vec::new(),
            first: None,
            verdicts: None,
            diags: 0,
            sim: SimTally::default(),
            digest: FNV0,
        }
    }

    fn analyze_corpus(&mut self, tr: &Tracer, corpus: &[(RegionSpec, u64)]) {
        self.diags = 0;
        let verdicts = corpus
            .iter()
            .map(|(region, _)| {
                let a = tr.span("analyze.analyze", || ompvar_analyze::analyze(region));
                self.diags += a.diagnostics.len() as u64;
                Verdict {
                    may_deadlock: a.may_deadlock(),
                    clean: a.is_clean(),
                }
            })
            .collect();
        self.verdicts = Some(verdicts);
    }
}

impl Workload for Fuzz {
    fn setup(&mut self, tr: &Arc<Tracer>) -> Result<(), String> {
        let cfg = gen_config();
        let corpus = (0..self.cases as u64)
            .map(|i| {
                let seed = nth(self.base, i);
                (
                    tr.span("qcheck.generate", || gen::generate(seed, &cfg)),
                    seed,
                )
            })
            .collect();
        let runtimes = (0..=MAX_THREADS).map(|n| runtime(n.max(1))).collect();
        self.prepared = Some(Prepared { corpus, runtimes });
        Ok(())
    }

    fn pass(&mut self, tr: &Arc<Tracer>, pace: Pace) -> Result<(), String> {
        let p = self.prepared.as_ref().ok_or("pass without setup")?;
        let traced = tr.enabled();
        let mut sim = SimTally::default();
        self.last = p
            .corpus
            .iter()
            .enumerate()
            .map(|(i, (region, seed))| {
                let t = Instant::now();
                let rt = &p.runtimes[region.n_threads];
                let out = tr.unit_span("fuzz.case", Some(i as u64 + 1), || {
                    [(); 2].map(|_| match metrics::run_traced(tr, rt, region, *seed) {
                        Ok(mut res) => {
                            if traced {
                                sim.record(&res);
                            }
                            Ok(Fingerprint {
                                wall_bits: res.wall_us.to_bits(),
                                effects: res.effects,
                                final_values: std::mem::take(&mut res.final_values),
                                counters: res.counters,
                            })
                        }
                        Err(e) => Err(e.to_string()),
                    })
                });
                pace.after(t);
                out
            })
            .collect();
        if traced {
            self.sim = sim;
        }
        Ok(())
    }

    fn check(&mut self, tr: &Arc<Tracer>) -> Tally {
        let p = self.prepared.take().expect("check follows a pass");
        if self.verdicts.is_none() || tr.enabled() {
            self.analyze_corpus(tr, &p.corpus);
        }
        let verdicts = self.verdicts.as_ref().expect("analyzed above");
        let is_first = self.first.is_none();
        let first = self.first.get_or_insert_with(|| self.last.clone());
        let mut tally = Tally::default();
        let (mut expected, mut unexpected) = (0, 0);
        for (i, runs) in self.last.iter().enumerate() {
            tally.attempted += 1;
            let v = verdicts[i];
            let mut ok = runs[0] == runs[1] && *runs == first[i];
            for r in runs {
                if let Err(e) = r {
                    if v.may_deadlock {
                        expected += 1;
                    } else {
                        unexpected += 1;
                        ok = false;
                        eprintln!(
                            "fuzz_corpus: case {i} (seed {:#x}) errors but is not flagged \
                             may-deadlock (analyzer clean: {}): {e}",
                            p.corpus[i].1, v.clean
                        );
                    }
                }
            }
            if runs[0] != runs[1] || *runs != first[i] {
                eprintln!(
                    "fuzz_corpus: case {i} (seed {:#x}) is not deterministic",
                    p.corpus[i].1
                );
            }
            if !ok {
                tally.failed += 1;
            }
            if is_first {
                self.digest = fnv(self.digest, format!("{i}:{:?}", runs[0]).as_bytes());
            }
        }
        if tr.enabled() {
            self.sim.expected_errors = expected;
            self.sim.unexpected_errors = unexpected;
        }
        // Free the outcomes here rather than in the next timed pass.
        self.last = Vec::new();
        tally
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn layers(&self, spans: &[Span], m: &mut Metrics) {
        self.sim.write(spans, m);
        m.set(
            "analyze.calls",
            trace::count(spans, "analyze.analyze") as f64,
        );
        m.set("analyze.busy_ms", trace::total_ms(spans, "analyze.analyze"));
        m.set("analyze.diags", self.diags as f64);
        m.set(
            "qcheck.generate_ms",
            trace::total_ms(spans, "qcheck.generate"),
        );
    }
}
