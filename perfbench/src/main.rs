//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --compare BASE_RESULTS CAND_RESULTS
//! ```
//!
//! Run from the repository root (`python3 perfbench/run.py …` builds and
//! does that). One run measures one workload for `--seconds`: it repeats
//! set-up, a timed pass and an untimed output check, then prints the
//! mean, median, quartiles and n of the timings and, as its last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 1` the run then makes one more pass with the
//! span recorder on, runs the layer probes, and prints the per-layer
//! metrics instead; the spans are written to
//! `.perfbench/spans-<workload>-<seed>.json` as a Chrome trace. A failed
//! output check makes the exit code 1.

mod campaign;
mod compare;
mod fuzz;
mod metrics;
mod paper;
mod probe;
mod trace;
mod util;
mod workload;

use metrics::{Metrics, END_TO_END};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;
use util::{cpu_seconds, derive, mean, median, peak_rss_mb, quartiles, Pace};
use workload::{Scratch, Tally, Workload};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "paper_figures",
    "fuzz_corpus",
    "campaign_fresh",
    "campaign_resume",
];

/// Seed used when `--seed` is not given (the fuzz corpus's historical
/// base seed).
pub const DEFAULT_SEED: u64 = 0x5EED_F00D;

/// Programs in the fuzz corpus.
const FUZZ_CASES: usize = 16384;
/// Campaign units per cell (8 cells).
const CAMPAIGN_RUNS_PER_CELL: usize = 512;
/// Timed passes every run makes, however long they take: fewer would
/// let one slow spell of the host set a run's value.
const MIN_PASSES: usize = 3;
/// Set-up samples every run takes.
const MIN_SETUPS: usize = 5;

/// Where runs keep scratch files and span traces, relative to the root.
const OUT_DIR: &str = ".perfbench";

/// Build workload `name` for benchmark seed `seed`, with scratch space
/// under `work`. The workload's inputs come from a stream derived by
/// hashing the seed with the workload's name.
pub fn build(name: &str, seed: u64, work: &Path) -> Option<Box<dyn Workload>> {
    let stream = derive(seed, name);
    Some(match name {
        // Reports and journals store the seed as a JSON number: keep it
        // exact in an f64 (and clear of wrap-around in `seed + i`).
        "paper_figures" => Box::new(paper::Paper::new(stream >> 16, work.to_path_buf())),
        "fuzz_corpus" => Box::new(fuzz::Fuzz::new(stream, FUZZ_CASES)),
        "campaign_fresh" | "campaign_resume" => Box::new(campaign::Campaign::new(
            stream,
            CAMPAIGN_RUNS_PER_CELL,
            name == "campaign_resume",
            work.to_path_buf(),
        )),
        _ => return None,
    })
}

/// Samples of one measuring loop.
#[derive(Debug, Default)]
pub struct Measured {
    /// Host seconds per timed pass.
    pub wall: Vec<f64>,
    /// Process CPU seconds per timed pass.
    pub cpu: Vec<f64>,
    /// Host seconds per set-up.
    pub setup: Vec<f64>,
    /// Units checked.
    pub tally: Tally,
}

/// Repeat set-up, timed pass and check until `seconds` have passed and
/// at least `min_passes` passes ran; then set up again until there are
/// `min_setups` set-up samples.
pub fn measure(
    w: &mut dyn Workload,
    seconds: f64,
    min_passes: usize,
    min_setups: usize,
    pace: Pace,
) -> Result<Measured, String> {
    let off = Arc::new(Tracer::new(false));
    let mut m = Measured::default();
    let t0 = Instant::now();
    while m.wall.len() < min_passes || t0.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        w.setup(&off)?;
        m.setup.push(t.elapsed().as_secs_f64());
        let c = cpu_seconds();
        let t = Instant::now();
        w.pass(&off, pace)?;
        m.wall.push(t.elapsed().as_secs_f64());
        m.cpu.push(cpu_seconds() - c);
        m.tally += w.check(&off);
    }
    while m.setup.len() < min_setups {
        let t = Instant::now();
        w.setup(&off)?;
        m.setup.push(t.elapsed().as_secs_f64());
    }
    Ok(m)
}

/// The traced pass and the layer probes: every per-layer metric.
fn traced(
    w: &mut dyn Workload,
    m: &Measured,
    spans_out: &Path,
) -> Result<(Metrics, Tally), String> {
    let tr = Arc::new(Tracer::new(true));
    tr.span("bench.setup", || w.setup(&tr))?;
    let t = Instant::now();
    tr.span("bench.pass", || w.pass(&tr, Pace::NONE))?;
    let traced_wall = t.elapsed().as_secs_f64();
    let tally = tr.span("bench.check", || w.check(&tr));
    let mut out = Metrics::default();
    tr.span("bench.probe", || {
        probe::construct_counts(&tr, &mut out);
        w.probe(&tr);
    });
    w.layers(&tr.spans(), &mut out);
    out.set("bench.trace_overhead_s", traced_wall - mean(&m.wall));
    if let Err(e) = tr.write_chrome(spans_out) {
        eprintln!("warning: could not write {}: {e}", spans_out.display());
    }
    Ok((out, tally))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         perfbench --compare BASE_RESULTS CAND_RESULTS",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn compare_files(base: &str, cand: &str) -> ExitCode {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let run = || -> Result<Vec<String>, String> {
        let bounds = compare::bounds(&read("BENCHMARK.json")?)?;
        Ok(compare::findings(
            &bounds,
            &compare::results(&read(base)?),
            &compare::results(&read(cand)?),
        ))
    };
    match run() {
        Ok(f) if f.is_empty() => {
            println!("no regression beyond the bounds; deterministic counts agree");
            ExitCode::SUCCESS
        }
        Ok(f) => {
            for line in f {
                println!("REGRESSION {line}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn json_line(correct: bool, tally: Tally, metrics: &[(String, f64, &str)]) -> String {
    let ms: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v:?},\"unit\":\"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        ms.join(",")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        return match &args[1..] {
            [a, b] => compare_files(a, b),
            _ => usage(),
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace_on) = (None, DEFAULT_SEED, 10.0, false);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_default();
        match a.as_str() {
            "--workload" => workload = Some(val()),
            "--seed" => match val().parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(),
            },
            "--seconds" => match val().parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => seconds = s,
                _ => return usage(),
            },
            "--trace" => match val().as_str() {
                "0" => trace_on = false,
                "1" => trace_on = true,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(name) = workload else { return usage() };
    let work = match Scratch::new(&Path::new(OUT_DIR).join(format!("work-{}", std::process::id())))
    {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(mut w) = build(&name, seed, work.path()) else {
        return usage();
    };
    match run(w.as_mut(), &name, seed, seconds, trace_on) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {name}: {e}");
            ExitCode::from(2)
        }
    }
}

/// Measure, check, print; `Ok(correct)`.
fn run(
    w: &mut dyn Workload,
    name: &str,
    seed: u64,
    seconds: f64,
    trace_on: bool,
) -> Result<bool, String> {
    let m = measure(w, seconds, MIN_PASSES, MIN_SETUPS, Pace::NONE)?;
    let rss = peak_rss_mb();
    let mut tally = m.tally;
    let spans_out = PathBuf::from(OUT_DIR).join(format!("spans-{name}-{seed}.json"));
    let layer = if trace_on {
        Some(traced(w, &m, &spans_out)?)
    } else {
        None
    };
    if let Some((_, t)) = &layer {
        tally += *t;
    }
    let correct = tally.failed == 0;
    let failed_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;

    println!(
        "workload {name} seed {seed} stream {:#018x}",
        derive(seed, name)
    );
    for (label, xs) in [
        ("wall_s", &m.wall),
        ("cpu_s", &m.cpu),
        ("setup_s", &m.setup),
    ] {
        let q = quartiles(xs);
        println!(
            "  {label:<12} mean {:.6} s  median {:.6}  q1 {:.6}  q3 {:.6}  n {}",
            mean(xs),
            q.median,
            q.q1,
            q.q3,
            q.n
        );
    }
    println!("  peak_rss_mb  {rss:.1} MiB");
    println!(
        "  failed_ratio {failed_ratio} ({} of {} units failed a check)",
        tally.failed, tally.attempted
    );
    println!("  digest       {:#018x}", w.digest());

    let metrics: Vec<(String, f64, &str)> = match layer {
        None => {
            let value = |n: &str| match n {
                // Host speed here switches between fast and slow spells of
                // a few seconds, so pass times are bimodal: the mean moves
                // smoothly with the share of slow passes, the median jumps.
                "wall_s" => mean(&m.wall),
                "cpu_s" => mean(&m.cpu),
                "setup_s" => median(&m.setup),
                "peak_rss_mb" => rss,
                other => unreachable!("no end-to-end metric {other}"),
            };
            END_TO_END
                .iter()
                .map(|&(n, u, _)| (n.to_string(), value(n), u))
                .collect()
        }
        Some((mut lm, _)) => {
            lm.set("bench.failed_ratio", failed_ratio);
            metrics::per_layer()
                .into_iter()
                .map(|(n, u, _)| {
                    let v = lm.get(&n).unwrap_or(0.0);
                    (n, v, u)
                })
                .collect()
        }
    };
    if trace_on {
        for (n, v, u) in &metrics {
            println!("  {n:<40} {v} {u}");
        }
    }
    println!("{}", json_line(correct, tally, &metrics));
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use compare::{paired_verdict, Verdict};
    use ompvar_obs::json::{self, Value};

    fn repo_file(rel: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(rel)
    }

    fn benchmark_json() -> Value {
        let text = std::fs::read_to_string(repo_file("BENCHMARK.json")).expect("BENCHMARK.json");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("{key} list"))
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} field"))
    }

    #[test]
    fn benchmark_json_lists_what_the_runs_print() {
        let doc = benchmark_json();
        let names: Vec<&str> = list(&doc, "workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(names, WORKLOADS);
        let e2e: Vec<(&str, &str, &str)> = list(&doc, "end_to_end")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        assert_eq!(e2e, END_TO_END);
        let bounds: Vec<f64> = list(&doc, "end_to_end")
            .iter()
            .map(|m| m.get("bound").unwrap().as_f64().unwrap())
            .collect();
        let setup = bounds[END_TO_END.iter().position(|m| m.0 == "setup_s").unwrap()];
        assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25 && b <= setup));
        let layer: Vec<(String, &str, &str)> = list(&doc, "per_layer")
            .iter()
            .map(|m| {
                (
                    field(m, "name").to_string(),
                    field(m, "unit"),
                    field(m, "better"),
                )
            })
            .collect();
        assert_eq!(layer, metrics::per_layer());
    }

    /// Small versions of the workloads (the same code paths, less work)
    /// and the passes one sample averages: a campaign pass is short
    /// enough that one spell of the host would set it alone.
    fn small(name: &str, work: &Path) -> (Box<dyn Workload>, usize) {
        let stream = derive(DEFAULT_SEED, name);
        let work = work.to_path_buf();
        match name {
            "paper_figures" => (
                Box::new(paper::Paper::new(stream >> 16, work).with_experiments(&["fig1", "fig7"])),
                1,
            ),
            "fuzz_corpus" => (Box::new(fuzz::Fuzz::new(stream, 2048)), 1),
            _ => {
                let resume = name == "campaign_resume";
                let w = campaign::Campaign::new(stream, CAMPAIGN_RUNS_PER_CELL, resume, work);
                (Box::new(w), 3)
            }
        }
    }

    /// The sensitivity self-test: with a benchmark-side delay adding 25%
    /// to each timed unit, the comparison flags `wall_s` as worse on every
    /// workload; between two unchanged sets it flags nothing. Passes run
    /// in interleaved pairs, alternating which side goes first.
    #[test]
    fn comparison_flags_a_25_percent_slowdown_and_nothing_on_an_unchanged_tree() {
        let doc = benchmark_json();
        let bound = list(&doc, "end_to_end")
            .iter()
            .find(|m| field(m, "name") == "wall_s")
            .and_then(|m| m.get("bound")?.as_f64())
            .expect("wall_s bound");
        let slow = Pace { factor: 0.25 };
        for name in WORKLOADS {
            let dir = repo_file(&format!("{OUT_DIR}/test-{name}-{}", std::process::id()));
            let scratch = Scratch::new(&dir).expect("scratch dir");
            let (mut w, passes) = small(name, scratch.path());
            let mut one = |pace| {
                let m = measure(w.as_mut(), 0.0, passes, 0, pace).expect("pass runs");
                assert_eq!(m.tally.failed, 0, "{name}: output check failed");
                mean(&m.wall)
            };
            let (mut base, mut slowed, mut again) = (Vec::new(), Vec::new(), Vec::new());
            one(Pace::NONE); // warm caches and lazy set-up
            for round in 0..21 {
                let (b, s, a) = if round % 2 == 0 {
                    (one(Pace::NONE), one(slow), one(Pace::NONE))
                } else {
                    let (s, a) = (one(slow), one(Pace::NONE));
                    (one(Pace::NONE), s, a)
                };
                base.push(b);
                slowed.push(s);
                again.push(a);
            }
            let ratio =
                |xs: &[f64]| median(&xs.iter().zip(&base).map(|(x, b)| x / b).collect::<Vec<_>>());
            eprintln!(
                "{name}: paired median slowed/base {:.3}, unchanged/base {:.3} (bound {bound})",
                ratio(&slowed),
                ratio(&again)
            );
            assert_eq!(
                paired_verdict(&base, &slowed, bound, true),
                Verdict::Worse,
                "{name}: 25% slowdown not flagged: base {base:?} slowed {slowed:?}"
            );
            assert_ne!(
                paired_verdict(&base, &again, bound, true),
                Verdict::Worse,
                "{name}: unchanged code flagged: {base:?} vs {again:?}"
            );
        }
    }
}
