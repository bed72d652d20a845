//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps its own calls into each layer in spans; nothing
//! inside the program is instrumented. A span records its name, start,
//! end, parent and unit id (spans of one campaign unit or fuzz case
//! share it). Spans stay in memory until the run ends and are then
//! written out as a Chrome trace. A disabled tracer runs the closure and
//! records nothing, which is what every timed pass uses.

use ompvar_obs::json::{self, Value};
use std::cell::RefCell;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `rt.run`.
    pub name: String,
    /// Unit id shared by every span of one unit (0: no unit).
    pub unit: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Recording thread (small integer, in first-seen order).
    pub lane: usize,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open spans of this thread: (span index, unit id).
    static STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
    static LANE: RefCell<Option<usize>> = const { RefCell::new(None) };
}

const NO_ANCHOR: usize = usize::MAX;

/// The span recorder. See the module docs.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    /// Parent for spans opened on a thread with no open span of its own
    /// (executor workers): the span that dispatched them.
    anchor: AtomicUsize,
    lanes: AtomicUsize,
}

impl Tracer {
    /// A tracer that records (`on`) or only runs closures.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            anchor: AtomicUsize::new(NO_ANCHOR),
            lanes: AtomicUsize::new(0),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn lane(&self) -> usize {
        LANE.with(|l| {
            *l.borrow_mut()
                .get_or_insert_with(|| self.lanes.fetch_add(1, Ordering::Relaxed))
        })
    }

    /// Run `f` inside a span named `name`; its parent and unit are the
    /// innermost open span's.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        self.unit_span(name, None, f)
    }

    /// Run `f` inside a span that starts unit `unit` (when `Some`).
    pub fn unit_span<R>(&self, name: &str, unit: Option<u64>, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let top = STACK.with(|s| s.borrow().last().copied());
        let anchor = self.anchor.load(Ordering::SeqCst);
        let parent = top
            .map(|(i, _)| i)
            .or((anchor != NO_ANCHOR).then_some(anchor));
        let unit = unit.or(top.map(|(_, u)| u)).unwrap_or(0);
        let idx = {
            let mut spans = self.spans.lock().expect("span list lock poisoned");
            spans.push(Span {
                name: name.to_string(),
                unit,
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
                lane: self.lane(),
            });
            spans.len() - 1
        };
        STACK.with(|s| s.borrow_mut().push((idx, unit)));
        let out = f();
        STACK.with(|s| s.borrow_mut().pop());
        let end = self.now_ns();
        self.spans.lock().expect("span list lock poisoned")[idx].end_ns = end;
        out
    }

    /// Make the innermost open span of this thread the parent of spans
    /// that other threads open with nothing open themselves; cleared by
    /// [`Tracer::clear_anchor`].
    pub fn anchor_here(&self) {
        if let Some((i, _)) = STACK.with(|s| s.borrow().last().copied()) {
            self.anchor.store(i, Ordering::SeqCst);
        }
    }

    /// Forget the anchor set by [`Tracer::anchor_here`].
    pub fn clear_anchor(&self) {
        self.anchor.store(NO_ANCHOR, Ordering::SeqCst);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }

    /// Write every span as a Chrome trace (`ph: X` events, µs).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let events = spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(s.name.clone())),
                    ("ph".into(), Value::Str("X".into())),
                    ("pid".into(), Value::Num(1.0)),
                    ("tid".into(), Value::Num(s.lane as f64)),
                    ("ts".into(), Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur".into(), Value::Num(s.dur_ns() as f64 / 1e3)),
                    (
                        "args".into(),
                        Value::Obj(vec![
                            ("id".into(), Value::Num(i as f64)),
                            ("unit".into(), Value::Num(s.unit as f64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                            ),
                            (
                                "self_us".into(),
                                Value::Num(self_ns(&spans, i) as f64 / 1e3),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        let mut doc = json::write(&Value::Obj(vec![(
            "traceEvents".into(),
            Value::Arr(events),
        )]));
        doc.push('\n');
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc)
    }
}

/// Self time of span `i`: its duration minus the part of it that its
/// children's intervals cover (overlapping children counted once).
pub fn self_ns(spans: &[Span], i: usize) -> u64 {
    let s = &spans[i];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(i))
        .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in kids {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    s.dur_ns() - covered
}

/// Durations (ms) of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Summed duration (ms) of every span called `name`.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    durations_ms(spans, name).iter().sum()
}

/// Number of spans called `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Summed self time (ms) of every span called `name`.
pub fn self_total_ms(spans: &[Span], name: &str) -> f64 {
    (0..spans.len())
        .filter(|&i| spans[i].name == name)
        .map(|i| self_ns(spans, i) as f64 / 1e6)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_units_and_self_time() {
        let tr = Tracer::new(true);
        tr.unit_span("outer", Some(7), || {
            tr.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].unit, 7, "children inherit the unit id");
        assert!(self_ns(&spans, 0) < spans[0].dur_ns() - 4_000_000);
        assert_eq!(self_ns(&spans, 1), spans[1].dur_ns());
    }

    #[test]
    fn worker_spans_hang_off_the_anchor() {
        let tr = Tracer::new(true);
        tr.span("dispatch", || {
            tr.anchor_here();
            std::thread::scope(|s| {
                s.spawn(|| tr.unit_span("unit", Some(1), || ()));
            });
            tr.clear_anchor();
        });
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_ne!(spans[0].lane, spans[1].lane);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("x", || 3), 3);
        assert!(tr.spans().is_empty());
    }
}
