//! The discrete-event core: event kinds and the time-ordered queue.
//!
//! The queue has two interchangeable implementations behind one API:
//!
//! * **Packed** (default): two 4-ary min-heaps that share one sequence
//!   counter. Each holds `(key, kind)` entries in a single `Vec`, where
//!   `key` packs `(time, seq)` into one `u128` so ordering is a single
//!   integer compare; a 4-ary layout halves the tree depth of a binary
//!   heap and keeps sift-down's child scan inside one or two cache
//!   lines. The *hot* heap holds only `CpuBoundary` events: one live
//!   boundary per busy CPU plus the stale ones re-pricing left behind,
//!   all in the near future. The *cold* heap holds every
//!   other kind: each CPU's far-future noise arrivals and timer ticks,
//!   load balancing, frequency and fault events. A single heap of both
//!   would be hundreds deep and every boundary pop would pay for it.
//!   `pop`/`peek` take the smaller of the two heads; since keys are
//!   unique across both heaps, that is exactly the pop order of one
//!   heap over all events.
//! * **Reference**: the original `std::collections::BinaryHeap` of
//!   `HeapEntry` with a reversed `Ord`. Kept verbatim as the
//!   independently implemented test reference: the queue property
//!   tests, qcheck oracle #11 and the determinism golden suite hold the
//!   two paths to bit-identical pop streams.
//!
//! Both implementations pop in ascending `(time, seq)` order — earliest
//! first, ties broken FIFO by insertion sequence — which is what makes
//! the engine's replay deterministic.

use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Kinds of events processed by the engine.
///
/// Several kinds carry a `token`: a generation counter used to invalidate
/// stale events. When the engine reprices a CPU's current work (because of
/// preemption, a frequency change, or SMT state change) it bumps the CPU's
/// token; the previously scheduled boundary event then no-ops when popped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The running span on `cpu` reaches a boundary: its current op
    /// completes, or its scheduling quantum expires.
    CpuBoundary {
        /// Hardware thread.
        cpu: usize,
        /// Generation token (stale events no-op).
        token: u64,
    },
    /// Next arrival of noise source `src`.
    NoiseArrival {
        /// Noise-stream index.
        src: u32,
    },
    /// Periodic scheduler/timer tick on a busy `cpu`.
    TimerTick {
        /// Hardware thread.
        cpu: usize,
        /// Tick-chain generation token.
        token: u64,
    },
    /// Periodic load-balancing pass over all CPUs.
    LoadBalance,
    /// Re-evaluate the DVFS state of `socket` after its active-core count
    /// changed (fires after the governor's reaction latency).
    FreqReeval {
        /// Socket index.
        socket: usize,
    },
    /// Stochastic turbo/dip transition of `socket`'s frequency process.
    FreqPulse {
        /// Socket index.
        socket: usize,
        /// Pulse-chain generation token.
        token: u64,
    },
    /// The frequency logger samples all core frequencies.
    FreqSample,
    /// A scheduled fault injection fires (index into the fault plan).
    FaultStart {
        /// Fault-plan index.
        idx: u32,
    },
    /// A timed fault window ends (CPU back online, frequency cap lifted).
    FaultEnd {
        /// Fault-plan index.
        idx: u32,
    },
    /// Next arrival of an active noise storm.
    FaultStormTick {
        /// Fault-plan index.
        idx: u32,
    },
}

/// Pack `(time, seq)` into one ordered key: ascending `u128` order is
/// ascending time with FIFO tie-break.
#[inline]
fn pack(time: Time, seq: u64) -> u128 {
    ((time as u128) << 64) | seq as u128
}

#[inline]
fn unpack_time(key: u128) -> Time {
    (key >> 64) as Time
}

// ---------------------------------------------------------------------
// Optimized path: two packed-key 4-ary min-heaps
// ---------------------------------------------------------------------

/// 4-ary min-heap over packed keys. Entries live in one contiguous
/// `Vec`; each sift-down step scans at most four children that sit next
/// to each other in memory. Both sifts move a hole and write the moved
/// entry once, instead of swapping 48-byte entries at every level.
#[derive(Debug, Default)]
struct PackedHeap {
    entries: Vec<(u128, EventKind)>,
}

impl PackedHeap {
    const ARITY: usize = 4;

    fn with_capacity(cap: usize) -> Self {
        PackedHeap {
            entries: Vec::with_capacity(cap),
        }
    }

    #[inline]
    fn push(&mut self, key: u128, kind: EventKind) {
        let mut i = self.entries.len();
        self.entries.push((key, kind));
        // Sift the hole up, then drop the new entry into it.
        while i > 0 {
            let parent = (i - 1) / Self::ARITY;
            if self.entries[parent].0 <= key {
                break;
            }
            self.entries[i] = self.entries[parent];
            i = parent;
        }
        self.entries[i] = (key, kind);
    }

    #[inline]
    fn pop(&mut self) -> Option<(u128, EventKind)> {
        let last = self.entries.pop()?;
        let n = self.entries.len();
        if n == 0 {
            return Some(last);
        }
        let top = self.entries[0];
        // Sift the hole at the root down, then drop `last` into it.
        let mut i = 0;
        loop {
            let first = i * Self::ARITY + 1;
            if first >= n {
                break;
            }
            let end = (first + Self::ARITY).min(n);
            let mut best = first;
            for c in first + 1..end {
                if self.entries[c].0 < self.entries[best].0 {
                    best = c;
                }
            }
            if self.entries[best].0 >= last.0 {
                break;
            }
            self.entries[i] = self.entries[best];
            i = best;
        }
        self.entries[i] = last;
        Some(top)
    }

    #[inline]
    fn head_key(&self) -> Option<u128> {
        self.entries.first().map(|e| e.0)
    }

    /// Smallest key excluding the root: the minimum over the root's
    /// children (every other entry is dominated by one of them).
    #[inline]
    fn second_key(&self) -> Option<u128> {
        let n = self.entries.len();
        if n < 2 {
            return None;
        }
        self.entries[1..n.min(1 + Self::ARITY)]
            .iter()
            .map(|e| e.0)
            .min()
    }
}

/// The optimized queue: near-future `CpuBoundary` events in a hot heap,
/// every other kind — far-future noise
/// arrivals, timer ticks, load balancing, frequency and fault events —
/// in a cold heap. Keys are unique across both heaps (one shared seq
/// counter), so taking the smaller head yields exactly the pop order of
/// a single heap.
#[derive(Debug)]
struct TwoTier {
    hot: PackedHeap,
    cold: PackedHeap,
}

impl TwoTier {
    /// Does the hot heap hold the overall head? `None` when both are
    /// empty.
    #[inline]
    fn head_is_hot(&self) -> Option<bool> {
        match (self.hot.head_key(), self.cold.head_key()) {
            (Some(h), Some(c)) => Some(h < c),
            (Some(_), None) => Some(true),
            (None, Some(_)) => Some(false),
            (None, None) => None,
        }
    }

    #[inline]
    fn push(&mut self, key: u128, kind: EventKind) {
        match kind {
            EventKind::CpuBoundary { .. } => self.hot.push(key, kind),
            _ => self.cold.push(key, kind),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<(u128, EventKind)> {
        if self.head_is_hot()? {
            self.hot.pop()
        } else {
            self.cold.pop()
        }
    }

    #[inline]
    fn peek(&self) -> Option<&(u128, EventKind)> {
        if self.head_is_hot()? {
            self.hot.entries.first()
        } else {
            self.cold.entries.first()
        }
    }

    /// Second-smallest key across both heaps: the runner-up inside the
    /// head's heap, or the other heap's head, whichever is smaller.
    #[inline]
    fn second_key(&self) -> Option<u128> {
        let (head, other) = if self.head_is_hot()? {
            (&self.hot, &self.cold)
        } else {
            (&self.cold, &self.hot)
        };
        match (head.second_key(), other.head_key()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn len(&self) -> usize {
        self.hot.entries.len() + self.cold.entries.len()
    }
}

// ---------------------------------------------------------------------
// Reference path: the original BinaryHeap layout, kept verbatim
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    time: Time,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        // Ties broken by insertion sequence for determinism.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Debug)]
enum QueueImpl {
    Packed(TwoTier),
    Reference(BinaryHeap<HeapEntry>),
}

/// Time-ordered event queue with deterministic FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue {
    imp: QueueImpl,
    seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// An empty queue on the optimized (two packed 4-ary heaps) path.
    pub fn new() -> Self {
        EventQueue {
            imp: QueueImpl::Packed(TwoTier {
                hot: PackedHeap::with_capacity(256),
                cold: PackedHeap::with_capacity(1024),
            }),
            seq: 0,
        }
    }

    /// An empty queue on the reference (`BinaryHeap`) path.
    pub fn new_reference() -> Self {
        EventQueue {
            imp: QueueImpl::Reference(BinaryHeap::with_capacity(1024)),
            seq: 0,
        }
    }

    /// Schedule `kind` at absolute time `time`.
    #[inline]
    pub fn push(&mut self, time: Time, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        match &mut self.imp {
            QueueImpl::Packed(h) => h.push(pack(time, seq), kind),
            QueueImpl::Reference(h) => h.push(HeapEntry { time, seq, kind }),
        }
    }

    /// Pop the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, EventKind)> {
        match &mut self.imp {
            QueueImpl::Packed(h) => h.pop().map(|(k, kind)| (unpack_time(k), kind)),
            QueueImpl::Reference(h) => h.pop().map(|e| (e.time, e.kind)),
        }
    }

    /// The earliest pending event, without removing it. Only served on
    /// the optimized path (the reference path predates it and must stay
    /// byte-for-byte the original implementation); callers treat `None`
    /// as "fast paths unavailable".
    #[inline]
    pub fn peek(&self) -> Option<(Time, &EventKind)> {
        match &self.imp {
            QueueImpl::Packed(h) => h.peek().map(|(k, kind)| (unpack_time(*k), kind)),
            QueueImpl::Reference(_) => None,
        }
    }

    /// The time of the earliest pending event *excluding* the head, on
    /// the optimized path. `None` when fewer than two events are pending
    /// or on the reference path. Used by the engine's idle-period
    /// fast-forward to bound how far a tick chain can be batched.
    #[inline]
    pub fn second_time(&self) -> Option<Time> {
        match &self.imp {
            QueueImpl::Packed(h) => h.second_key().map(unpack_time),
            QueueImpl::Reference(_) => None,
        }
    }

    /// Burn `n` sequence numbers without pushing. The idle-period
    /// fast-forward uses this so a batched tick chain leaves the seq
    /// counter — and therefore every future FIFO tie-break — exactly
    /// where the unbatched pop/push loop would have left it.
    #[inline]
    pub fn bump_seq(&mut self, n: u64) {
        self.seq += n;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.imp {
            QueueImpl::Packed(h) => h.len(),
            QueueImpl::Reference(h) => h.len(),
        }
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both() -> [EventQueue; 2] {
        [EventQueue::new(), EventQueue::new_reference()]
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in both() {
            q.push(30, EventKind::LoadBalance);
            q.push(10, EventKind::FreqSample);
            q.push(20, EventKind::LoadBalance);
            assert_eq!(q.pop().unwrap().0, 10);
            assert_eq!(q.pop().unwrap().0, 20);
            assert_eq!(q.pop().unwrap().0, 30);
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn ties_break_fifo() {
        for mut q in both() {
            q.push(5, EventKind::CpuBoundary { cpu: 1, token: 0 });
            q.push(5, EventKind::CpuBoundary { cpu: 2, token: 0 });
            q.push(5, EventKind::CpuBoundary { cpu: 3, token: 0 });
            let order: Vec<usize> = (0..3)
                .map(|_| match q.pop().unwrap().1 {
                    EventKind::CpuBoundary { cpu, .. } => cpu,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(order, vec![1, 2, 3]);
        }
    }

    #[test]
    fn len_tracks_contents() {
        for mut q in both() {
            assert!(q.is_empty());
            q.push(1, EventKind::LoadBalance);
            q.push(2, EventKind::LoadBalance);
            assert_eq!(q.len(), 2);
            q.pop();
            assert_eq!(q.len(), 1);
        }
    }

    #[test]
    fn peek_and_second_time_on_packed() {
        let boundary = EventKind::CpuBoundary { cpu: 0, token: 0 };
        let mut q = EventQueue::new();
        assert!(q.peek().is_none());
        assert!(q.second_time().is_none());
        q.push(40, boundary);
        assert_eq!(q.peek().unwrap().0, 40);
        assert!(q.second_time().is_none());
        q.push(10, EventKind::FreqSample);
        q.push(25, boundary);
        // Head in the cold heap, runner-up at the head of the hot heap.
        assert_eq!(q.peek().unwrap().0, 10);
        assert_eq!(q.second_time(), Some(25));
        q.pop();
        // Both left in the hot heap.
        assert_eq!(q.peek().unwrap().0, 25);
        assert_eq!(q.second_time(), Some(40));
    }

    #[test]
    fn reference_declines_fast_path_queries() {
        let mut q = EventQueue::new_reference();
        q.push(1, EventKind::LoadBalance);
        q.push(2, EventKind::LoadBalance);
        assert!(q.peek().is_none());
        assert!(q.second_time().is_none());
    }

    /// An `EventKind` chosen by `r`, covering every kind: half the draws are
    /// `CpuBoundary` (hot heap), the rest spread over the cold kinds.
    fn any_kind(r: u64) -> EventKind {
        let a = (r >> 8) % 8;
        match r % 20 {
            0..=9 => EventKind::CpuBoundary {
                cpu: a as usize,
                token: r >> 32,
            },
            10 => EventKind::NoiseArrival { src: a as u32 },
            11 => EventKind::TimerTick {
                cpu: a as usize,
                token: r >> 32,
            },
            12 => EventKind::LoadBalance,
            13 => EventKind::FreqReeval { socket: a as usize },
            14 => EventKind::FreqPulse {
                socket: a as usize,
                token: r >> 32,
            },
            15 => EventKind::FreqSample,
            16 => EventKind::FaultStart { idx: a as u32 },
            17 => EventKind::FaultEnd { idx: a as u32 },
            _ => EventKind::FaultStormTick { idx: a as u32 },
        }
    }

    #[test]
    fn packed_and_reference_pop_identically() {
        // Deterministic pseudo-random interleaving of pushes, pops and
        // seq bumps over every event kind, on a time range narrow
        // enough that most pops break a tie. The packed queue must pop
        // exactly what the reference heap pops, and its `peek`,
        // `second_time` and `len` must match a brute-force sorted-key
        // oracle after every step (the reference path declines the
        // fast-path queries, so it cannot be the oracle for them).
        let mut a = EventQueue::new();
        let mut b = EventQueue::new_reference();
        let mut oracle: Vec<(u128, EventKind)> = Vec::new();
        let mut seq = 0u64;
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..20_000 {
            let r = step();
            // Drift the time window upward so both heaps keep turning
            // over; within the window, times collide constantly.
            let t = (i / 64 + step() % 16) as Time;
            match r % 8 {
                0..=3 => {
                    let kind = any_kind(step());
                    a.push(t, kind);
                    b.push(t, kind);
                    oracle.push((pack(t, seq), kind));
                    seq += 1;
                }
                4 => {
                    let n = step() % 3;
                    a.bump_seq(n);
                    b.bump_seq(n);
                    seq += n;
                }
                _ => {
                    // The oracle is kept sorted, so its minimum is first.
                    let want = (!oracle.is_empty())
                        .then(|| oracle.remove(0))
                        .map(|(k, kind)| (unpack_time(k), kind));
                    let got = a.pop();
                    assert_eq!(got, b.pop());
                    assert_eq!(got, want);
                }
            }
            oracle.sort_by_key(|e| e.0);
            assert_eq!(a.len(), oracle.len());
            assert_eq!(
                a.peek().map(|(t, k)| (t, *k)),
                oracle.first().map(|e| (unpack_time(e.0), e.1))
            );
            assert_eq!(a.second_time(), oracle.get(1).map(|e| unpack_time(e.0)));
        }
        while !a.is_empty() {
            assert_eq!(a.pop(), b.pop());
        }
        assert_eq!(a.pop(), None);
        assert_eq!(b.pop(), None);
    }
}
