//! A slab-keyed deadline scheduler.
//!
//! Poll loops that juggle many deadlines — one idle-eviction deadline per
//! connection, a shutdown drain deadline, deferred chunk releases in the
//! chaos proxy, every event of a netsim run — used to each keep their own
//! `last_active` fields and re-derive "has anything expired?" by scanning
//! every object every iteration. [`DeadlineWheel`] centralizes that:
//! [`insert`](DeadlineWheel::insert) a value at a [`Duration`] timestamp
//! (the [`crate::Clock`] timebase), keep the returned [`TimerKey`], ask
//! for the next interesting deadline, and pop values whose time has come.
//!
//! Layout: values live in a slab of generation-stamped slots, reused
//! through a free list; a binary heap orders plain integer entries
//! `(at_ns, seq, slot)`. `seq` is unique per insert, so ties pop FIFO and
//! the order is total without any bound on `V`. A [`TimerKey`] is the
//! slot plus the `seq` it was issued with, so no hashing happens anywhere:
//! cancel is a slot lookup and a `seq` compare, and a stale key — fired,
//! cancelled, or pointing at a slot since reused — is inert.
//!
//! Cancellation is **lazy**: the heap keeps the cancelled entry and skips
//! it when it surfaces (its `seq` no longer matches a live slot). Stale
//! entries are compacted away as soon as they outnumber the live ones, so
//! a hot connection rescheduled on every read (cancel plus insert) keeps
//! the heap within about twice the live count.
//!
//! Timestamps are stored as whole nanoseconds, saturating at `u64::MAX`
//! (about 584 years); later deadlines all read back as that instant.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

/// Stale heap entries tolerated on top of the live count before a
/// compaction: keeps tiny wheels from compacting on every cancel.
const COMPACT_SLACK: usize = 32;

/// Handle to one scheduled value, returned by [`DeadlineWheel::insert`].
/// Once its value fires or is cancelled the key is inert, even after its
/// slot holds a newer value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerKey {
    slot: u32,
    seq: u64,
}

/// One slab slot: the value scheduled there (if any), the `seq` of the
/// insert that filled it, and its deadline.
#[derive(Debug)]
struct Slot<V> {
    seq: u64,
    at_ns: u64,
    value: Option<V>,
}

/// A deadline scheduler over values of type `V`.
///
/// Timestamps are [`Duration`]s on whatever [`crate::Clock`] the caller
/// uses — the wheel itself never reads a clock, which is what keeps it
/// trivially virtual-time-compatible. Expiry order is deterministic: by
/// deadline, ties in insertion order.
#[derive(Debug)]
pub struct DeadlineWheel<V> {
    /// `(deadline ns, seq, slot)`, earliest first.
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    slots: Vec<Slot<V>>,
    /// Empty slots, reused before the slab grows.
    free: Vec<u32>,
    live: usize,
    next_seq: u64,
}

impl<V> Default for DeadlineWheel<V> {
    fn default() -> Self {
        Self::new()
    }
}

fn nanos(at: Duration) -> u64 {
    u64::try_from(at.as_nanos()).unwrap_or(u64::MAX)
}

impl<V> DeadlineWheel<V> {
    /// An empty wheel.
    pub fn new() -> DeadlineWheel<V> {
        DeadlineWheel {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
        }
    }

    /// Schedule `value` to expire at `at`.
    pub fn insert(&mut self, at: Duration, value: V) -> TimerKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        let at_ns = nanos(at);
        let filled = Slot { seq, at_ns, value: Some(value) };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = filled;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 live timers");
                self.slots.push(filled);
                slot
            }
        };
        self.live += 1;
        self.heap.push(Reverse((at_ns, seq, slot)));
        TimerKey { slot, seq }
    }

    /// Cancel `key`, returning its value if it was still pending. Fired,
    /// already-cancelled and reused-slot keys return `None`. The heap
    /// entry is dropped lazily.
    pub fn cancel(&mut self, key: TimerKey) -> Option<V> {
        let slot = self.slots.get_mut(key.slot as usize)?;
        if slot.seq != key.seq {
            return None;
        }
        let value = slot.value.take()?;
        self.release(key.slot);
        if self.heap.len() - self.live > self.live + COMPACT_SLACK {
            self.compact();
        }
        Some(value)
    }

    /// The deadline of `key`, if it is still pending.
    pub fn deadline_of(&self, key: TimerKey) -> Option<Duration> {
        let slot = self.slots.get(key.slot as usize)?;
        (slot.seq == key.seq && slot.value.is_some()).then(|| Duration::from_nanos(slot.at_ns))
    }

    /// The earliest pending deadline (sweeping stale entries off the top).
    pub fn next_deadline(&mut self) -> Option<Duration> {
        self.sweep();
        self.heap.peek().map(|&Reverse((at_ns, _, _))| Duration::from_nanos(at_ns))
    }

    /// Pop one value whose deadline is `<= now`, with its deadline.
    /// Deterministic order: earliest deadline first, FIFO among equals.
    pub fn pop_expired(&mut self, now: Duration) -> Option<(V, Duration)> {
        self.sweep();
        match self.heap.peek() {
            Some(&Reverse((at_ns, _, _))) if at_ns <= nanos(now) => self.pop_next(),
            _ => None,
        }
    }

    /// Pop the earliest pending value regardless of the current time,
    /// with its deadline. The discrete-event form of [`pop_expired`]: a
    /// simulated loop jumps its clock *to* each deadline instead of
    /// waiting for it, so "expired" is whatever is next. Same
    /// deterministic order.
    ///
    /// [`pop_expired`]: DeadlineWheel::pop_expired
    pub fn pop_next(&mut self) -> Option<(V, Duration)> {
        while let Some(Reverse((at_ns, seq, slot))) = self.heap.pop() {
            if !Self::is_live(&self.slots, seq, slot) {
                continue;
            }
            let value = self.slots[slot as usize].value.take().expect("live slot holds a value");
            self.release(slot);
            return Some((value, Duration::from_nanos(at_ns)));
        }
        None
    }

    /// Number of pending values.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Heap entries, pending and stale together: at most about twice
    /// [`len`](DeadlineWheel::len) — the bound compaction keeps.
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Return an emptied slot to the free list.
    fn release(&mut self, slot: u32) {
        self.free.push(slot);
        self.live -= 1;
    }

    /// Whether heap entry `(seq, slot)` still names a pending value.
    fn is_live(slots: &[Slot<V>], seq: u64, slot: u32) -> bool {
        let s = &slots[slot as usize];
        s.seq == seq && s.value.is_some()
    }

    /// Drop stale heap entries (cancelled values) off the top.
    fn sweep(&mut self) {
        while let Some(&Reverse((_, seq, slot))) = self.heap.peek() {
            if Self::is_live(&self.slots, seq, slot) {
                return;
            }
            self.heap.pop();
        }
    }

    /// Drop every stale heap entry and re-heapify.
    fn compact(&mut self) {
        let slots = &self.slots;
        self.heap.retain(|&Reverse((_, seq, slot))| Self::is_live(slots, seq, slot));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u64) -> Duration {
        Duration::from_secs(n)
    }

    #[test]
    fn pops_in_deadline_order() {
        let mut w = DeadlineWheel::new();
        w.insert(s(20), "b");
        w.insert(s(10), "a");
        w.insert(s(30), "c");
        assert_eq!(w.next_deadline(), Some(s(10)));
        assert_eq!(w.pop_expired(s(25)), Some(("a", s(10))));
        assert_eq!(w.pop_expired(s(25)), Some(("b", s(20))));
        assert_eq!(w.pop_expired(s(25)), None, "c is not due yet");
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_expired(s(30)), Some(("c", s(30))));
        assert!(w.is_empty());
    }

    #[test]
    fn equal_deadlines_pop_fifo() {
        let mut w = DeadlineWheel::new();
        w.insert(s(5), 1u32);
        w.insert(s(5), 2u32);
        w.insert(s(5), 3u32);
        assert_eq!(w.pop_expired(s(5)), Some((1, s(5))));
        assert_eq!(w.pop_expired(s(5)), Some((2, s(5))));
        assert_eq!(w.pop_expired(s(5)), Some((3, s(5))));
    }

    #[test]
    fn reschedule_replaces_and_old_entry_goes_stale() {
        let mut w = DeadlineWheel::new();
        let old = w.insert(s(10), "conn");
        // Activity: push the deadline out (cancel plus insert).
        assert_eq!(w.cancel(old), Some("conn"));
        let key = w.insert(s(100), "conn");
        assert_eq!(w.deadline_of(key), Some(s(100)));
        assert_eq!(w.deadline_of(old), None, "the old key is inert after its slot is reused");
        assert_eq!(w.pop_expired(s(50)), None, "the stale s(10) entry must be skipped");
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_expired(s(100)), Some(("conn", s(100))));
    }

    #[test]
    fn reschedule_can_also_pull_a_deadline_in() {
        let mut w = DeadlineWheel::new();
        let far = w.insert(s(100), "drain");
        w.cancel(far);
        w.insert(s(1), "drain");
        assert_eq!(w.next_deadline(), Some(s(1)));
        assert_eq!(w.pop_expired(s(1)), Some(("drain", s(1))));
        assert!(w.is_empty());
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn cancel_removes_lazily() {
        let mut w = DeadlineWheel::new();
        let x = w.insert(s(1), "x");
        w.insert(s(2), "y");
        assert_eq!(w.cancel(x), Some("x"));
        assert_eq!(w.cancel(x), None, "double cancel reports nothing live");
        assert_eq!(w.len(), 1);
        assert_eq!(w.heap_len(), 2, "the cancelled entry waits to surface");
        assert_eq!(w.next_deadline(), Some(s(2)), "cancelled top entry swept");
        assert_eq!(w.heap_len(), 1);
        assert_eq!(w.pop_expired(s(5)), Some(("y", s(2))));
        assert_eq!(w.pop_expired(s(5)), None);
    }

    #[test]
    fn pop_next_ignores_now_but_keeps_order() {
        let mut w = DeadlineWheel::new();
        w.insert(s(100), "late");
        w.insert(s(1), "early");
        w.insert(s(1), "tie");
        assert_eq!(w.pop_next(), Some(("early", s(1))));
        assert_eq!(w.pop_next(), Some(("tie", s(1))), "FIFO among equal deadlines");
        assert_eq!(w.pop_next(), Some(("late", s(100))), "not gated on any notion of now");
        assert_eq!(w.pop_next(), None);
    }

    #[test]
    fn a_fired_key_is_inert_after_its_slot_is_reused() {
        let mut w = DeadlineWheel::new();
        let first = w.insert(s(1), 1);
        assert_eq!(w.pop_next(), Some((1, s(1))));
        let second = w.insert(s(2), 2);
        assert_eq!(w.cancel(first), None, "the slot now belongs to `second`");
        assert_eq!(w.deadline_of(first), None);
        assert_eq!(w.deadline_of(second), Some(s(2)));
        assert_eq!(w.pop_next(), Some((2, s(2))));
    }

    #[test]
    fn heavy_rescheduling_stays_consistent() {
        // A hot connection rescheduling on every read: the live view must
        // never lie, and the stale entries must not pile up.
        let mut w = DeadlineWheel::new();
        let mut key = w.insert(s(1), "hot");
        for i in 1..10_000u64 {
            assert_eq!(w.cancel(key), Some("hot"));
            key = w.insert(s(i + 1), "hot");
        }
        assert_eq!(w.len(), 1);
        assert!(w.heap_len() <= 2 + COMPACT_SLACK, "heap {}", w.heap_len());
        assert_eq!(w.deadline_of(key), Some(s(10_000)));
        assert_eq!(w.pop_expired(s(9_999)), None);
        assert_eq!(w.pop_expired(s(10_000)), Some(("hot", s(10_000))));
        assert!(w.is_empty());
    }

    #[test]
    fn stale_entries_stay_bounded_beside_an_idle_key() {
        // One idle connection next to one rescheduled at 50k reads/s, for
        // 1M reads. Before compaction the heap held every superseded
        // deadline: 2 live keys over 1,000,001 entries.
        let mut w = DeadlineWheel::new();
        let idle = w.insert(s(3_600), "idle");
        let mut hot = w.insert(s(60), "hot");
        for read in 1..=1_000_000u64 {
            let now = Duration::from_micros(read * 20);
            assert_eq!(w.pop_expired(now), None);
            assert_eq!(w.cancel(hot), Some("hot"));
            hot = w.insert(now + s(60), "hot");
            assert!(w.heap_len() <= 2 * w.len() + COMPACT_SLACK + 1, "heap {}", w.heap_len());
        }
        assert_eq!(w.len(), 2);
        assert_eq!(w.deadline_of(idle), Some(s(3_600)));
    }

    #[test]
    fn compaction_keeps_the_order_of_what_survives() {
        let mut w = DeadlineWheel::new();
        // Deadlines 0..7 s in a scrambled insertion order, with ties.
        let keys: Vec<_> = (0..200u64).map(|i| w.insert(s(i * 37 % 7), i)).collect();
        for key in keys.iter().filter(|k| k.seq % 5 != 0) {
            assert!(w.cancel(*key).is_some());
        }
        assert_eq!(w.len(), 40);
        assert!(w.heap_len() <= 2 * 40 + COMPACT_SLACK, "compacted: heap {}", w.heap_len());
        let popped: Vec<(u64, Duration)> = std::iter::from_fn(|| w.pop_next()).collect();
        let mut expect: Vec<(u64, Duration)> =
            (0..200u64).filter(|i| i % 5 == 0).map(|i| (i, s(i * 37 % 7))).collect();
        expect.sort_by_key(|&(i, at)| (at, i));
        assert_eq!(popped, expect);
    }

    #[test]
    fn far_deadlines_saturate_instead_of_wrapping() {
        let mut w = DeadlineWheel::new();
        w.insert(Duration::MAX, "never");
        w.insert(s(1), "soon");
        assert_eq!(w.pop_next(), Some(("soon", s(1))));
        assert_eq!(w.pop_expired(s(1_000_000)), None);
        assert_eq!(w.pop_next(), Some(("never", Duration::from_nanos(u64::MAX))));
    }
}
