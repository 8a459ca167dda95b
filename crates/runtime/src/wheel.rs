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
//! through a free list; a monotone radix heap (Ahuja, Mehlhorn, Orlin &
//! Tarjan, 1990) orders plain integer entries `(at_ns, seq, slot)`. `seq`
//! is unique per insert, so the order is total without any bound on `V`.
//! A [`TimerKey`] is the slot plus the `seq` it was issued with, so no
//! hashing happens anywhere: cancel is a slot lookup and a `seq` compare,
//! and a stale key — fired, cancelled, or pointing at a slot since
//! reused — is inert.
//!
//! The radix heap exploits that simulated time and a shard's clock never
//! go backwards. It keeps a *base* no queued deadline precedes — the
//! earliest deadline it last brought to the front — and files each entry
//! in bucket `b`, the number of significant bits in `at_ns ^ base`:
//! bucket 0 holds entries due exactly at the base, bucket `b ≥ 1` those
//! whose highest bit differing from it is bit `b - 1`. When bucket 0
//! runs dry, the lowest non-empty bucket's minimum (tracked as entries
//! arrive) becomes the new base and that bucket is redistributed into
//! lower ones in one pass; every entry can only move down, so each is
//! touched at most 64 times over its life and usually a handful. Buckets
//! are append-only and a redistribution keeps their order, which makes
//! ties on `at_ns` pop FIFO without comparing `seq`. An insert *earlier*
//! than the base — a shard arming a deadline sooner than the one
//! [`next_deadline`](DeadlineWheel::next_deadline) just reported — goes
//! to a small side list kept sorted by `(at_ns, seq)`, which drains
//! before the buckets.
//!
//! Cancellation is **lazy**: the cancelled entry stays queued and is
//! skipped when it surfaces (its `seq` no longer matches a live slot).
//! Stale entries are compacted away as soon as they outnumber the live
//! ones, so a hot connection rescheduled on every read (cancel plus
//! insert) keeps the queue within about twice the live count.
//!
//! Timestamps are stored as whole nanoseconds, saturating at `u64::MAX`
//! (about 584 years); later deadlines all read back as that instant.

use std::collections::VecDeque;
use std::time::Duration;

/// Stale entries tolerated on top of the live count before a
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

/// One queued deadline: the slot it names and the `seq` that proves the
/// slot still holds the value it was queued for.
#[derive(Debug, Clone, Copy)]
struct Entry {
    at_ns: u64,
    seq: u64,
    slot: u32,
}

/// A deadline scheduler over values of type `V`.
///
/// Timestamps are [`Duration`]s on whatever [`crate::Clock`] the caller
/// uses — the wheel itself never reads a clock, which is what keeps it
/// trivially virtual-time-compatible. Expiry order is deterministic: by
/// deadline, ties in insertion order.
#[derive(Debug)]
pub struct DeadlineWheel<V> {
    slots: Vec<Slot<V>>,
    /// Empty slots, reused before the slab grows.
    free: Vec<u32>,
    live: usize,
    next_seq: u64,
    /// No entry in `due` or `buckets` is earlier. Only rises.
    base: u64,
    /// Bucket 0: entries due exactly at `base`, in insertion order.
    due: VecDeque<Entry>,
    /// Buckets 1..=64 at indices 0..64: `buckets[i]` holds entries whose
    /// deadline's highest bit differing from `base` is bit `i`.
    buckets: [Vec<Entry>; 64],
    /// `mins[i]`: the earliest deadline pushed into `buckets[i]` since it
    /// was last emptied (stale entries included, so a lower bound).
    mins: [u64; 64],
    /// Bit `i` set exactly when `buckets[i]` is non-empty.
    mask: u64,
    /// Entries earlier than `base`, sorted latest first so the earliest
    /// pops off the end.
    early: Vec<Entry>,
    /// Entries queued anywhere, pending and stale together.
    queued: usize,
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
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
            base: 0,
            due: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            mins: [u64::MAX; 64],
            mask: 0,
            early: Vec::new(),
            queued: 0,
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
        self.queued += 1;
        let entry = Entry { at_ns, seq, slot };
        if at_ns < self.base {
            // `early` runs latest first and this entry has the largest
            // `seq`, so it goes ahead of its ties and pops after them.
            let at = self.early.partition_point(|e| e.at_ns > at_ns);
            self.early.insert(at, entry);
        } else {
            self.file(entry);
        }
        TimerKey { slot, seq }
    }

    /// Cancel `key`, returning its value if it was still pending. Fired,
    /// already-cancelled and reused-slot keys return `None`. The queued
    /// entry is dropped lazily.
    pub fn cancel(&mut self, key: TimerKey) -> Option<V> {
        let slot = self.slots.get_mut(key.slot as usize)?;
        if slot.seq != key.seq {
            return None;
        }
        let value = slot.value.take()?;
        self.release(key.slot);
        if self.queued - self.live > self.live + COMPACT_SLACK {
            self.compact();
        }
        Some(value)
    }

    /// The deadline of `key`, if it is still pending.
    pub fn deadline_of(&self, key: TimerKey) -> Option<Duration> {
        let slot = self.slots.get(key.slot as usize)?;
        (slot.seq == key.seq && slot.value.is_some()).then(|| Duration::from_nanos(slot.at_ns))
    }

    /// The earliest pending deadline (sweeping stale entries off the
    /// front).
    pub fn next_deadline(&mut self) -> Option<Duration> {
        self.front().map(|e| Duration::from_nanos(e.at_ns))
    }

    /// Pop one value whose deadline is `<= now`, with its deadline.
    /// Deterministic order: earliest deadline first, FIFO among equals.
    pub fn pop_expired(&mut self, now: Duration) -> Option<(V, Duration)> {
        let now = nanos(now);
        // Nothing queued can be due while a lower bound on every queued
        // deadline is later than `now`; answering from the bound leaves
        // the base where it is.
        if self.lower_bound()? > now {
            return None;
        }
        match self.front() {
            Some(e) if e.at_ns <= now => Some(self.take_front(e)),
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
        let e = self.front()?;
        Some(self.take_front(e))
    }

    /// Number of pending values.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Queued entries, pending and stale together: at most about twice
    /// [`len`](DeadlineWheel::len) — the bound compaction keeps.
    pub fn heap_len(&self) -> usize {
        self.queued
    }

    /// Return an emptied slot to the free list.
    fn release(&mut self, slot: u32) {
        self.free.push(slot);
        self.live -= 1;
    }

    /// Whether `entry` still names a pending value.
    fn is_live(slots: &[Slot<V>], entry: &Entry) -> bool {
        let s = &slots[entry.slot as usize];
        s.seq == entry.seq && s.value.is_some()
    }

    /// File an entry no earlier than `base` into its radix bucket.
    fn file(&mut self, entry: Entry) {
        match (entry.at_ns ^ self.base).checked_ilog2() {
            None => self.due.push_back(entry),
            Some(bit) => {
                let i = bit as usize;
                self.buckets[i].push(entry);
                self.mins[i] = self.mins[i].min(entry.at_ns);
                self.mask |= 1 << i;
            }
        }
    }

    /// A deadline no later than the earliest queued entry, live or
    /// stale; `None` when nothing is queued.
    fn lower_bound(&self) -> Option<u64> {
        if let Some(e) = self.early.last() {
            return Some(e.at_ns);
        }
        if !self.due.is_empty() {
            return Some(self.base);
        }
        (self.mask != 0).then(|| self.mins[self.mask.trailing_zeros() as usize])
    }

    /// The earliest pending entry, left at the front of `early` or `due`:
    /// stale entries ahead of it are dropped, and buckets are
    /// redistributed until bucket 0 holds it.
    fn front(&mut self) -> Option<Entry> {
        while let Some(e) = self.early.last() {
            if Self::is_live(&self.slots, e) {
                return Some(*e);
            }
            self.early.pop();
            self.queued -= 1;
        }
        loop {
            while let Some(e) = self.due.front() {
                if Self::is_live(&self.slots, e) {
                    return Some(*e);
                }
                self.due.pop_front();
                self.queued -= 1;
            }
            if self.mask == 0 {
                return None;
            }
            self.redistribute();
        }
    }

    /// Advance the base to the lowest non-empty bucket's minimum and
    /// refile that bucket's entries, in order, into the (empty) buckets
    /// below it. The caller has drained `due` and `early`.
    fn redistribute(&mut self) {
        let i = self.mask.trailing_zeros() as usize;
        self.base = self.mins[i];
        self.mins[i] = u64::MAX;
        self.mask &= !(1 << i);
        let mut bucket = std::mem::take(&mut self.buckets[i]);
        for entry in bucket.drain(..) {
            self.file(entry);
        }
        // Keep the emptied bucket's allocation for its next fill.
        self.buckets[i] = bucket;
    }

    /// Remove `entry`, which [`front`](Self::front) just returned, and
    /// hand back its value.
    fn take_front(&mut self, entry: Entry) -> (V, Duration) {
        if self.early.pop().is_none() {
            self.due.pop_front();
        }
        self.queued -= 1;
        let value = self.slots[entry.slot as usize].value.take().expect("live slot holds a value");
        self.release(entry.slot);
        (value, Duration::from_nanos(entry.at_ns))
    }

    /// Drop every stale entry, keeping each bucket's order, and re-derive
    /// the bucket minimums.
    fn compact(&mut self) {
        let slots = &self.slots;
        let live = |e: &Entry| Self::is_live(slots, e);
        self.early.retain(live);
        self.due.retain(live);
        self.mask = 0;
        for (i, (bucket, min)) in self.buckets.iter_mut().zip(&mut self.mins).enumerate() {
            bucket.retain(live);
            *min = bucket.iter().map(|e| e.at_ns).min().unwrap_or(u64::MAX);
            if !bucket.is_empty() {
                self.mask |= 1 << i;
            }
        }
        self.queued = self.live;
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
    fn an_insert_below_the_reported_deadline_pops_first_and_in_order() {
        // The shard pattern: ask for the next deadline (which advances
        // the radix base to it), then arm deadlines earlier than that one
        // but later than the last pop, and expect them first, FIFO among
        // ties, before the deadline that was reported.
        let mut w = DeadlineWheel::new();
        w.insert(s(1), "first");
        w.insert(s(100), "idle");
        w.insert(s(100), "idle-tie");
        assert_eq!(w.pop_expired(s(1)), Some(("first", s(1))));
        assert_eq!(w.next_deadline(), Some(s(100)));
        w.insert(s(40), "reload");
        w.insert(s(10), "drain");
        w.insert(s(40), "reload-tie");
        w.insert(s(100), "idle-late");
        assert_eq!(w.next_deadline(), Some(s(10)));
        assert_eq!(w.pop_expired(s(5)), None);
        assert_eq!(w.pop_expired(s(50)), Some(("drain", s(10))));
        assert_eq!(w.pop_expired(s(50)), Some(("reload", s(40))));
        assert_eq!(w.pop_expired(s(50)), Some(("reload-tie", s(40))));
        assert_eq!(w.pop_expired(s(50)), None);
        assert_eq!(w.pop_expired(s(100)), Some(("idle", s(100))));
        assert_eq!(w.pop_expired(s(100)), Some(("idle-tie", s(100))));
        assert_eq!(w.pop_expired(s(100)), Some(("idle-late", s(100))));
        assert!(w.is_empty());
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
