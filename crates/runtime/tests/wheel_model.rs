//! Property test: the slab-keyed [`DeadlineWheel`] against a reference
//! model, a `BTreeMap` ordered by `(deadline, insertion sequence)`.

use beware_runtime::wheel::{DeadlineWheel, TimerKey};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

/// The model: every pending value under `(deadline ns, insertion seq)`,
/// which is exactly the order the wheel promises (FIFO among ties).
#[derive(Default)]
struct Model {
    pending: BTreeMap<(u64, u64), u64>,
    next_seq: u64,
}

impl Model {
    fn pop_first_due(&mut self, now_ns: u64) -> Option<(u64, Duration)> {
        let (&(at, seq), _) = self.pending.iter().next()?;
        if at > now_ns {
            return None;
        }
        let value = self.pending.remove(&(at, seq)).expect("first entry present");
        Some((value, Duration::from_nanos(at)))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slab_wheel_matches_the_ordered_map_model(
        ops in proptest::collection::vec((0u8..8, any::<u64>()), 1..600),
    ) {
        let mut wheel: DeadlineWheel<u64> = DeadlineWheel::new();
        let mut model = Model::default();
        // Every key ever issued, with the model entry it names. Keys stay
        // in this list after they fire or are cancelled, so later draws
        // replay stale keys whose slot has since been reused (the ABA
        // case): they must stay inert.
        let mut issued: Vec<(TimerKey, (u64, u64))> = Vec::new();
        let mut next_value = 0u64;
        for &(kind, draw) in &ops {
            match kind {
                // Inserts dominate so the wheel grows deep; deadlines fall
                // in a 64 ns window so same-instant ties are common.
                0 | 1 => {
                    let at_ns = draw % 64;
                    let key = wheel.insert(Duration::from_nanos(at_ns), next_value);
                    let entry = (at_ns, model.next_seq);
                    model.next_seq += 1;
                    model.pending.insert(entry, next_value);
                    issued.push((key, entry));
                    next_value += 1;
                }
                // Cancels are as common as pops, so stale entries build up
                // past the compaction threshold.
                2 | 7 => {
                    if !issued.is_empty() {
                        let (key, entry) = issued[draw as usize % issued.len()];
                        prop_assert_eq!(wheel.cancel(key), model.pending.remove(&entry));
                    }
                }
                3 => {
                    if !issued.is_empty() {
                        let (key, entry) = issued[draw as usize % issued.len()];
                        let expect = model.pending.contains_key(&entry)
                            .then(|| Duration::from_nanos(entry.0));
                        prop_assert_eq!(wheel.deadline_of(key), expect);
                    }
                }
                4 => {
                    let now_ns = draw % 80;
                    prop_assert_eq!(
                        wheel.pop_expired(Duration::from_nanos(now_ns)),
                        model.pop_first_due(now_ns)
                    );
                }
                5 => {
                    prop_assert_eq!(wheel.pop_next(), model.pop_first_due(u64::MAX));
                }
                6 => {
                    let expect = model.pending.keys().next().map(|&(at, _)| Duration::from_nanos(at));
                    prop_assert_eq!(wheel.next_deadline(), expect);
                }
                _ => unreachable!("op kinds are drawn from 0..8"),
            }
            prop_assert_eq!(wheel.len(), model.pending.len());
            prop_assert!(
                wheel.heap_len() <= 2 * wheel.len() + 64,
                "heap {} for {} pending", wheel.heap_len(), wheel.len()
            );
        }
        // Drain: the rest must come out in model order, then both agree
        // that nothing is left.
        loop {
            let popped = wheel.pop_next();
            prop_assert_eq!(popped, model.pop_first_due(u64::MAX));
            if popped.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty());
    }
}

/// The wheel, the model and every key issued so far, driven one
/// operation at a time and compared after each.
#[derive(Default)]
struct Harness {
    wheel: DeadlineWheel<u64>,
    model: Model,
    issued: Vec<(TimerKey, (u64, u64))>,
    next_value: u64,
}

impl Harness {
    fn insert(&mut self, at: Duration) {
        let at_ns = u64::try_from(at.as_nanos()).unwrap_or(u64::MAX);
        let key = self.wheel.insert(at, self.next_value);
        let entry = (at_ns, self.model.next_seq);
        self.model.next_seq += 1;
        self.model.pending.insert(entry, self.next_value);
        self.issued.push((key, entry));
        self.next_value += 1;
    }

    fn cancel(&mut self, draw: u64) {
        if !self.issued.is_empty() {
            let (key, entry) = self.issued[draw as usize % self.issued.len()];
            prop_assert_eq!(self.wheel.cancel(key), self.model.pending.remove(&entry));
            let deadline = self.wheel.deadline_of(key);
            prop_assert_eq!(deadline, None, "a cancelled key is inert");
        }
    }

    fn pop_expired(&mut self, now: Duration) -> Option<Duration> {
        let now_ns = u64::try_from(now.as_nanos()).unwrap_or(u64::MAX);
        let popped = self.wheel.pop_expired(now);
        prop_assert_eq!(popped, self.model.pop_first_due(now_ns));
        popped.map(|(_, at)| at)
    }

    fn pop_next(&mut self) -> Option<Duration> {
        let popped = self.wheel.pop_next();
        prop_assert_eq!(popped, self.model.pop_first_due(u64::MAX));
        popped.map(|(_, at)| at)
    }

    fn next_deadline(&mut self) {
        let expect = self.model.pending.keys().next().map(|&(at, _)| Duration::from_nanos(at));
        prop_assert_eq!(self.wheel.next_deadline(), expect);
    }

    fn check_bounds(&self) {
        prop_assert_eq!(self.wheel.len(), self.model.pending.len());
        prop_assert!(
            self.wheel.heap_len() <= 2 * self.wheel.len() + 64,
            "queue {} for {} pending",
            self.wheel.heap_len(),
            self.wheel.len()
        );
    }

    fn drain(&mut self) {
        while self.pop_next().is_some() {}
        prop_assert!(self.wheel.is_empty());
    }
}

/// A deadline anywhere in the `Duration` range, weighted so every radix
/// bucket fills: full-width nanosecond counts, counts shifted down to
/// every magnitude, and seconds past `u64::MAX` nanoseconds (including
/// `Duration::MAX`), which saturate.
fn wide_deadline(draw: u64) -> Duration {
    match draw % 5 {
        0 => Duration::MAX,
        1 => Duration::from_nanos(draw),
        2 => Duration::from_nanos(u64::MAX - (draw >> 40)),
        3 => Duration::from_secs(u64::MAX / 1_000_000_000 + (draw >> 60)),
        _ => Duration::from_nanos(draw >> (draw >> 58)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The same model, two phases. First, deadlines spread over the whole
    /// `u64` nanosecond range, `Duration::MAX` saturation included, with
    /// `pop_expired` probes just as wide — so the high radix buckets and
    /// inserts far below the base are exercised. Then a monotone drift
    /// like netsim's: every insert lands at or after the last pop, a
    /// quarter of them on exactly that nanosecond, and each pop moves
    /// "now" forward to what it returned.
    #[test]
    fn radix_wheel_matches_the_model_over_the_whole_range_and_under_drift(
        wide in proptest::collection::vec((0u8..6, any::<u64>()), 1..300),
        drift in proptest::collection::vec((0u8..6, any::<u64>()), 1..600),
    ) {
        let mut h = Harness::default();
        for &(kind, draw) in &wide {
            match kind {
                0 | 1 => h.insert(wide_deadline(draw)),
                2 => h.cancel(draw),
                3 => {
                    h.pop_expired(wide_deadline(draw.rotate_left(17)));
                }
                4 => {
                    h.pop_next();
                }
                _ => h.next_deadline(),
            }
            h.check_bounds();
        }
        h.drain();

        // Drift starts wherever the wide phase left the wheel's base.
        let mut now = Duration::from_nanos(wide[0].1 >> 8);
        for &(kind, draw) in &drift {
            match kind {
                0..=2 => {
                    // Offsets from 0 ns up to ~2^40 ns, a quarter of them
                    // zero: dense same-nanosecond ties.
                    let offset = match draw % 4 {
                        0 => 0,
                        _ => (draw >> 8) & ((1u64 << (draw >> 2 & 0x3f).min(40)) - 1),
                    };
                    h.insert(now + Duration::from_nanos(offset));
                }
                3 => h.cancel(draw),
                4 => {
                    let horizon = now + Duration::from_nanos(draw % (1 << 24));
                    if let Some(at) = h.pop_expired(horizon) {
                        now = at;
                    }
                }
                _ => {
                    if draw % 2 == 0 {
                        h.next_deadline();
                    }
                    if let Some(at) = h.pop_next() {
                        now = at;
                    }
                }
            }
            h.check_bounds();
        }
        h.drain();
    }
}
