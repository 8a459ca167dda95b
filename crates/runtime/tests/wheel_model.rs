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
