//! Cached metric handles against the name-based `Scope` path: the same
//! records must leave byte-identical exports, and a handle must never
//! create a metric nobody recorded or write into the wrong registry.

use beware_telemetry::{Handle, Metric, Registry};
use proptest::prelude::*;

/// Metric kinds the recorders fix on first use.
#[derive(Clone, Copy)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

/// Full names across the deterministic and excluded families, nested to
/// different depths, each with the one kind it is recorded as.
const NAMES: [(&str, Kind); 7] = [
    ("serve/requests", Kind::Counter),
    ("serve/bytes_in", Kind::Counter),
    ("walltime/serve/request_ns", Kind::Histogram),
    ("sched/serve/read_budget_deferrals", Kind::Counter),
    ("netsim/queue_peak", Kind::Gauge),
    ("probe/survey/rtt/us", Kind::Histogram),
    ("top", Kind::Counter),
];

/// Record through a `Scope`: the prefix before the last `/`, then the
/// leaf under it.
fn record_by_name(reg: &mut Registry, name: &str, kind: Kind, value: u64) {
    let (prefix, leaf) = name.rsplit_once('/').unwrap_or(("", name));
    let mut scope = reg.scope(prefix);
    match kind {
        Kind::Counter => scope.add(leaf, value),
        Kind::Gauge => scope.gauge_max(leaf, value),
        Kind::Histogram => scope.observe(leaf, value),
    }
}

fn record_by_handle(reg: &mut Registry, handle: &mut Handle, kind: Kind, value: u64) {
    match kind {
        Kind::Counter => handle.add(reg, value),
        Kind::Gauge => handle.gauge_max(reg, value),
        Kind::Histogram => handle.observe(reg, value),
    }
}

fn assert_same(by_name: &Registry, by_handle: &Registry) {
    assert_eq!(by_name.to_json(), by_handle.to_json());
    assert_eq!(by_name.render_text(), by_handle.render_text());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random record sequences into two registries, one pair recorded by
    /// name and one by handle, with the handles shared across both
    /// registries and the registries replaced by clones mid-sequence (a
    /// clone is a new identity, so every cached index must re-resolve).
    #[test]
    fn handles_and_scope_names_export_identical_bytes(
        ops in proptest::collection::vec((0u8..16, 0usize..7, any::<u64>()), 1..400),
    ) {
        let mut by_name = [Registry::new(), Registry::new()];
        let mut by_handle = [Registry::new(), Registry::new()];
        let mut handles: Vec<Handle> = NAMES.iter().map(|&(name, _)| Handle::new(name)).collect();
        for &(op, which, draw) in &ops {
            let (name, kind) = NAMES[which];
            let reg = usize::from(op % 2 == 1);
            match op {
                // Clone one registry pair; drop the originals.
                14 | 15 => {
                    by_name[reg] = by_name[reg].clone();
                    by_handle[reg] = by_handle[reg].clone();
                }
                _ => {
                    // Small values keep counters far from overflow and
                    // histogram buckets shared.
                    let value = draw % 5_000;
                    record_by_name(&mut by_name[reg], name, kind, value);
                    record_by_handle(&mut by_handle[reg], &mut handles[which], kind, value);
                }
            }
        }
        assert_same(&by_name[0], &by_handle[0]);
        assert_same(&by_name[1], &by_handle[1]);
        // Merging in either order is also unchanged by the path taken.
        let mut merged_name = by_name[0].clone();
        merged_name.merge(&by_name[1]);
        let mut merged_handle = by_handle[0].clone();
        merged_handle.merge(&by_handle[1]);
        assert_same(&merged_name, &merged_handle);
    }
}

#[test]
fn a_handle_that_never_records_leaves_no_metric() {
    let mut reg = Registry::new();
    let _unused = Handle::new("serve/requests");
    // Used only on a disabled registry: nothing anywhere.
    let mut off = Registry::disabled();
    let mut queries = Handle::new("serve/queries");
    queries.incr(&mut off);
    assert!(off.is_empty());
    assert!(reg.is_empty(), "creating handles records nothing");
    // Its first live record creates exactly its own metric.
    queries.incr(&mut reg);
    assert_eq!(reg.len(), 1);
    assert_eq!(reg.counter("serve/queries"), Some(1));
    assert_eq!(reg.get("serve/requests"), None);
    assert_eq!(reg.to_json().matches("\"name\"").count(), 1);
}

#[test]
fn a_handle_records_into_the_registry_it_is_given() {
    // `a` resolves the handle at arena index 1; `b` holds a different
    // counter at that index. A cached index must not leak across.
    let mut a = Registry::new();
    a.scope("other").incr("first");
    let mut hits = Handle::new("serve/hits_exact");
    hits.add(&mut a, 2);
    let mut b = Registry::new();
    b.scope("other").incr("first");
    b.scope("other").incr("second");
    hits.add(&mut b, 5);
    assert_eq!(b.counter("other/second"), Some(1), "b's index-1 metric untouched");
    assert_eq!(b.counter("serve/hits_exact"), Some(5));
    assert_eq!(a.counter("serve/hits_exact"), Some(2));

    // A clone is its own registry: recording into it leaves the original
    // alone, and recording into the original afterwards still lands there.
    let mut c = a.clone();
    hits.add(&mut c, 10);
    hits.add(&mut a, 1);
    assert_eq!(c.counter("serve/hits_exact"), Some(12));
    assert_eq!(a.counter("serve/hits_exact"), Some(3));

    // Histograms and gauges follow the same rule.
    let mut lat = Handle::new("walltime/serve/request_ns");
    lat.observe(&mut a, 7);
    lat.observe(&mut c, 9);
    match (a.get("walltime/serve/request_ns"), c.get("walltime/serve/request_ns")) {
        (Some(Metric::Histogram(ha)), Some(Metric::Histogram(hc))) => {
            assert_eq!((ha.count, ha.sum), (1, 7));
            assert_eq!((hc.count, hc.sum), (1, 9));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
#[should_panic(expected = "not a counter")]
fn a_handle_keeps_the_kind_check() {
    let mut reg = Registry::new();
    reg.scope("serve").gauge_max("requests", 1);
    Handle::new("serve/requests").incr(&mut reg);
}
