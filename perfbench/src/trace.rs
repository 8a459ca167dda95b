//! Spans around the calls the benchmark makes into each layer.
//!
//! Every span has a name (`<crate>.<component>.<op>`), a start, an end
//! and a parent: the span open on the same thread when it began. Spans
//! are aggregated per name as they close, so memory stays flat however
//! many events a run makes. A span's **self time** is its duration minus
//! the time its child spans cover; self times of all spans plus the
//! explicit unattributed remainder add up to the traced wall time.
//!
//! Tracing is per thread: a worker drains its table with [`take`] before
//! it exits and the caller merges the tables in task order.

use crate::alloc;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Aggregate of every closed span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    /// Spans closed.
    pub calls: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed duration minus child spans, nanoseconds.
    pub self_ns: u64,
    /// Allocations made inside the span but outside its children.
    pub self_allocs: u64,
}

impl SpanStats {
    /// Mean duration per call, nanoseconds (0 for a span never entered).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }

    /// Mean self allocations per call.
    pub fn allocs_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_allocs as f64 / self.calls as f64
        }
    }
}

/// Span table keyed by name.
pub type Table = BTreeMap<&'static str, SpanStats>;

struct Frame {
    start: Instant,
    allocs: u64,
    child_ns: u64,
    child_allocs: u64,
}

#[derive(Default)]
struct Tracer {
    on: bool,
    stack: Vec<Frame>,
    table: Table,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Start recording spans on this thread.
pub fn enable() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.on = true;
        t.stack.reserve(16);
    });
}

/// Open a span. Pair every `enter` with an [`exit`] on the same thread.
#[inline]
pub fn enter() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.on {
            t.stack.push(Frame {
                start: Instant::now(),
                allocs: alloc::thread_allocs(),
                child_ns: 0,
                child_allocs: 0,
            });
        }
    });
}

/// Close the innermost open span and account it under `name`.
#[inline]
pub fn exit(name: &'static str) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return;
        }
        let f = t.stack.pop().expect("trace::exit without a matching enter");
        let ns = f.start.elapsed().as_nanos() as u64;
        let allocs = alloc::thread_allocs() - f.allocs;
        if let Some(parent) = t.stack.last_mut() {
            parent.child_ns += ns;
            parent.child_allocs += allocs;
        }
        let s = t.table.entry(name).or_default();
        s.calls += 1;
        s.total_ns += ns;
        s.self_ns += ns.saturating_sub(f.child_ns);
        s.self_allocs += allocs.saturating_sub(f.child_allocs);
    });
}

/// Run `f` inside a span named `name`.
#[inline]
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    enter();
    let r = f();
    exit(name);
    r
}

/// Stop recording on this thread and return its table.
pub fn take() -> Table {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert!(t.stack.is_empty(), "trace::take with open spans");
        t.on = false;
        std::mem::take(&mut t.table)
    })
}

/// Fold `from` into `into`.
pub fn merge(into: &mut Table, from: &Table) {
    for (name, s) in from {
        let d = into.entry(name).or_default();
        d.calls += s.calls;
        d.total_ns += s.total_ns;
        d.self_ns += s.self_ns;
        d.self_allocs += s.self_allocs;
    }
}
