//! # beware-telemetry
//!
//! Hierarchical, deterministic telemetry for the beware stack: counters,
//! max-gauges and log-bucketed histograms behind a [`Registry`]/[`Scope`]
//! API. Wall-clock measurements are recorded under their own `walltime/`
//! family, which stays out of the deterministic export.
//!
//! Design constraints (see DESIGN.md §7 for the full contract):
//!
//! * **Deterministic.** Every metric except the `walltime/` family is a
//!   pure function of the simulation inputs. [`Registry::to_json`] skips
//!   `walltime/`, so the JSON export is byte-identical across runs and
//!   thread counts; [`Registry::merge`] is commutative over `u64`
//!   arithmetic but callers still merge in fixed task order so even a
//!   future non-commutative metric kind would stay reproducible.
//! * **No allocation once a name exists.** A [`Scope`] keeps its prefix
//!   inline and joins `prefix/name` in a stack buffer; the registry looks
//!   the joined `&str` up in place and allocates the key only the first
//!   time a name is recorded. So `reg.scope("serve").incr("queries")` on
//!   a per-request path costs a short copy and one ordered-map lookup,
//!   and lands in the registry synchronously. A [`Handle`] goes further:
//!   it resolves its name once per registry and then records by arena
//!   index, with no lookup at all. A registry built with
//!   [`Registry::disabled`] turns every recording call into a branch on
//!   one bool.
//! * **Hierarchical names.** Metric names are `/`-joined paths
//!   (`probe/survey/matched`); a [`Scope`] is a registry view with a
//!   fixed prefix, nestable via [`Scope::scope`].
//! * **No dependencies.** The workspace is hermetic; the JSON export is
//!   hand-rendered and read back by a minimal parser covering exactly the
//!   emitted subset.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Family prefix for wall-clock measurements. Metrics under this prefix
/// are nondeterministic by nature and are excluded from
/// [`Registry::to_json`]; they still merge and render as text.
pub const WALLTIME_FAMILY: &str = "walltime/";

/// Family prefix for scheduling-dependent metrics: values that depend on
/// how work happened to be distributed (which shard a connection landed
/// on, per-shard cache hits, idle-timeout closures) rather than on the
/// inputs. Like [`WALLTIME_FAMILY`], the family is excluded from
/// [`Registry::to_json`] so the deterministic export stays byte-identical
/// across thread and shard counts; it still merges and renders as text.
pub const SCHED_FAMILY: &str = "sched/";

/// Family prefix for fault counters: faults injected by the chaos layer
/// (`beware-faultsim`) and faults *handled* by the serving stack (write
/// backpressure, bounded-queue overflows, poisoned client connections).
/// Whether and when a fault fires depends on wall-clock races between
/// peers, so the family is excluded from [`Registry::to_json`] like
/// [`WALLTIME_FAMILY`] and [`SCHED_FAMILY`]; it still merges and renders
/// as text.
pub const FAULTS_FAMILY: &str = "faults/";

/// The family prefixes excluded from the deterministic JSON export.
pub const NONDETERMINISTIC_FAMILIES: [&str; 3] = [WALLTIME_FAMILY, SCHED_FAMILY, FAULTS_FAMILY];

/// Log-bucketed histogram over `u64` values (latencies in µs, sizes in
/// bytes — the unit is the caller's naming convention).
///
/// Bucket `b` holds values `v` with `bucket_of(v) == b`: bucket 0 holds
/// only `v == 0`, bucket `b ≥ 1` holds `2^(b-1) ≤ v < 2^b`. Buckets are
/// sparse; only observed buckets are stored.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Observations.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Bucket index → observation count.
    pub buckets: BTreeMap<u32, u64>,
}

/// Bucket index of a value: 0 for 0, else `floor(log2(v)) + 1` — pure
/// integer arithmetic, deterministic on every platform.
pub fn bucket_of(v: u64) -> u32 {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros()
    }
}

/// Inclusive upper bound of a bucket (`2^b - 1`), used for approximate
/// quantiles in the text report.
fn bucket_upper(b: u32) -> u64 {
    if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Histogram {
    /// Record one value.
    pub fn observe(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        *self.buckets.entry(bucket_of(v)).or_insert(0) += 1;
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (&b, &n) in &other.buckets {
            *self.buckets.entry(b).or_insert(0) += n;
        }
    }

    /// Approximate quantile (`q` in 0..=100): the inclusive upper bound of
    /// the bucket where the cumulative count crosses `q`% — an upper
    /// bound on the true quantile, exact to within one power of two.
    pub fn quantile_upper(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (&b, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(bucket_upper(b).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Mean of the observed values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One metric. The kind is fixed by the first recording under a name;
/// recording a different kind under the same name is a caller bug and
/// panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Metric {
    /// Monotonic count; merges by sum.
    Counter(u64),
    /// High-water mark; merges by max.
    Gauge(u64),
    /// Log-bucketed distribution; merges bucket-wise.
    Histogram(Histogram),
}

impl Metric {
    fn kind_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }

    fn merge(&mut self, other: &Metric, name: &str) {
        match (self, other) {
            (Metric::Counter(a), Metric::Counter(b)) => *a += b,
            (Metric::Gauge(a), Metric::Gauge(b)) => *a = (*a).max(*b),
            (Metric::Histogram(a), Metric::Histogram(b)) => a.merge(b),
            (a, b) => panic!(
                "telemetry kind mismatch for `{name}`: {} vs {}",
                a.kind_name(),
                b.kind_name()
            ),
        }
    }
}

/// One recording call: the metric kind it requires and its value.
#[derive(Debug, Clone, Copy)]
enum Record {
    Add(u64),
    Max(u64),
    Observe(u64),
}

impl Record {
    fn kind_name(self) -> &'static str {
        match self {
            Record::Add(_) => "counter",
            Record::Max(_) => "gauge",
            Record::Observe(_) => "histogram",
        }
    }

    /// The metric a first recording creates.
    fn fresh(self) -> Metric {
        match self {
            Record::Add(v) => Metric::Counter(v),
            Record::Max(v) => Metric::Gauge(v),
            Record::Observe(v) => {
                let mut h = Histogram::default();
                h.observe(v);
                Metric::Histogram(h)
            }
        }
    }

    /// Record into an existing metric, which must be of this kind.
    fn apply(self, metric: &mut Metric, name: &str) {
        match (self, metric) {
            (Record::Add(delta), Metric::Counter(v)) => *v += delta,
            (Record::Max(value), Metric::Gauge(v)) => *v = (*v).max(value),
            (Record::Observe(value), Metric::Histogram(h)) => h.observe(value),
            (record, m) => {
                panic!("telemetry: `{name}` is a {}, not a {}", m.kind_name(), record.kind_name())
            }
        }
    }
}

/// The metric store. Create one per independent unit of work (a task in
/// a parallel fan-out), record through [`Scope`]s or [`Handle`]s, then
/// [`merge`] the per-task registries **in task order** into one.
///
/// Metrics live in an append-only arena indexed by a name map, so a
/// metric keeps its arena index for the registry's whole life. Every
/// registry — a clone included — carries its own identity, which is what
/// lets a [`Handle`] cache an index safely.
///
/// [`merge`]: Registry::merge
#[derive(Debug)]
pub struct Registry {
    id: u64,
    enabled: bool,
    /// Name → index into `metrics`, in name order.
    names: BTreeMap<String, usize>,
    /// Append-only: an index, once handed out, names the same metric for
    /// the registry's life.
    metrics: Vec<Metric>,
}

/// A fresh registry identity: process-unique, never reused.
fn next_registry_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_enabled(false)
    }
}

impl Clone for Registry {
    /// A copy of every metric under a new identity: a [`Handle`] that
    /// cached an index into `self` resolves afresh against the clone.
    fn clone(&self) -> Self {
        Registry {
            id: next_registry_id(),
            enabled: self.enabled,
            names: self.names.clone(),
            metrics: self.metrics.clone(),
        }
    }
}

impl Registry {
    /// An enabled, empty registry.
    pub fn new() -> Self {
        Registry::with_enabled(true)
    }

    /// A disabled registry: every recording call is a no-op costing one
    /// branch; merge/export see an empty registry.
    pub fn disabled() -> Self {
        Registry::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Self {
        Registry { id: next_registry_id(), enabled, names: BTreeMap::new(), metrics: Vec::new() }
    }

    /// Whether recording is live.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Number of metrics recorded.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// A recording view prefixed with `name` (e.g. `"netsim"`).
    pub fn scope(&mut self, name: &str) -> Scope<'_> {
        Scope { reg: self, prefix: Name::join(&[name]) }
    }

    /// Look up a metric by full name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.names.get(name).map(|&i| &self.metrics[i])
    }

    /// Counter value by full name (0 when absent; `None` when the name
    /// holds a different kind).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            None => Some(0),
            Some(Metric::Counter(v)) => Some(*v),
            Some(_) => None,
        }
    }

    /// Iterate `(name, metric)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.names.iter().map(|(k, &i)| (k.as_str(), &self.metrics[i]))
    }

    /// Store `metric` under `name`, replacing what was there; returns
    /// its index. The key is copied to the heap only when it is new.
    fn put(&mut self, name: &str, metric: Metric) -> usize {
        if let Some(&i) = self.names.get(name) {
            self.metrics[i] = metric;
            return i;
        }
        let i = self.metrics.len();
        self.metrics.push(metric);
        self.names.insert(name.to_owned(), i);
        i
    }

    /// Apply `record` to the metric `name`, creating it on first use
    /// (the key is copied to the heap only then); returns its index.
    fn record(&mut self, name: &str, record: Record) -> usize {
        match self.names.get(name) {
            Some(&i) => {
                record.apply(&mut self.metrics[i], name);
                i
            }
            None => self.put(name, record.fresh()),
        }
    }

    /// Merge `other` into `self`: counters sum, gauges take the max,
    /// histograms merge bucket-wise. Call in **fixed task order** when
    /// combining parallel work so the result never depends on scheduling.
    /// A disabled `self` ignores the merge.
    pub fn merge(&mut self, other: &Registry) {
        if !self.enabled {
            return;
        }
        for (name, metric) in other.iter() {
            match self.names.get(name) {
                Some(&i) => self.metrics[i].merge(metric, name),
                None => {
                    self.put(name, metric.clone());
                }
            }
        }
    }

    /// Render the deterministic metrics as JSON (schema in DESIGN.md §7).
    /// The [`NONDETERMINISTIC_FAMILIES`] (`walltime/`, `sched/`,
    /// `faults/`) are excluded — this export is what the byte-identity
    /// contract covers.
    pub fn to_json(&self) -> String {
        json::render(self)
    }

    /// Parse a JSON document produced by [`Registry::to_json`] back into
    /// an (enabled) registry.
    pub fn from_json(text: &str) -> Result<Registry, String> {
        json::parse(text)
    }

    /// Render a human-readable text report, including `walltime/`.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("telemetry report ({} metrics)\n", self.metrics.len()));
        let width = self.names.keys().map(|k| k.len()).max().unwrap_or(0).min(48);
        let mut family = "";
        for (name, metric) in self.iter() {
            let fam = name.split('/').next().unwrap_or("");
            if fam != family {
                family = fam;
                out.push('\n');
            }
            match metric {
                Metric::Counter(v) => {
                    out.push_str(&format!("  {name:<width$}  {v}\n"));
                }
                Metric::Gauge(v) => {
                    out.push_str(&format!("  {name:<width$}  {v} (peak)\n"));
                }
                Metric::Histogram(h) => {
                    out.push_str(&format!(
                        "  {name:<width$}  count={} min={} max={} mean={:.1} p50≤{} p99≤{}\n",
                        h.count,
                        h.min,
                        h.max,
                        h.mean(),
                        h.quantile_upper(50.0).unwrap_or(0),
                        h.quantile_upper(99.0).unwrap_or(0),
                    ));
                }
            }
        }
        out
    }
}

/// Longest name (prefix or full metric name) kept on the stack; longer
/// ones are joined on the heap instead, with the same result.
const INLINE_NAME: usize = 96;

/// A `/`-joined metric name or prefix, assembled without touching the
/// heap when it fits in [`INLINE_NAME`] bytes.
enum Name {
    Inline { len: u8, buf: [u8; INLINE_NAME] },
    Heap(String),
}

impl Name {
    /// Concatenate `parts`.
    fn join(parts: &[&str]) -> Name {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        if total > INLINE_NAME {
            return Name::Heap(parts.concat());
        }
        let mut buf = [0u8; INLINE_NAME];
        let mut len = 0;
        for part in parts {
            buf[len..len + part.len()].copy_from_slice(part.as_bytes());
            len += part.len();
        }
        Name::Inline { len: len as u8, buf }
    }

    fn as_str(&self) -> &str {
        match self {
            // Whole `str`s concatenated are valid UTF-8; the check is a
            // short ASCII scan for every name this workspace records.
            Name::Inline { len, buf } => {
                std::str::from_utf8(&buf[..usize::from(*len)]).expect("joined from whole strs")
            }
            Name::Heap(s) => s,
        }
    }
}

impl std::fmt::Debug for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

/// A prefixed recording view of a [`Registry`]. Metric names passed to
/// the recording methods are joined to the scope's prefix with `/`.
/// Recording allocates nothing once the metric exists; every value lands
/// in the registry before the call returns.
#[derive(Debug)]
pub struct Scope<'a> {
    reg: &'a mut Registry,
    prefix: Name,
}

impl Scope<'_> {
    /// Whether recording is live (callers can skip expensive preparation
    /// of values when not).
    pub fn enabled(&self) -> bool {
        self.reg.enabled
    }

    /// A nested scope: `self.prefix + "/" + name`.
    pub fn scope(&mut self, name: &str) -> Scope<'_> {
        let prefix = self.full(name);
        Scope { reg: self.reg, prefix }
    }

    /// `prefix/name`, or `name` under an empty prefix.
    fn full(&self, name: &str) -> Name {
        match self.prefix.as_str() {
            "" => Name::join(&[name]),
            prefix => Name::join(&[prefix, "/", name]),
        }
    }

    fn record(&mut self, name: &str, record: Record) {
        if self.reg.enabled {
            self.reg.record(self.full(name).as_str(), record);
        }
    }

    /// Add `delta` to the counter `name`.
    pub fn add(&mut self, name: &str, delta: u64) {
        self.record(name, Record::Add(delta));
    }

    /// Increment the counter `name` by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Raise the max-gauge `name` to at least `value`.
    pub fn gauge_max(&mut self, name: &str, value: u64) {
        self.record(name, Record::Max(value));
    }

    /// Record `value` into the histogram `name`.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.record(name, Record::Observe(value));
    }
}

/// A metric name resolved once and cached per registry: the per-request
/// form of a [`Scope`] call. The first record into a registry looks the
/// name up like a [`Scope`] would (creating the metric then, never
/// earlier); each later record into the same registry indexes the arena
/// directly. Recording into a different registry, or a clone, resolves
/// afresh there, so a handle can never write into the wrong metric.
///
/// The metric kind is fixed by the method used, exactly as with a
/// [`Scope`]: recording a different kind under a name panics.
#[derive(Debug, Clone)]
pub struct Handle {
    name: &'static str,
    /// `(registry id, arena index)` of the last resolution.
    at: Option<(u64, usize)>,
}

impl Handle {
    /// A handle for the full metric `name` (e.g. `"serve/queries"`).
    /// Nothing is created until the first record.
    pub const fn new(name: &'static str) -> Handle {
        Handle { name, at: None }
    }

    fn record(&mut self, reg: &mut Registry, record: Record) {
        if !reg.enabled {
            return;
        }
        match self.at {
            Some((id, i)) if id == reg.id => record.apply(&mut reg.metrics[i], self.name),
            _ => self.at = Some((reg.id, reg.record(self.name, record))),
        }
    }

    /// Add `delta` to the counter.
    pub fn add(&mut self, reg: &mut Registry, delta: u64) {
        self.record(reg, Record::Add(delta));
    }

    /// Increment the counter by one.
    pub fn incr(&mut self, reg: &mut Registry) {
        self.add(reg, 1);
    }

    /// Raise the max-gauge to at least `value`.
    pub fn gauge_max(&mut self, reg: &mut Registry, value: u64) {
        self.record(reg, Record::Max(value));
    }

    /// Record `value` into the histogram.
    pub fn observe(&mut self, reg: &mut Registry, value: u64) {
        self.record(reg, Record::Observe(value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn counters_and_gauges_record() {
        let mut reg = Registry::new();
        let mut s = reg.scope("netsim");
        s.add("probes", 10);
        s.incr("probes");
        s.gauge_max("queue_peak", 5);
        s.gauge_max("queue_peak", 3);
        assert_eq!(reg.counter("netsim/probes"), Some(11));
        assert_eq!(reg.get("netsim/queue_peak"), Some(&Metric::Gauge(5)));
    }

    #[test]
    fn nested_scopes_join_with_slash() {
        let mut reg = Registry::new();
        let mut probe = reg.scope("probe");
        let mut survey = probe.scope("survey");
        survey.add("matched", 7);
        assert_eq!(reg.counter("probe/survey/matched"), Some(7));
    }

    #[test]
    fn names_past_the_inline_buffer_join_the_same_way() {
        let long = "x".repeat(INLINE_NAME);
        let mut reg = Registry::new();
        let mut outer = reg.scope("probe");
        let mut inner = outer.scope(&long);
        inner.incr("matched");
        let mut short = outer.scope("survey");
        short.add("matched", 2);
        reg.scope("walltime").scope("probe").scope(&long).incr("span_ns");
        assert_eq!(reg.counter(&format!("probe/{long}/matched")), Some(1));
        assert_eq!(reg.counter(&format!("walltime/probe/{long}/span_ns")), Some(1));
        assert_eq!(reg.counter("probe/survey/matched"), Some(2));
    }

    #[test]
    fn an_empty_prefix_adds_no_separator() {
        let mut reg = Registry::new();
        let mut root = reg.scope("");
        root.incr("top");
        root.scope("nested").incr("leaf");
        root.scope("walltime").add("span_ns", 2);
        assert_eq!(reg.counter("top"), Some(1));
        assert_eq!(reg.counter("nested/leaf"), Some(1));
        assert_eq!(reg.counter("walltime/span_ns"), Some(2));
    }

    #[test]
    fn histogram_stats_and_quantiles() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 1000);
        assert_eq!(h.sum, 1106);
        // p50 falls in the bucket of 3 → upper bound 3.
        assert_eq!(h.quantile_upper(50.0), Some(3));
        // p99 lands in the last bucket, clamped to the true max.
        assert_eq!(h.quantile_upper(99.0), Some(1000));
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut reg = Registry::disabled();
        let mut s = reg.scope("x");
        s.add("a", 1);
        s.gauge_max("b", 2);
        s.observe("c", 3);
        assert!(reg.is_empty());
        assert!(!reg.enabled());
    }

    #[test]
    fn merge_sums_maxes_and_buckets() {
        let build = |n: u64| {
            let mut reg = Registry::new();
            let mut s = reg.scope("m");
            s.add("count", n);
            s.gauge_max("peak", n * 2);
            s.observe("lat", n);
            reg
        };
        let mut a = build(3);
        a.merge(&build(5));
        assert_eq!(a.counter("m/count"), Some(8));
        assert_eq!(a.get("m/peak"), Some(&Metric::Gauge(10)));
        match a.get("m/lat") {
            Some(Metric::Histogram(h)) => {
                assert_eq!(h.count, 2);
                assert_eq!((h.min, h.max), (3, 5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn merge_order_does_not_change_result() {
        let build = |vals: &[u64]| {
            let mut reg = Registry::new();
            let mut s = reg.scope("m");
            for &v in vals {
                s.add("c", v);
                s.observe("h", v);
                s.gauge_max("g", v);
            }
            reg
        };
        let (a, b) = (build(&[1, 2, 3]), build(&[10, 20]));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.to_json(), ba.to_json());
    }

    #[test]
    #[should_panic(expected = "kind mismatch")]
    fn merge_kind_mismatch_panics() {
        let mut a = Registry::new();
        a.scope("m").add("x", 1);
        let mut b = Registry::new();
        b.scope("m").gauge_max("x", 1);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_confusion_panics() {
        let mut reg = Registry::new();
        reg.scope("m").gauge_max("x", 1);
        reg.scope("m").add("x", 1);
    }

    #[test]
    fn walltime_excluded_from_json_but_rendered() {
        let mut reg = Registry::new();
        reg.scope("bench").add("steps", 1);
        reg.scope("walltime").scope("bench").add("build_ns", 1_500_000_000);
        let json = reg.to_json();
        assert!(json.contains("bench/steps"));
        assert!(!json.contains("walltime"), "{json}");
        let text = reg.render_text();
        assert!(text.contains("walltime/bench/build_ns"), "{text}");
    }

    #[test]
    fn sched_family_excluded_from_json_but_rendered() {
        let mut reg = Registry::new();
        let mut s = reg.scope("serve");
        s.add("queries", 4);
        reg.scope("sched").scope("serve").add("cache_hits", 3);
        let json = reg.to_json();
        assert!(json.contains("serve/queries"), "{json}");
        assert!(!json.contains("sched/"), "{json}");
        let text = reg.render_text();
        assert!(text.contains("sched/serve/cache_hits"), "{text}");
    }

    #[test]
    fn faults_family_excluded_from_json_but_rendered() {
        let mut reg = Registry::new();
        reg.scope("serve").add("queries", 4);
        reg.scope("faults").scope("injected").add("corruptions", 2);
        reg.scope("faults").scope("serve").add("queue_overflow_closed", 1);
        let json = reg.to_json();
        assert!(json.contains("serve/queries"), "{json}");
        assert!(!json.contains("faults/"), "{json}");
        let text = reg.render_text();
        assert!(text.contains("faults/injected/corruptions"), "{text}");
    }

    #[test]
    fn text_report_groups_and_labels() {
        let mut reg = Registry::new();
        reg.scope("netsim").add("probes", 3);
        reg.scope("probe").scope("zmap").observe("rtt_us", 500);
        reg.scope("netsim").gauge_max("queue_peak", 9);
        let text = reg.render_text();
        assert!(text.contains("telemetry report (3 metrics)"), "{text}");
        assert!(text.contains("netsim/probes"), "{text}");
        assert!(text.contains("(peak)"), "{text}");
        assert!(text.contains("count=1"), "{text}");
    }
}
