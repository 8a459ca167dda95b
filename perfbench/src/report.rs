//! What a workload hands back, the metric catalogue, and the small
//! measurement helpers every workload shares.

use crate::trace::Table;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One workload run's outcome.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations in the throughput denominator, failed ones included.
    pub attempted: u64,
    /// Operations the program got wrong or never finished.
    pub failed: u64,
    /// Correctness checks: name, passed, detail.
    pub checks: Vec<(String, bool, String)>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Context for the numbers: sample counts, sizes, configuration.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Record a check.
    pub fn check(&mut self, name: &str, pass: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), pass, detail.into()));
    }

    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a note.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// Report a span table: `<span>_ns` (mean per call) and
    /// `<span>.allocs_per_call` for every span, and the per-layer sum
    /// check against `traced_wall_s`: Σ self time + unattributed = wall.
    pub fn spans(&mut self, table: &Table, traced_wall_s: f64) {
        let wall_ns = traced_wall_s * 1e9;
        let mut self_sum = 0.0;
        for (name, s) in table {
            self_sum += s.self_ns as f64;
            self.note(
                &format!("span {name}"),
                format!(
                    "calls {} | total {:.3} ms | self {:.3} ms ({:.1}% of traced wall) | \
                     {:.1} ns/call | {:.3} allocs/call",
                    s.calls,
                    s.total_ns as f64 / 1e6,
                    s.self_ns as f64 / 1e6,
                    100.0 * s.self_ns as f64 / wall_ns,
                    s.ns_per_call(),
                    s.allocs_per_call()
                ),
            );
            if let Some(m) = ALLOCS_PER_CALL.iter().find(|m| m.0 == *name) {
                self.metric(m.1, s.allocs_per_call());
            }
        }
        let unattributed = wall_ns - self_sum;
        self.metric("trace.unattributed_frac", unattributed / wall_ns);
        self.metric("trace.layer_sum_frac", self_sum / wall_ns);
        self.check(
            "per_layer_sum",
            self_sum <= wall_ns * 1.001,
            format!(
                "sum of layer self time {:.3} ms + unattributed {:.3} ms = traced wall {:.3} ms",
                self_sum / 1e6,
                unattributed / 1e6,
                wall_ns / 1e6
            ),
        );
    }

    /// Record traced-vs-untraced overhead and, when the traced run is a
    /// benchmark-side replica, the replica's untraced wall against the
    /// program's.
    pub fn overhead(&mut self, untraced_s: f64, traced_s: f64) {
        self.note("untraced_wall_s", untraced_s);
        self.note("traced_wall_s", traced_s);
        self.note("tracing_overhead_s", traced_s - untraced_s);
        self.metric("trace.overhead_frac", (traced_s - untraced_s) / untraced_s);
    }
}

/// One repetition of a batch workload, as the end-to-end loop sees it.
pub struct Repetition {
    /// Set-up before the repetition's first timed operation.
    pub setup_s: f64,
    /// Wall time of the timed part.
    pub wall_s: f64,
    /// Operations in the honest unit the timed part completed.
    pub ops: u64,
    /// Hash of the repetition's deterministic summary.
    pub digest: u64,
}

/// Run `rep` back to back until `seconds` have passed (at least once),
/// check every repetition's summary digest equals the first one's, and
/// record the end-to-end metrics the batch workloads share: median
/// set-up, ops per wall second of the timed parts, process CPU per op
/// (set-up included), and the median over repetitions of wall per op.
pub fn repeat(out: &mut Outcome, seconds: f64, mut rep: impl FnMut(&mut Outcome) -> Repetition) {
    let (mut setups, mut per_op_us, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ops, mut wall, mut cpu) = (0u64, 0.0f64, 0.0f64);
    let start = Instant::now();
    while digests.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let cpu0 = cpu_s();
        let r = rep(out);
        cpu += cpu_s() - cpu0;
        setups.push(r.setup_s);
        per_op_us.push(r.wall_s * 1e6 / r.ops as f64);
        digests.push(r.digest);
        ops += r.ops;
        wall += r.wall_s;
    }
    let n = digests.len();
    let same = digests.iter().filter(|&&d| d == digests[0]).count();
    out.check(
        "summary_stable",
        same == n,
        format!(
            "{same} of {n} repetitions match the first one's summary digest {:016x}",
            digests[0]
        ),
    );
    per_op_us.sort_by(f64::total_cmp);
    out.note(
        "wall_per_op_us",
        format!(
            "p50 {:.4} p99 {:.4} over {n} repetitions",
            quantile(&per_op_us, 0.5),
            quantile(&per_op_us, 0.99)
        ),
    );
    out.metric("setup_s", median(&setups));
    out.metric("ops_per_s", ops as f64 / wall);
    out.metric("cpu_us_per_op", cpu * 1e6 / ops as f64);
    out.metric("lat_p50_us", quantile(&per_op_us, 0.5));
}

/// `(span name, metric name)` for every span's allocation count.
pub const ALLOCS_PER_CALL: &[(&str, &str)] = &[
    ("runtime.wheel.set", "runtime.wheel.set.allocs_per_call"),
    ("runtime.wheel.cancel", "runtime.wheel.cancel.allocs_per_call"),
    ("netsim.sim.run", "netsim.sim.run.allocs_per_call"),
    ("netsim.link.traverse", "netsim.link.traverse.allocs_per_call"),
    ("serve.engine.service", "serve.engine.service.allocs_per_call"),
    ("serve.engine.flush", "serve.engine.flush.allocs_per_call"),
    ("serve.proto.encode", "serve.proto.encode.allocs_per_call"),
    ("serve.proto.decode", "serve.proto.decode.allocs_per_call"),
    ("serve.oracle.lookup", "serve.oracle.lookup.allocs_per_call"),
    ("telemetry.merge", "telemetry.merge.allocs_per_call"),
    ("bench.simserve.client", "bench.simserve.client.allocs_per_call"),
    ("serve.client.write", "serve.client.write.allocs_per_call"),
    ("serve.client.read", "serve.client.read.allocs_per_call"),
    ("netsim.world.build", "netsim.world.build.allocs_per_call"),
    ("netsim.world.probe", "netsim.world.probe.allocs_per_call"),
    ("netsim.world.unrouted_probe", "netsim.world.unrouted_probe.allocs_per_call"),
    ("netsim.space.resolve", "netsim.space.resolve.allocs_per_call"),
    ("netsim.scenario.build_world", "netsim.scenario.build_world.allocs_per_call"),
    ("probe.survey.run", "probe.survey.run.allocs_per_call"),
    ("probe.zmap.run", "probe.zmap.run.allocs_per_call"),
    ("core.pipeline.run", "core.pipeline.run.allocs_per_call"),
    ("core.merge_samples", "core.merge_samples.allocs_per_call"),
    ("serve.builder.build_snapshot", "serve.builder.build_snapshot.allocs_per_call"),
    ("dataset.snapshot.encode", "dataset.snapshot.encode.allocs_per_call"),
    ("dataset.snapshot.decode", "dataset.snapshot.decode.allocs_per_call"),
];

/// A metric's catalogue entry.
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"` is better.
    pub better: &'static str,
    /// End-to-end only: share of the parent's median it may worsen by.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

/// End-to-end metrics: every workload prints every one, untraced.
///
/// Bounds are wide because the reference machine is a 2-vCPU VM whose
/// throughput drifts by 10-20% between runs minutes apart (neighbours
/// sharing its last-level cache); see `perfbench/README.md`.
pub const END_TO_END: &[MetricDef] = &[
    // Median set-up before the first timed operation, over every set-up
    // in the run.
    e2e("setup_s", "s", "lower", 0.25),
    // The workload's honest unit per wall second: validated answers |
    // closed-loop requests | routed probes | pipeline records.
    e2e("ops_per_s", "1/s", "higher", 0.25),
    // Process CPU, client and server together, per unit of ops_per_s.
    e2e("cpu_us_per_op", "us", "lower", 0.25),
    // TCP: median REPORT+QUERY pair latency. In-sim: median over the
    // run's repetitions of wall time per unit.
    e2e("lat_p50_us", "us", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.2),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

/// Per-layer metrics: every workload's traced run prints every one; a
/// layer the workload never enters reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // simserve_partition
    layer("runtime.wheel.set_ns", "ns", "lower"),
    layer("runtime.wheel.cancel_ns", "ns", "lower"),
    layer("netsim.sim.dispatch_ns_per_event", "ns", "lower"),
    layer("netsim.sim.events", "count", "lower"),
    layer("netsim.sim.queue_peak", "count", "lower"),
    layer("netsim.link.traverse_ns", "ns", "lower"),
    layer("netsim.link.traversals", "count", "lower"),
    layer("netsim.link.drops", "count", "lower"),
    layer("serve.engine.service_ns", "ns", "lower"),
    layer("serve.engine.flush_ns", "ns", "lower"),
    layer("serve.engine.cache_hit_ratio", "ratio", "higher"),
    layer("serve.proto.encode_ns", "ns", "lower"),
    layer("serve.proto.decode_ns", "ns", "lower"),
    layer("serve.oracle.lookup_ns", "ns", "lower"),
    layer("serve.oracle.exact_ratio", "ratio", "higher"),
    layer("telemetry.merge_ns", "ns", "lower"),
    layer("alloc.per_query", "count", "lower"),
    // serve_tcp_mixed
    layer("runtime.reactor.wakeups_per_req", "count", "lower"),
    layer("runtime.reactor.spurious_ratio", "ratio", "lower"),
    layer("serve.client.write_ns", "ns", "lower"),
    layer("serve.client.read_ns", "ns", "lower"),
    layer("serve.fixed_lat_p50_us", "us", "lower"),
    layer("serve.fixed_lat_p99_us", "us", "lower"),
    layer("serve.max_rps_at_slo", "1/s", "higher"),
    layer("serve.query_lat_p50_us", "us", "lower"),
    layer("serve.report_lat_p50_us", "us", "lower"),
    layer("serve.client.send_lag_us", "us", "lower"),
    layer("policy.reports", "count", "higher"),
    layer("alloc.per_request", "count", "lower"),
    // fullspace_dense
    layer("netsim.world.probe_ns", "ns", "lower"),
    layer("netsim.world.unrouted_probe_ns", "ns", "lower"),
    layer("netsim.space.resolve_ns", "ns", "lower"),
    layer("netsim.space.resolve_calls", "count", "lower"),
    layer("netsim.space.cache_hit_ratio", "ratio", "higher"),
    layer("netsim.host.evicted", "count", "lower"),
    layer("netsim.host.peak", "count", "lower"),
    layer("alloc.per_probe", "count", "lower"),
    // fullspace_dense and campaign_snapshot
    layer("netsim.exec.idle_frac", "ratio", "lower"),
    // campaign_snapshot
    layer("netsim.scenario.build_world_ns", "ns", "lower"),
    layer("probe.survey.ns_per_record", "ns", "lower"),
    layer("probe.survey.match_ratio", "ratio", "higher"),
    layer("probe.zmap.ns_per_record", "ns", "lower"),
    layer("probe.zmap.response_ratio", "ratio", "higher"),
    layer("core.pipeline.ns_per_record", "ns", "lower"),
    layer("core.pipeline.kept_ratio", "ratio", "higher"),
    layer("core.merge_samples_ns", "ns", "lower"),
    layer("serve.builder.build_snapshot_ns", "ns", "lower"),
    layer("dataset.snapshot.encode_ns", "ns", "lower"),
    layer("dataset.snapshot.decode_ns", "ns", "lower"),
    layer("dataset.snapshot.bytes", "bytes", "lower"),
    layer("alloc.per_record", "count", "lower"),
    // every workload: the sum check and the cost of tracing
    layer("trace.layer_sum_frac", "ratio", "higher"),
    layer("trace.unattributed_frac", "ratio", "lower"),
    layer("trace.overhead_frac", "ratio", "lower"),
    layer("trace.replica_wall_ratio", "ratio", "lower"),
];

/// Every per-layer metric, allocation counts included.
pub fn per_layer_all() -> Vec<MetricDef> {
    let mut all: Vec<MetricDef> =
        PER_LAYER.iter().map(|m| layer(m.name, m.unit, m.better)).collect();
    all.extend(ALLOCS_PER_CALL.iter().map(|m| layer(m.1, "count", "lower")));
    all
}

/// Linear-interpolated quantile of a sorted slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Process CPU time (user + system) in seconds.
pub fn cpu_s() -> f64 {
    beware_runtime::clock::process_cpu_time().map_or(0.0, |d: Duration| d.as_secs_f64())
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV0: u64 = 0xcbf2_9ce4_8422_2325;

/// Escape a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
