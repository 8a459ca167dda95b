//! The scamper-style stateful pinger used for the paper's verification
//! experiments.
//!
//! A [`PingJob`] is one probe schedule against one destination: explicit
//! send offsets, one protocol. Matching is exact per probe:
//!
//! * ICMP — the sequence number indexes the probe;
//! * UDP — each probe uses a distinct source port, which comes back inside
//!   the ICMP port-unreachable quotation;
//! * TCP — each ACK uses a distinct source port; the RST's destination
//!   port returns it.
//!
//! The runner listens for a configurable grace period after the last send
//! — the equivalent of the paper's "we run tcpdump simultaneously ...
//! effectively creating an 'indefinite' timeout", which is how latencies
//! far beyond scamper's 2 s default were observed at all.

use beware_netsim::packet::{Packet, L4};
use beware_netsim::sim::{Agent, Ctx};
use beware_netsim::time::{SimDuration, SimTime};
use beware_netsim::world::quoted_destination;
use beware_runtime::rng::derive_seed;
use beware_wire::icmp::IcmpKind;
use beware_wire::payload::ProbePayload;
use beware_wire::tcp::{TcpFlags, TcpRepr};
use std::collections::HashMap;

/// Probe protocol for a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PingProto {
    /// ICMP echo request.
    Icmp,
    /// UDP datagram to an unlikely port (expects ICMP port unreachable).
    Udp,
    /// TCP ACK to port 80 (expects RST) — not SYN, to avoid looking like a
    /// vulnerability scan.
    TcpAck,
}

/// One probing schedule against one destination.
#[derive(Debug, Clone)]
pub struct PingJob {
    /// Destination address.
    pub dst: u32,
    /// Protocol.
    pub proto: PingProto,
    /// Send offsets in seconds, relative to `start_secs`. Must be
    /// ascending. At most 65 536 probes (the sequence space).
    pub offsets: Vec<f64>,
    /// Job start time in seconds from simulation epoch (stagger jobs to
    /// avoid synchronized bursts).
    pub start_secs: f64,
}

impl PingJob {
    /// `count` probes every `interval_secs`, the classic ping train.
    pub fn train(
        dst: u32,
        proto: PingProto,
        count: usize,
        interval_secs: f64,
        start_secs: f64,
    ) -> Self {
        PingJob {
            dst,
            proto,
            offsets: (0..count).map(|i| i as f64 * interval_secs).collect(),
            start_secs,
        }
    }
}

/// Result of one job: per-probe RTTs and response TTLs, in probe order.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Destination probed.
    pub dst: u32,
    /// Protocol used.
    pub proto: PingProto,
    /// Per-probe RTT in seconds (`None` = no response observed).
    pub rtts: Vec<Option<f64>>,
    /// TTL of each first response as received.
    pub ttls: Vec<Option<u8>>,
    /// Responses beyond the first per probe (duplicates/floods).
    pub extra_responses: u64,
    /// ICMP host-unreachable errors received for this job.
    pub errors: u64,
}

impl JobResult {
    /// RTTs of answered probes, in probe order.
    pub fn answered(&self) -> Vec<f64> {
        self.rtts.iter().flatten().copied().collect()
    }

    /// Fraction of probes answered.
    pub fn response_rate(&self) -> f64 {
        if self.rtts.is_empty() {
            0.0
        } else {
            self.answered().len() as f64 / self.rtts.len() as f64
        }
    }
}

/// Runner configuration: everything but the job list.
#[derive(Debug, Clone)]
pub struct ScamperCfg {
    /// The prober's own address.
    pub prober_addr: u32,
    /// Determinism seed (payload key derivation).
    pub seed: u64,
    /// Listen time after the last probe of the last job — the paper's
    /// "indefinite timeout" tcpdump window.
    pub grace_secs: f64,
}

impl Default for ScamperCfg {
    fn default() -> Self {
        ScamperCfg { prober_addr: 0xC0_00_02_0C, seed: 0x5ca3, grace_secs: 120.0 }
    }
}

impl ScamperCfg {
    /// Build a runner over `jobs`. Drive it with [`crate::Prober::run`].
    /// Panics on duplicate `(dst, proto)` pairs or oversized schedules.
    pub fn build(self, jobs: Vec<PingJob>) -> ScamperRunner {
        ScamperRunner::new(jobs, self.prober_addr, self.seed, self.grace_secs)
    }
}

/// Base source port for UDP/TCP probe indexing.
const BASE_PORT: u16 = 1024;

/// Runs a set of [`PingJob`]s to completion.
pub struct ScamperRunner {
    jobs: Vec<PingJob>,
    results: Vec<JobResult>,
    send_times: Vec<Vec<Option<SimTime>>>,
    next_probe: Vec<usize>,
    by_key: HashMap<(u32, PingProto), usize>,
    prober_addr: u32,
    ident: u16,
    payload_key: u64,
    grace_secs: f64,
    jobs_done: usize,
}

const END_TOKEN: u64 = u64::MAX;

impl ScamperRunner {
    /// Build a runner. `grace_secs` is how long to keep listening after
    /// the last probe of the last job. Panics on duplicate
    /// `(dst, proto)` pairs or oversized schedules — both caller bugs.
    pub fn new(jobs: Vec<PingJob>, prober_addr: u32, seed: u64, grace_secs: f64) -> Self {
        assert!(!jobs.is_empty(), "no jobs");
        let mut by_key = HashMap::new();
        for (i, job) in jobs.iter().enumerate() {
            assert!(job.offsets.len() <= 65_536, "schedule exceeds sequence space");
            assert!(job.offsets.windows(2).all(|w| w[0] <= w[1]), "offsets must be ascending");
            let prev = by_key.insert((job.dst, job.proto), i);
            assert!(prev.is_none(), "duplicate job for dst/proto");
        }
        let results = jobs
            .iter()
            .map(|j| JobResult {
                dst: j.dst,
                proto: j.proto,
                rtts: vec![None; j.offsets.len()],
                ttls: vec![None; j.offsets.len()],
                extra_responses: 0,
                errors: 0,
            })
            .collect();
        let send_times = jobs.iter().map(|j| vec![None; j.offsets.len()]).collect();
        let next_probe = vec![0; jobs.len()];
        ScamperRunner {
            jobs,
            results,
            send_times,
            next_probe,
            by_key,
            prober_addr,
            ident: 0x5ca3,
            payload_key: derive_seed(seed, 0x5ca3),
            grace_secs,
            jobs_done: 0,
        }
    }

    /// Consume the runner, returning the per-job results.
    pub fn into_results(self) -> Vec<JobResult> {
        self.results
    }

    fn job_probe_time(&self, job_idx: usize, probe_idx: usize) -> SimTime {
        let job = &self.jobs[job_idx];
        SimTime::EPOCH + SimDuration::from_secs_f64(job.start_secs + job.offsets[probe_idx])
    }

    fn build_probe(&self, job_idx: usize, probe_idx: usize, now: SimTime) -> Packet {
        let job = &self.jobs[job_idx];
        match job.proto {
            PingProto::Icmp => {
                let payload =
                    ProbePayload { dest: job.dst, send_ns: now.as_ns() }.encode(self.payload_key);
                Packet::echo_request(
                    self.prober_addr,
                    job.dst,
                    self.ident,
                    probe_idx as u16,
                    payload.to_vec(),
                )
            }
            PingProto::Udp => Packet {
                src: self.prober_addr,
                dst: job.dst,
                ttl: 64,
                l4: L4::Udp {
                    src_port: BASE_PORT + probe_idx as u16,
                    dst_port: 33_435,
                    payload: vec![0u8; 8],
                },
            },
            PingProto::TcpAck => Packet {
                src: self.prober_addr,
                dst: job.dst,
                ttl: 64,
                l4: L4::Tcp(TcpRepr {
                    src_port: BASE_PORT + probe_idx as u16,
                    dst_port: 80,
                    seq: 0x1000_0000 + probe_idx as u32,
                    ack_no: 0x2000_0000 + probe_idx as u32,
                    flags: TcpFlags::ACK,
                    window: 1024,
                }),
            },
        }
    }

    fn record_response(&mut self, job_idx: usize, probe_idx: usize, now: SimTime, ttl: u8) {
        let Some(Some(sent)) = self.send_times[job_idx].get(probe_idx).copied() else {
            return; // response to a probe we never sent (forged/garbled)
        };
        let result = &mut self.results[job_idx];
        if result.rtts[probe_idx].is_none() {
            result.rtts[probe_idx] = Some(now.saturating_since(sent).as_secs_f64());
            result.ttls[probe_idx] = Some(ttl);
        } else {
            result.extra_responses += 1;
        }
    }

    /// Resolve `(responder, proto)` to a job, for response classification.
    fn job_for(&self, addr: u32, proto: PingProto) -> Option<usize> {
        self.by_key.get(&(addr, proto)).copied()
    }
}

impl Agent for ScamperRunner {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        for job_idx in 0..self.jobs.len() {
            if self.jobs[job_idx].offsets.is_empty() {
                self.jobs_done += 1;
                continue;
            }
            ctx.set_timer(self.job_probe_time(job_idx, 0), job_idx as u64);
        }
        if self.jobs_done == self.jobs.len() {
            ctx.set_timer(ctx.now() + SimDuration::from_secs_f64(self.grace_secs), END_TOKEN);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if token == END_TOKEN {
            ctx.stop();
            return;
        }
        let job_idx = token as usize;
        let probe_idx = self.next_probe[job_idx];
        let now = ctx.now();
        let probe = self.build_probe(job_idx, probe_idx, now);
        self.send_times[job_idx][probe_idx] = Some(now);
        ctx.send(probe);
        self.next_probe[job_idx] += 1;
        if self.next_probe[job_idx] < self.jobs[job_idx].offsets.len() {
            ctx.set_timer(self.job_probe_time(job_idx, self.next_probe[job_idx]), token);
        } else {
            self.jobs_done += 1;
            if self.jobs_done == self.jobs.len() {
                ctx.set_timer(now + SimDuration::from_secs_f64(self.grace_secs), END_TOKEN);
            }
        }
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        match &pkt.l4 {
            // ICMP echo reply: sequence number indexes the probe.
            L4::Icmp { kind: IcmpKind::EchoReply { seq, ident }, .. } => {
                if *ident != self.ident {
                    return;
                }
                if let Some(job_idx) = self.job_for(pkt.src, PingProto::Icmp) {
                    self.record_response(job_idx, usize::from(*seq), now, pkt.ttl);
                }
            }
            // ICMP errors: classify by the quoted original packet.
            L4::Icmp { kind: IcmpKind::DestUnreachable { code }, payload } => {
                let Some(orig_dst) = quoted_destination(payload) else { return };
                if *code == 3 {
                    // Port unreachable: the UDP "answer". The quoted bytes
                    // carry the original UDP header right after the IP
                    // header; its source port indexes the probe.
                    if payload.len() >= beware_wire::ipv4::HEADER_LEN + 2 {
                        let sp = u16::from_be_bytes([
                            payload[beware_wire::ipv4::HEADER_LEN],
                            payload[beware_wire::ipv4::HEADER_LEN + 1],
                        ]);
                        if let (Some(job_idx), Some(probe_idx)) = (
                            self.job_for(orig_dst, PingProto::Udp),
                            sp.checked_sub(BASE_PORT).map(usize::from),
                        ) {
                            self.record_response(job_idx, probe_idx, now, pkt.ttl);
                        }
                    }
                } else {
                    // Genuine unreachability error: count per matching job.
                    for proto in [PingProto::Icmp, PingProto::Udp, PingProto::TcpAck] {
                        if let Some(job_idx) = self.job_for(orig_dst, proto) {
                            self.results[job_idx].errors += 1;
                        }
                    }
                }
            }
            // TCP RST: the destination port is our probe's source port.
            L4::Tcp(tcp) if tcp.flags.rst => {
                if let (Some(job_idx), Some(probe_idx)) = (
                    self.job_for(pkt.src, PingProto::TcpAck),
                    tcp.dst_port.checked_sub(BASE_PORT).map(usize::from),
                ) {
                    self.record_response(job_idx, probe_idx, now, pkt.ttl);
                }
            }
            _ => {}
        }
    }
}

impl crate::Prober for ScamperRunner {
    type Output = Vec<JobResult>;

    fn engine(&self) -> &'static str {
        "scamper"
    }

    fn record(&self, scope: &mut beware_telemetry::Scope<'_>) {
        let sent: u64 =
            self.send_times.iter().map(|t| t.iter().filter(|s| s.is_some()).count() as u64).sum();
        scope.add("probes_sent", sent);
        scope.add("jobs", self.jobs.len() as u64);
        scope.add(
            "matched",
            self.results.iter().map(|r| r.rtts.iter().filter(|x| x.is_some()).count() as u64).sum(),
        );
        scope.add("extra_responses", self.results.iter().map(|r| r.extra_responses).sum());
        scope.add("errors", self.results.iter().map(|r| r.errors).sum());
    }

    fn finish(self) -> Vec<JobResult> {
        self.into_results()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prober;
    use beware_netsim::profile::{BlockProfile, FirewallCfg, WakeupCfg};
    use beware_netsim::rng::Dist;
    use beware_netsim::sim::RunSummary;
    use beware_netsim::world::World;

    const PROBER: u32 = 0x0101_0101;

    /// Test driver over the unified API.
    fn run(
        mut world: World,
        jobs: Vec<PingJob>,
        seed: u64,
        grace_secs: f64,
    ) -> (Vec<JobResult>, RunSummary) {
        ScamperCfg { prober_addr: PROBER, seed, grace_secs }.build(jobs).run(&mut world)
    }

    fn quiet_profile() -> BlockProfile {
        BlockProfile {
            base_rtt: Dist::Constant(0.05),
            jitter: Dist::Constant(0.0),
            density: 1.0,
            response_prob: 1.0,
            error_prob: 0.0,
            dup_prob: 0.0,
            ..Default::default()
        }
    }

    fn world(profile: BlockProfile) -> World {
        World::from_blocks(21, [(0x0a0000, profile)])
    }

    #[test]
    fn icmp_train_measures_every_probe() {
        let jobs = vec![PingJob::train(0x0a000005, PingProto::Icmp, 10, 1.0, 0.0)];
        let (results, _) = run(world(quiet_profile()), jobs, 1, 30.0);
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(r.answered().len(), 10);
        assert!(r.rtts.iter().all(|x| (x.unwrap() - 0.05).abs() < 1e-9));
        assert!((r.response_rate() - 1.0).abs() < 1e-12);
        assert!(r.ttls.iter().all(|t| t.is_some()));
    }

    #[test]
    fn udp_and_tcp_probes_match_exactly() {
        let jobs = vec![
            PingJob::train(0x0a000006, PingProto::Udp, 5, 1.0, 0.0),
            PingJob::train(0x0a000006, PingProto::TcpAck, 5, 1.0, 100.0),
        ];
        let (results, _) = run(world(quiet_profile()), jobs, 1, 30.0);
        for r in &results {
            assert_eq!(r.answered().len(), 5, "{:?}", r.proto);
            assert!(r.rtts.iter().all(|x| (x.unwrap() - 0.05).abs() < 1e-9));
        }
    }

    #[test]
    fn firewall_rsts_carry_constant_ttl() {
        let p = BlockProfile {
            firewall: Some(FirewallCfg { rst_delay: Dist::Constant(0.2), ttl: 243 }),
            ..quiet_profile()
        };
        let jobs = vec![
            PingJob::train(0x0a000007, PingProto::TcpAck, 3, 1.0, 0.0),
            PingJob::train(0x0a000008, PingProto::TcpAck, 3, 1.0, 0.0),
            PingJob::train(0x0a000007, PingProto::Icmp, 3, 1.0, 50.0),
        ];
        let (results, _) = run(world(p), jobs, 1, 30.0);
        for r in results.iter().filter(|r| r.proto == PingProto::TcpAck) {
            assert!(r.ttls.iter().all(|t| *t == Some(243)));
            assert!(r.rtts.iter().all(|x| (x.unwrap() - 0.2).abs() < 1e-9));
        }
        // ICMP bypasses the firewall; its TTL is the host's.
        let icmp = results.iter().find(|r| r.proto == PingProto::Icmp).unwrap();
        assert!(icmp.ttls.iter().all(|t| *t != Some(243)));
    }

    #[test]
    fn first_ping_effect_visible_in_train() {
        let p = BlockProfile {
            wakeup: Some(WakeupCfg { host_prob: 1.0, delay: Dist::Constant(2.0), tail_secs: 10.0 }),
            ..quiet_profile()
        };
        let jobs = vec![PingJob::train(0x0a000009, PingProto::Icmp, 5, 1.0, 0.0)];
        let (results, _) = run(world(p), jobs, 1, 30.0);
        let rtts = results[0].answered();
        assert!((rtts[0] - 2.05).abs() < 1e-9, "first {}", rtts[0]);
        for r in &rtts[1..] {
            assert!((r - 0.05).abs() < 1e-9, "rest {r}");
        }
    }

    #[test]
    fn unanswered_probes_are_none() {
        let p = BlockProfile { density: 0.0, ..quiet_profile() };
        let jobs = vec![PingJob::train(0x0a00000a, PingProto::Icmp, 4, 1.0, 0.0)];
        let (results, _) = run(world(p), jobs, 1, 5.0);
        assert!(results[0].rtts.iter().all(|x| x.is_none()));
        assert_eq!(results[0].response_rate(), 0.0);
    }

    #[test]
    fn offsets_schedule_respected() {
        let jobs = vec![PingJob {
            dst: 0x0a00000b,
            proto: PingProto::Icmp,
            offsets: vec![0.0, 5.0, 85.0, 86.0],
            start_secs: 10.0,
        }];
        let (results, summary) = run(world(quiet_profile()), jobs, 1, 10.0);
        assert_eq!(results[0].answered().len(), 4);
        // Last probe at t = 96, grace 10 s.
        assert!((summary.end_time.as_secs_f64() - 106.0).abs() < 0.5);
    }

    #[test]
    #[should_panic(expected = "duplicate job")]
    fn duplicate_jobs_rejected() {
        ScamperRunner::new(
            vec![
                PingJob::train(1, PingProto::Icmp, 1, 1.0, 0.0),
                PingJob::train(1, PingProto::Icmp, 1, 1.0, 9.0),
            ],
            PROBER,
            1,
            1.0,
        );
    }

    #[test]
    fn telemetry_mirrors_job_results() {
        let mut w = world(quiet_profile());
        let jobs = vec![
            PingJob::train(0x0a000005, PingProto::Icmp, 4, 1.0, 0.0),
            PingJob::train(0x0a000006, PingProto::Udp, 3, 1.0, 50.0),
        ];
        let mut metrics = beware_telemetry::Registry::new();
        let (results, summary) = ScamperCfg { prober_addr: PROBER, seed: 1, grace_secs: 20.0 }
            .build(jobs)
            .run_with(&mut w, &mut metrics);
        assert_eq!(metrics.counter("probe/scamper/probes_sent"), Some(summary.packets_sent));
        assert_eq!(metrics.counter("probe/scamper/jobs"), Some(2));
        let matched: u64 =
            results.iter().map(|r| r.rtts.iter().filter(|x| x.is_some()).count() as u64).sum();
        assert_eq!(metrics.counter("probe/scamper/matched"), Some(matched));
        assert_eq!(matched, 7);
    }

    #[test]
    fn deterministic_results() {
        let run = || {
            let jobs = vec![PingJob::train(0x0a000005, PingProto::Icmp, 8, 1.0, 0.0)];
            run(world(quiet_profile()), jobs, 9, 10.0).0
        };
        assert_eq!(run(), run());
    }
}
