//! The ISI-survey-style prober.
//!
//! Faithful to the probing scheme Section 3 of the paper describes:
//!
//! * every selected /24 block is probed once per round (11 minutes);
//! * within a block, the 256 last octets are visited in **bit-reversed**
//!   order, one every `660/256 ≈ 2.58 s`, which puts off-by-one octets
//!   330 s apart — the property both the paper's Figure 4 false-match
//!   illustration and its broadcast-responder filter rely on;
//! * a response arriving within the match window (3 s) merges with its
//!   request into a [`Record::matched`] with a microsecond RTT;
//! * a late response yields a [`Record::timeout`] for the probe plus a
//!   [`Record::unmatched`] for the response, both second-precise;
//! * ICMP errors close the probe with a [`Record::icmp_error`].
//!
//! Block start offsets are staggered deterministically so the prober's
//! traffic spreads over the round instead of bursting.

use beware_dataset::{Record, RecordSink, SurveyStats};
use beware_netsim::packet::{Packet, L4};
use beware_netsim::rng::{coin, seeded};
use beware_netsim::sim::{Agent, Ctx};
use beware_netsim::time::{SimDuration, SimTime};
use beware_netsim::world::quoted_destination;
use beware_runtime::rng::{derive_seed, unit_hash};
use beware_wire::icmp::IcmpKind;
use beware_wire::payload::ProbePayload;
use rand::rngs::StdRng;
use std::collections::HashMap;

/// Survey prober configuration.
#[derive(Debug, Clone)]
pub struct SurveyCfg {
    /// The /24 blocks to probe (prefix values, i.e. `addr >> 8`).
    pub blocks: Vec<u32>,
    /// Number of probing rounds (the paper's surveys run ~2 weeks at 11
    /// minutes per round ≈ 1800 rounds; scale to taste).
    pub rounds: u32,
    /// Round duration in seconds (ISI: 660).
    pub round_secs: f64,
    /// Match window in seconds (ISI: 3).
    pub match_timeout_secs: f64,
    /// The prober's own address.
    pub prober_addr: u32,
    /// ICMP identifier to stamp on probes.
    pub ident: u16,
    /// Probability a would-be match is *lost by the prober* — models the
    /// broken `j`/`g` surveys the paper screens out in Section 5.2, where
    /// 20% response rates collapsed to 0.02–0.2%.
    pub match_drop_prob: f64,
    /// Determinism seed (staggering, drop decisions).
    pub seed: u64,
}

impl Default for SurveyCfg {
    fn default() -> Self {
        SurveyCfg {
            blocks: Vec::new(),
            rounds: 50,
            round_secs: 660.0,
            match_timeout_secs: 3.0,
            prober_addr: 0xC0_00_02_01, // 192.0.2.1
            ident: 0xbe_ef_u16 & 0x7fff,
            match_drop_prob: 0.0,
            seed: 0x5u64,
        }
    }
}

impl SurveyCfg {
    /// Build the survey prober writing records into `sink`; drive it with
    /// [`crate::Prober::run`].
    pub fn build<S: RecordSink>(self, sink: S) -> SurveyProber<S> {
        SurveyProber::new(self, sink)
    }
}

struct BlockSched {
    prefix24: u32,
    /// Start offset within the round, nanoseconds.
    stagger: SimDuration,
    /// Global slot index: round * 256 + position.
    pos: u32,
}

/// The survey prober agent. Generic over the record sink so callers can
/// collect in memory, stream to disk, or keep only statistics.
pub struct SurveyProber<S: RecordSink> {
    cfg: SurveyCfg,
    sink: S,
    stats: SurveyStats,
    blocks: Vec<BlockSched>,
    /// Outstanding probe per address: send time.
    outstanding: HashMap<u32, SimTime>,
    payload_key: u64,
    rng: StdRng,
    slot: SimDuration,
    finished_blocks: usize,
}

/// Timer token marking end-of-survey grace expiry.
const END_TOKEN: u64 = u64::MAX;

impl<S: RecordSink> SurveyProber<S> {
    /// Build a prober writing records into `sink`.
    pub fn new(cfg: SurveyCfg, sink: S) -> Self {
        assert!(!cfg.blocks.is_empty(), "survey needs at least one block");
        assert!(cfg.rounds > 0, "survey needs at least one round");
        let slot = SimDuration::from_secs_f64(cfg.round_secs / 256.0);
        let blocks = cfg
            .blocks
            .iter()
            .map(|&prefix24| BlockSched {
                prefix24,
                stagger: SimDuration::from_secs_f64(
                    unit_hash(cfg.seed, u64::from(prefix24)) * cfg.round_secs,
                ),
                pos: 0,
            })
            .collect();
        let rng = seeded(derive_seed(cfg.seed, 0x5042));
        let payload_key = derive_seed(cfg.seed, 0xbead);
        SurveyProber {
            cfg,
            sink,
            stats: SurveyStats::default(),
            blocks,
            outstanding: HashMap::new(),
            payload_key,
            rng,
            slot,
            finished_blocks: 0,
        }
    }

    /// Consume the prober, returning the sink and aggregate statistics.
    pub fn into_parts(self) -> (S, SurveyStats) {
        (self.sink, self.stats)
    }

    fn emit(&mut self, record: Record) {
        self.stats.count(&record);
        self.sink.push(record);
    }

    /// Close a still-outstanding probe as a timeout.
    fn close_as_timeout(&mut self, addr: u32, sent: SimTime) {
        self.emit(Record::timeout(addr, sent.as_secs() as u32));
    }
}

impl<S: RecordSink> Agent for SurveyProber<S> {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        for (idx, block) in self.blocks.iter().enumerate() {
            ctx.set_timer(SimTime::EPOCH + block.stagger, idx as u64);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if token == END_TOKEN {
            // Grace period over: flush every outstanding probe as timeout.
            // Sorted by (send time, address) so the record stream is
            // deterministic despite HashMap iteration order.
            let mut outstanding: Vec<(u32, SimTime)> = self.outstanding.drain().collect();
            outstanding.sort_unstable_by_key(|&(addr, sent)| (sent, addr));
            for (addr, sent) in outstanding {
                self.close_as_timeout(addr, sent);
            }
            ctx.stop();
            return;
        }
        let idx = token as usize;
        let (dst, send_at, next_at, finished) = {
            let block = &mut self.blocks[idx];
            if block.pos >= self.cfg.rounds * 256 {
                (0, SimTime::EPOCH, SimTime::EPOCH, true)
            } else {
                let octet = crate::bitrev8((block.pos % 256) as u8);
                let dst = (block.prefix24 << 8) | u32::from(octet);
                let send_at =
                    SimTime::EPOCH + block.stagger + self.slot.saturating_mul(u64::from(block.pos));
                block.pos += 1;
                let next_at =
                    SimTime::EPOCH + block.stagger + self.slot.saturating_mul(u64::from(block.pos));
                (dst, send_at, next_at, false)
            }
        };
        if finished {
            self.finished_blocks += 1;
            if self.finished_blocks == self.blocks.len() {
                // Keep listening one extra round for stragglers, then end.
                let grace = SimDuration::from_secs_f64(self.cfg.round_secs);
                ctx.set_timer(ctx.now() + grace, END_TOKEN);
            }
            return;
        }

        // If the previous round's probe to this address is still open, it
        // has long exceeded the window (rounds ≫ timeout): record timeout.
        if let Some(sent) = self.outstanding.remove(&dst) {
            self.close_as_timeout(dst, sent);
        }
        let now = ctx.now();
        debug_assert_eq!(now, send_at, "timer drift");
        let payload = ProbePayload { dest: dst, send_ns: now.as_ns() }.encode(self.payload_key);
        let seq = (self.blocks[idx].pos.wrapping_sub(1) & 0xffff) as u16;
        let probe =
            Packet::echo_request(self.cfg.prober_addr, dst, self.cfg.ident, seq, payload.to_vec());
        self.outstanding.insert(dst, now);
        ctx.send(probe);
        ctx.set_timer(next_at, token);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        match &pkt.l4 {
            L4::Icmp { kind: IcmpKind::EchoReply { .. }, .. } => {
                let src = pkt.src;
                match self.outstanding.get(&src).copied() {
                    Some(sent) => {
                        let rtt = now.saturating_since(sent);
                        if rtt.as_secs_f64() <= self.cfg.match_timeout_secs {
                            // Within the window: a survey-detected response
                            // — unless the (possibly broken) prober drops it.
                            if coin(&mut self.rng, self.cfg.match_drop_prob) {
                                return; // probe stays open, times out later
                            }
                            self.outstanding.remove(&src);
                            self.emit(Record::matched(
                                src,
                                sent.as_secs() as u32,
                                rtt.as_us() as u32,
                            ));
                        } else {
                            // Too late: the probe timed out, the response
                            // is recorded unmatched, both second-precise.
                            self.outstanding.remove(&src);
                            self.close_as_timeout(src, sent);
                            self.emit(Record::unmatched(src, now.as_secs() as u32));
                        }
                    }
                    None => {
                        // No probe open for this source (duplicate, or a
                        // broadcast response from a neighbor address).
                        self.emit(Record::unmatched(src, now.as_secs() as u32));
                    }
                }
            }
            L4::Icmp { kind: IcmpKind::DestUnreachable { code }, payload } => {
                if let Some(dst) = quoted_destination(payload) {
                    if let Some(sent) = self.outstanding.remove(&dst) {
                        self.emit(Record::icmp_error(dst, sent.as_secs() as u32, *code));
                    }
                }
            }
            _ => {}
        }
    }
}

impl<S: RecordSink> crate::Prober for SurveyProber<S> {
    type Output = (S, SurveyStats);

    fn engine(&self) -> &'static str {
        "survey"
    }

    fn record(&self, scope: &mut beware_telemetry::Scope<'_>) {
        scope.add("probes_sent", self.stats.probes());
        scope.add("matched", self.stats.matched);
        scope.add("timeouts", self.stats.timeouts);
        // Responses past the match window plus foreign/broadcast arrivals
        // — the survey's "recovered late" population.
        scope.add("unmatched", self.stats.unmatched);
        scope.add("errors", self.stats.errors);
    }

    fn finish(self) -> (S, SurveyStats) {
        self.into_parts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prober;
    use beware_dataset::Record;
    use beware_netsim::profile::{BlockProfile, BroadcastCfg};
    use beware_netsim::rng::Dist;
    use beware_netsim::sim::RunSummary;
    use beware_netsim::world::World;

    /// Test driver over the unified API, collecting records in memory.
    fn survey(mut world: World, cfg: SurveyCfg) -> (Vec<Record>, SurveyStats, RunSummary) {
        let ((records, stats), summary) = cfg.build(Vec::new()).run(&mut world);
        (records, stats, summary)
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

    fn one_block_world(profile: BlockProfile) -> World {
        World::from_blocks(11, [(0x0a0000, profile)])
    }

    fn cfg(rounds: u32) -> SurveyCfg {
        SurveyCfg { blocks: vec![0x0a0000], rounds, ..Default::default() }
    }

    #[test]
    fn responsive_block_yields_matched_records() {
        let (records, stats, _) = survey(one_block_world(quiet_profile()), cfg(2));
        // 254 live hosts (.0/.255 excluded) × 2 rounds, all matched.
        assert_eq!(stats.matched, 254 * 2);
        // .0 and .255 never answer (no broadcast configured): timeouts.
        assert_eq!(stats.timeouts, 2 * 2);
        assert_eq!(stats.unmatched, 0);
        let rtts: Vec<f64> = records.iter().filter_map(|r| r.rtt_secs()).collect();
        assert!(rtts.iter().all(|&r| (r - 0.05).abs() < 1e-3));
    }

    #[test]
    fn sparse_block_times_out() {
        let profile = BlockProfile { density: 0.0, ..quiet_profile() };
        let (_, stats, _) = survey(one_block_world(profile), cfg(1));
        assert_eq!(stats.matched, 0);
        assert_eq!(stats.timeouts, 256);
    }

    #[test]
    fn within_block_schedule_spaces_adjacent_octets_half_round() {
        // Capture send order via probe times: all probes hit one block, so
        // reconstruct schedule from records of a no-response world.
        let profile = BlockProfile { density: 0.0, ..quiet_profile() };
        let (records, _, _) = survey(one_block_world(profile), cfg(1));
        let mut time_of = HashMap::new();
        for r in &records {
            time_of.insert(r.addr & 0xff, r.time_s);
        }
        let d = i64::from(time_of[&254]) - i64::from(time_of[&255]);
        assert!((d.abs() - 330).abs() <= 2, "254/255 spacing {d}");
        let d = i64::from(time_of[&0]) - i64::from(time_of[&1]);
        assert!((d.abs() - 330).abs() <= 2, "0/1 spacing {d}");
        // Octets differing in bit 1: 165 s.
        let d = i64::from(time_of[&252]) - i64::from(time_of[&254]);
        assert!((d.abs() - 165).abs() <= 2, "252/254 spacing {d}");
    }

    #[test]
    fn slow_host_recorded_as_timeout_plus_unmatched() {
        // Base RTT 20 s: every response arrives past the 3 s window.
        let profile = BlockProfile { base_rtt: Dist::Constant(20.0), ..quiet_profile() };
        let (records, stats, _) = survey(one_block_world(profile), cfg(1));
        assert_eq!(stats.matched, 0);
        assert_eq!(stats.unmatched, 254);
        assert_eq!(stats.timeouts, 256); // 254 late + 2 dead broadcast addrs
                                         // Unmatched recv = probe time + 20 s.
        let sent: HashMap<u32, u32> =
            records.iter().filter(|r| r.is_timeout()).map(|r| (r.addr, r.time_s)).collect();
        for r in records.iter().filter(|r| r.is_unmatched()) {
            let lat = i64::from(r.time_s) - i64::from(sent[&r.addr]);
            assert!((lat - 20).abs() <= 1, "latency {lat}");
        }
    }

    #[test]
    fn broadcast_block_produces_unmatched_responses() {
        let profile = BlockProfile {
            broadcast: Some(BroadcastCfg {
                responder_prob: 1.0,
                edge_responder_prob: 1.0,
                unicast_silent_prob: 0.0,
                network_addr_responds: false,
            }),
            ..quiet_profile()
        };
        let (_, stats, _) = survey(one_block_world(profile), cfg(1));
        // Probing .255 triggers 254 neighbor responses; each neighbor
        // either has its own probe open (matched against the wrong probe
        // only if within 3 s — but their probes are ≥2.58 s away, so some
        // match, some land unmatched). At minimum, many unmatched appear.
        assert!(stats.unmatched > 100, "unmatched {}", stats.unmatched);
    }

    #[test]
    fn match_drop_prob_breaks_response_rate() {
        let (_, healthy, _) = survey(one_block_world(quiet_profile()), cfg(2));
        let mut c = cfg(2);
        c.match_drop_prob = 0.999;
        let (_, broken, _) = survey(one_block_world(quiet_profile()), c);
        assert!(healthy.response_rate() > 0.9);
        assert!(broken.response_rate() < 0.01, "rate {}", broken.response_rate());
    }

    #[test]
    fn deterministic_records() {
        let run = || survey(one_block_world(quiet_profile()), cfg(2)).0;
        assert_eq!(run(), run());
    }

    #[test]
    fn icmp_errors_recorded_and_excluded_from_matches() {
        let profile = BlockProfile { error_prob: 1.0, ..quiet_profile() };
        let (records, stats, _) = survey(one_block_world(profile), cfg(1));
        assert_eq!(stats.matched, 0);
        assert_eq!(stats.errors, 254);
        assert!(records
            .iter()
            .any(|r| matches!(r.kind, beware_dataset::RecordKind::IcmpError { code: 1 })));
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn empty_block_list_rejected() {
        SurveyProber::new(SurveyCfg::default(), Vec::new());
    }

    #[test]
    fn telemetry_mirrors_stats() {
        let mut world = one_block_world(quiet_profile());
        let mut reg = beware_telemetry::Registry::new();
        let ((_, stats), _) = cfg(2).build(Vec::new()).run_with(&mut world, &mut reg);
        assert_eq!(reg.counter("probe/survey/matched"), Some(stats.matched));
        assert_eq!(reg.counter("probe/survey/timeouts"), Some(stats.timeouts));
        assert_eq!(reg.counter("probe/survey/probes_sent"), Some(stats.probes()));
        // The netsim family was recorded by the same run.
        assert_eq!(reg.counter("netsim/probes"), Some(stats.probes()));
        // The world swap left a usable world behind.
        assert_eq!(world.stats().probes, stats.probes());
    }
}
