//! The stateless (zmap-style) scanner.
//!
//! No per-probe state: the echo payload carries the probed destination and
//! the send timestamp (plus a validation tag), so a response — from
//! whatever source address, however late — is self-describing. This is the
//! design the paper's authors contributed upstream so zmap could compute
//! RTTs and expose broadcast responders; both Figure 2 (broadcast last
//! octets) and Figure 7 (scan RTT distributions) depend on it.
//!
//! Target order comes from [`crate::permutation::CyclicPermutation`], and
//! sends are paced uniformly over the configured scan duration (real scans
//! took 10.5 hours; scale to taste).

use crate::permutation::CyclicPermutation;
use beware_asdb::PrefixTrie;
use beware_dataset::{ScanMeta, ScanRecord, ZmapScan};
use beware_netsim::packet::{Packet, L4};
use beware_netsim::sim::{Agent, Ctx};
use beware_netsim::time::{SimDuration, SimTime};
use beware_runtime::rng::derive_seed;
use beware_wire::icmp::IcmpKind;
use beware_wire::payload::ProbePayload;

/// Scanner configuration.
#[derive(Debug, Clone)]
pub struct ZmapCfg {
    /// /24 blocks to scan (each contributes all 256 addresses, exactly as
    /// a full-Internet scan would visit them).
    pub blocks: Vec<u32>,
    /// Wall-clock length of the sending phase, seconds.
    pub duration_secs: f64,
    /// Extra listening time after the last probe, seconds — long enough to
    /// catch the >100 s responders the paper reports.
    pub cooldown_secs: f64,
    /// Probes transmitted per scheduling tick (batching keeps the event
    /// queue small on million-address scans).
    pub batch: u32,
    /// The scanner's own address.
    pub prober_addr: u32,
    /// ICMP identifier stamped on probes.
    pub ident: u16,
    /// Determinism seed (permutation + payload key).
    pub seed: u64,
    /// Excluded prefixes `(prefix, len)` — the scanner never probes
    /// addresses they cover (zmap's blocklist: military ranges, opt-outs).
    pub exclude: Vec<(u32, u8)>,
}

impl Default for ZmapCfg {
    fn default() -> Self {
        ZmapCfg {
            blocks: Vec::new(),
            duration_secs: 3_600.0,
            cooldown_secs: 180.0,
            batch: 64,
            prober_addr: 0xC0_00_02_02, // 192.0.2.2
            ident: 0x2a2a,
            seed: 0x2e7a,
            exclude: Vec::new(),
        }
    }
}

impl ZmapCfg {
    /// Build the scanner; `meta` labels the output scan. Drive it with
    /// [`crate::Prober::run`].
    pub fn build(self, meta: ScanMeta) -> ZmapScanner {
        ZmapScanner::new(self, meta)
    }
}

/// The scanner agent.
pub struct ZmapScanner {
    cfg: ZmapCfg,
    perm: CyclicPermutation,
    total: u64,
    sent: u64,
    payload_key: u64,
    scan: ZmapScan,
    blocklist: PrefixTrie<()>,
    /// Targets skipped because a blocklist prefix covered them.
    pub excluded: u64,
    /// Responses that failed payload validation (foreign/corrupt).
    pub invalid_payloads: u64,
}

const SEND_TOKEN: u64 = 0;
const END_TOKEN: u64 = 1;

impl ZmapScanner {
    /// Build a scanner; `meta` labels the output scan.
    pub fn new(cfg: ZmapCfg, meta: ScanMeta) -> Self {
        assert!(!cfg.blocks.is_empty(), "scan needs at least one block");
        let total = cfg.blocks.len() as u64 * 256;
        let perm = CyclicPermutation::new(total, derive_seed(cfg.seed, 0x9e2a));
        let payload_key = derive_seed(cfg.seed, 0xbead);
        let mut blocklist = PrefixTrie::new();
        for &(prefix, len) in &cfg.exclude {
            blocklist.insert(prefix, len, ());
        }
        ZmapScanner {
            cfg,
            perm,
            total,
            sent: 0,
            payload_key,
            scan: ZmapScan::new(meta),
            blocklist,
            excluded: 0,
            invalid_payloads: 0,
        }
    }

    /// Consume the scanner, returning the completed scan.
    pub fn into_scan(self) -> ZmapScan {
        self.scan
    }

    fn index_to_addr(&self, idx: u64) -> u32 {
        let block = self.cfg.blocks[(idx >> 8) as usize];
        (block << 8) | (idx & 0xff) as u32
    }

    fn send_interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.cfg.duration_secs / self.total as f64)
    }
}

impl Agent for ZmapScanner {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimTime::EPOCH, SEND_TOKEN);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if token == END_TOKEN {
            ctx.stop();
            return;
        }
        let interval = self.send_interval();
        for _ in 0..self.cfg.batch {
            let Some(idx) = self.perm.next() else {
                // Sending phase over: listen through the cooldown.
                let grace = SimDuration::from_secs_f64(self.cfg.cooldown_secs);
                ctx.set_timer(ctx.now() + grace, END_TOKEN);
                return;
            };
            let dst = self.index_to_addr(idx);
            if self.blocklist.lookup(dst).is_some() {
                self.excluded += 1;
                continue;
            }
            let now = ctx.now();
            let payload = ProbePayload { dest: dst, send_ns: now.as_ns() }.encode(self.payload_key);
            let seq = (self.sent & 0xffff) as u16;
            self.sent += 1;
            ctx.send(Packet::echo_request(
                self.cfg.prober_addr,
                dst,
                self.cfg.ident,
                seq,
                payload.to_vec(),
            ));
        }
        let next = ctx.now() + interval.saturating_mul(u64::from(self.cfg.batch));
        ctx.set_timer(next, SEND_TOKEN);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let L4::Icmp { kind: IcmpKind::EchoReply { .. }, payload } = &pkt.l4 {
            match ProbePayload::decode(payload, self.payload_key) {
                Ok(p) => {
                    let Some(rtt_ns) = p.rtt_ns(ctx.now().as_ns()) else { return };
                    let rtt_us = (rtt_ns / 1_000).min(u64::from(u32::MAX)) as u32;
                    self.scan.records.push(ScanRecord {
                        probed: p.dest,
                        responder: pkt.src,
                        rtt_us,
                    });
                }
                Err(_) => self.invalid_payloads += 1,
            }
        }
    }
}

impl crate::Prober for ZmapScanner {
    type Output = ZmapScan;

    fn engine(&self) -> &'static str {
        "zmap"
    }

    fn record(&self, scope: &mut beware_telemetry::Scope<'_>) {
        scope.add("probes_sent", self.sent);
        scope.add("responses", self.scan.records.len() as u64);
        scope.add("cross_address", self.scan.cross_address_records().count() as u64);
        scope.add("excluded", self.excluded);
        scope.add("invalid_payloads", self.invalid_payloads);
    }

    fn finish(self) -> ZmapScan {
        self.into_scan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prober;
    use beware_netsim::profile::{BlockProfile, BroadcastCfg};
    use beware_netsim::rng::Dist;
    use beware_netsim::sim::RunSummary;
    use beware_netsim::world::World;

    /// Test driver over the unified API.
    fn scan(mut world: World, cfg: ZmapCfg) -> (ZmapScan, RunSummary) {
        cfg.build(meta()).run(&mut world)
    }

    fn meta() -> ScanMeta {
        ScanMeta { label: "test".into(), day: "Mon".into(), begin: "00:00".into() }
    }

    fn quiet_profile() -> BlockProfile {
        BlockProfile {
            base_rtt: Dist::Constant(0.08),
            jitter: Dist::Constant(0.0),
            density: 1.0,
            response_prob: 1.0,
            error_prob: 0.0,
            dup_prob: 0.0,
            ..Default::default()
        }
    }

    fn cfg(blocks: Vec<u32>) -> ZmapCfg {
        ZmapCfg { blocks, duration_secs: 60.0, cooldown_secs: 30.0, ..Default::default() }
    }

    #[test]
    fn scan_covers_every_live_address_once() {
        let w = World::from_blocks(5, [(0x0a0000, quiet_profile()), (0x0a0001, quiet_profile())]);
        let (scan, summary) = scan(w, cfg(vec![0x0a0000, 0x0a0001]));
        assert_eq!(summary.packets_sent, 512);
        // 254 live per block (bcast/network dead, no broadcast cfg).
        assert_eq!(scan.response_count(), 508);
        assert_eq!(scan.responder_count(), 508);
        // Every responder was probed directly.
        assert!(scan.records.iter().all(|r| !r.is_cross_address()));
        // RTTs reflect the constant world.
        assert!(scan.records.iter().all(|r| (r.rtt_secs() - 0.08).abs() < 0.002));
    }

    #[test]
    fn broadcast_responders_show_cross_address_records() {
        let profile = BlockProfile {
            broadcast: Some(BroadcastCfg {
                responder_prob: 1.0,
                edge_responder_prob: 1.0,
                unicast_silent_prob: 0.0,
                network_addr_responds: true,
            }),
            ..quiet_profile()
        };
        let w = World::from_blocks(5, [(0x0a0000, profile)]);
        let (scan, _) = scan(w, cfg(vec![0x0a0000]));
        let cross: Vec<_> = scan.cross_address_records().collect();
        // Probing .255 and .0 each triggered 254 neighbor replies.
        assert_eq!(cross.len(), 508);
        assert!(cross.iter().all(|r| r.probed == 0x0a0000ff || r.probed == 0x0a000000));
        assert!(cross.iter().all(|r| r.responder != r.probed));
    }

    #[test]
    fn blocklist_excludes_covered_addresses() {
        let w = World::from_blocks(5, [(0x0a0000, quiet_profile()), (0x0a0001, quiet_profile())]);
        // Exclude the entire second block plus half of the first.
        let cfg = ZmapCfg {
            exclude: vec![(0x0a000100, 24), (0x0a000080, 25)],
            ..cfg(vec![0x0a0000, 0x0a0001])
        };
        let scanner = ZmapScanner::new(cfg, meta());
        let (scanner, _, summary) = beware_netsim::Simulation::new(w, scanner).run();
        assert_eq!(scanner.excluded, 256 + 128);
        assert_eq!(summary.packets_sent, 512 - 256 - 128);
        let scan = scanner.into_scan();
        assert!(
            scan.records.iter().all(|r| r.probed < 0x0a000080),
            "no probed address may fall in an excluded range"
        );
    }

    #[test]
    fn scan_is_deterministic() {
        let run = || {
            let w = World::from_blocks(5, [(0x0a0000, quiet_profile())]);
            let (scan, _) = scan(w, cfg(vec![0x0a0000]));
            scan.records
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn pacing_spreads_sends_over_duration() {
        let w =
            World::from_blocks(5, [(0x0a0000, BlockProfile { density: 0.0, ..quiet_profile() })]);
        let (_, summary) = scan(w, cfg(vec![0x0a0000]));
        // End time ≈ duration + cooldown.
        let end = summary.end_time.as_secs_f64();
        assert!((85.0..95.0).contains(&end), "end {end}");
    }

    #[test]
    fn telemetry_mirrors_scan_counts() {
        let mut w = World::from_blocks(5, [(0x0a0000, quiet_profile())]);
        let mut metrics = beware_telemetry::Registry::new();
        let (scan, summary) = cfg(vec![0x0a0000]).build(meta()).run_with(&mut w, &mut metrics);
        assert_eq!(metrics.counter("probe/zmap/probes_sent"), Some(summary.packets_sent));
        assert_eq!(metrics.counter("probe/zmap/responses"), Some(scan.records.len() as u64));
        assert_eq!(metrics.counter("probe/zmap/excluded"), Some(0));
        assert_eq!(metrics.counter("netsim/probes"), Some(summary.packets_sent));
    }

    #[test]
    fn slow_responders_caught_within_cooldown() {
        let w = World::from_blocks(
            5,
            [(0x0a0000, BlockProfile { base_rtt: Dist::Constant(20.0), ..quiet_profile() })],
        );
        let (scan, _) = scan(w, cfg(vec![0x0a0000]));
        assert_eq!(scan.response_count(), 254);
        assert!(scan.records.iter().all(|r| (r.rtt_secs() - 20.0).abs() < 0.01));
    }
}
