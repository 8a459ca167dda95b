//! The ISI *census*: the low-rate, full-space companion prober.
//!
//! The paper's surveys draw their /24 blocks partly from "samples of
//! blocks that were responsive in the last census — another ISI project
//! that probes the entire address space, but less frequently". This module
//! supplies that substrate: a sparse prober that samples a few addresses
//! per block, scores block responsiveness, and a selector that composes a
//! survey's block list the way ISI describes — a stable legacy set probed
//! since 2006 plus a fresh sample of census-responsive blocks.

use beware_netsim::packet::{Packet, L4};
use beware_netsim::sim::{Agent, Ctx};
use beware_netsim::time::{SimDuration, SimTime};
use beware_runtime::rng::{derive_seed, unit_hash};
use beware_wire::icmp::IcmpKind;
use std::collections::BTreeMap;

/// Census configuration.
#[derive(Debug, Clone)]
pub struct CensusCfg {
    /// Blocks to assess (typically the whole routed space).
    pub blocks: Vec<u32>,
    /// Addresses sampled per block (hash-chosen, interior octets).
    pub probes_per_block: u32,
    /// Sending-phase duration in seconds.
    pub duration_secs: f64,
    /// Listen time after the last probe.
    pub cooldown_secs: f64,
    /// The prober's address.
    pub prober_addr: u32,
    /// Determinism seed.
    pub seed: u64,
}

impl Default for CensusCfg {
    fn default() -> Self {
        CensusCfg {
            blocks: Vec::new(),
            probes_per_block: 4,
            duration_secs: 1_800.0,
            cooldown_secs: 60.0,
            prober_addr: 0xC0_00_02_0A,
            seed: 0xce_05,
        }
    }
}

impl CensusCfg {
    /// Build the census prober. Drive it with [`crate::Prober::run`].
    pub fn build(self) -> CensusProber {
        CensusProber::new(self)
    }
}

/// Census outcome: per-block responder counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CensusResult {
    /// Block → number of sampled addresses that answered.
    pub responders: BTreeMap<u32, u32>,
    /// Addresses probed per block (for computing rates).
    pub probes_per_block: u32,
}

impl CensusResult {
    /// Blocks with at least `min_responders` answering addresses, in
    /// ascending block order.
    pub fn responsive_blocks(&self, min_responders: u32) -> Vec<u32> {
        self.responders.iter().filter(|&(_, &n)| n >= min_responders).map(|(&b, _)| b).collect()
    }

    /// Fraction of assessed blocks with any responder.
    pub fn responsive_fraction(&self) -> f64 {
        if self.responders.is_empty() {
            return 0.0;
        }
        self.responders.values().filter(|&&n| n > 0).count() as f64 / self.responders.len() as f64
    }
}

/// Compose a survey block list the ISI way: every `legacy` block (the
/// since-2006 panel) plus a deterministic sample of census-responsive
/// blocks, up to `count` total.
pub fn select_survey_blocks(
    census: &CensusResult,
    legacy: &[u32],
    count: usize,
    seed: u64,
) -> Vec<u32> {
    let mut out: Vec<u32> = legacy.to_vec();
    out.sort_unstable();
    out.dedup();
    let taken: std::collections::BTreeSet<u32> = out.iter().copied().collect();
    let mut candidates: Vec<u32> =
        census.responsive_blocks(1).into_iter().filter(|b| !taken.contains(b)).collect();
    // Deterministic shuffle by per-block hash.
    candidates.sort_by_key(|&b| derive_seed(seed, u64::from(b)));
    for b in candidates {
        if out.len() >= count {
            break;
        }
        out.push(b);
    }
    out.sort_unstable();
    out.truncate(count);
    out
}

/// The census agent.
pub struct CensusProber {
    cfg: CensusCfg,
    /// Flattened probe list: (block, address).
    targets: Vec<(u32, u32)>,
    next: usize,
    result: CensusResult,
    /// Reverse index: address → block (counts once per address).
    answered: BTreeMap<u32, bool>,
}

const SEND_TOKEN: u64 = 0;
const END_TOKEN: u64 = 1;

impl CensusProber {
    /// Build a census over `cfg.blocks`.
    pub fn new(cfg: CensusCfg) -> Self {
        assert!(!cfg.blocks.is_empty(), "census needs blocks");
        assert!(cfg.probes_per_block >= 1);
        let mut targets = Vec::with_capacity(cfg.blocks.len() * cfg.probes_per_block as usize);
        let mut responders = BTreeMap::new();
        for &b in &cfg.blocks {
            responders.insert(b, 0);
            for i in 0..cfg.probes_per_block {
                // Hash-chosen interior octet (avoid .0/.255).
                let h = unit_hash(derive_seed(cfg.seed, u64::from(b)), 0x100 + u64::from(i));
                let octet = 1 + (h * 253.0) as u32;
                targets.push((b, (b << 8) | octet));
            }
        }
        CensusProber {
            result: CensusResult { responders, probes_per_block: cfg.probes_per_block },
            cfg,
            targets,
            next: 0,
            answered: BTreeMap::new(),
        }
    }

    /// Consume the prober, returning the census result.
    pub fn into_result(self) -> CensusResult {
        self.result
    }
}

impl Agent for CensusProber {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimTime::EPOCH, SEND_TOKEN);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if token == END_TOKEN {
            ctx.stop();
            return;
        }
        let interval =
            SimDuration::from_secs_f64(self.cfg.duration_secs / self.targets.len() as f64);
        // One probe per tick keeps the census gentle, as the real one is.
        if self.next >= self.targets.len() {
            ctx.set_timer(
                ctx.now() + SimDuration::from_secs_f64(self.cfg.cooldown_secs),
                END_TOKEN,
            );
            return;
        }
        let (_, addr) = self.targets[self.next];
        let seq = (self.next & 0xffff) as u16;
        self.next += 1;
        ctx.send(Packet::echo_request(self.cfg.prober_addr, addr, 0xce05, seq, vec![]));
        ctx.set_timer(ctx.now() + interval, SEND_TOKEN);
    }

    fn on_packet(&mut self, pkt: Packet, _ctx: &mut Ctx<'_>) {
        let L4::Icmp { kind: IcmpKind::EchoReply { ident, .. }, .. } = &pkt.l4 else {
            return;
        };
        if *ident != 0xce05 {
            return;
        }
        // Count each responding address once, toward its block.
        if self.answered.insert(pkt.src, true).is_none() {
            if let Some(n) = self.result.responders.get_mut(&(pkt.src >> 8)) {
                *n += 1;
            }
        }
    }
}

impl crate::Prober for CensusProber {
    type Output = CensusResult;

    fn engine(&self) -> &'static str {
        "census"
    }

    fn record(&self, scope: &mut beware_telemetry::Scope<'_>) {
        scope.add("probes_sent", self.next as u64);
        scope.add("responders", u64::from(self.result.responders.values().sum::<u32>()));
        scope.add(
            "responsive_blocks",
            self.result.responders.values().filter(|&&n| n > 0).count() as u64,
        );
        scope.add("assessed_blocks", self.result.responders.len() as u64);
    }

    fn finish(self) -> CensusResult {
        self.into_result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prober;
    use beware_netsim::profile::BlockProfile;
    use beware_netsim::rng::Dist;
    use beware_netsim::sim::RunSummary;
    use beware_netsim::world::World;

    /// Test driver over the unified API.
    fn census(mut world: World, cfg: CensusCfg) -> (CensusResult, RunSummary) {
        cfg.build().run(&mut world)
    }

    fn world() -> World {
        // A dense block, a sparse block, and a dead block.
        let mk = |density: f64| BlockProfile {
            base_rtt: Dist::Constant(0.05),
            jitter: Dist::Constant(0.0),
            density,
            response_prob: 1.0,
            error_prob: 0.0,
            dup_prob: 0.0,
            ..Default::default()
        };
        World::from_blocks(77, [(0x0a0000, mk(1.0)), (0x0a0001, mk(0.3)), (0x0a0002, mk(0.0))])
    }

    fn cfg(blocks: Vec<u32>) -> CensusCfg {
        CensusCfg { blocks, duration_secs: 60.0, cooldown_secs: 20.0, ..Default::default() }
    }

    #[test]
    fn census_scores_blocks_by_density() {
        let (result, summary) = census(world(), cfg(vec![0x0a0000, 0x0a0001, 0x0a0002]));
        assert_eq!(summary.packets_sent, 12);
        assert_eq!(result.responders[&0x0a0000], 4, "dense block fully responsive");
        assert_eq!(result.responders[&0x0a0002], 0, "dead block silent");
        assert!(result.responders[&0x0a0001] <= 4);
        let responsive = result.responsive_blocks(1);
        assert!(responsive.contains(&0x0a0000));
        assert!(!responsive.contains(&0x0a0002));
        assert!(result.responsive_fraction() <= 1.0);
    }

    #[test]
    fn selection_keeps_legacy_and_fills_from_census() {
        let (result, _) = census(world(), cfg(vec![0x0a0000, 0x0a0001, 0x0a0002]));
        // Legacy block 0x0a0002 is dead but stays (ISI probes its 2006
        // panel regardless of responsiveness).
        let blocks = select_survey_blocks(&result, &[0x0a0002], 2, 9);
        assert_eq!(blocks.len(), 2);
        assert!(blocks.contains(&0x0a0002));
        // The filler must be census-responsive.
        let filler: Vec<u32> = blocks.iter().copied().filter(|&b| b != 0x0a0002).collect();
        assert!(result.responsive_blocks(1).contains(&filler[0]));
    }

    #[test]
    fn selection_is_deterministic_and_deduped() {
        let (result, _) = census(world(), cfg(vec![0x0a0000, 0x0a0001]));
        let a = select_survey_blocks(&result, &[0x0a0000, 0x0a0000], 2, 3);
        let b = select_survey_blocks(&result, &[0x0a0000, 0x0a0000], 2, 3);
        assert_eq!(a, b);
        assert_eq!(a.iter().filter(|&&x| x == 0x0a0000).count(), 1);
    }

    #[test]
    fn telemetry_mirrors_census_counts() {
        let mut w = world();
        let mut metrics = beware_telemetry::Registry::new();
        let (result, summary) =
            cfg(vec![0x0a0000, 0x0a0002]).build().run_with(&mut w, &mut metrics);
        assert_eq!(metrics.counter("probe/census/probes_sent"), Some(summary.packets_sent));
        assert_eq!(metrics.counter("probe/census/assessed_blocks"), Some(2));
        assert_eq!(
            metrics.counter("probe/census/responders"),
            Some(u64::from(result.responders.values().sum::<u32>()))
        );
        assert_eq!(metrics.counter("probe/census/responsive_blocks"), Some(1));
    }

    #[test]
    fn census_is_deterministic() {
        let run = || census(world(), cfg(vec![0x0a0000, 0x0a0001])).0;
        assert_eq!(run(), run());
    }
}
