//! Scenario construction: from a synthetic Internet plan to a populated
//! simulation world.
//!
//! This is where the paper's *causal* findings are encoded as behavior
//! parameters, per Autonomous System kind:
//!
//! * cellular blocks get radio wake-up (Section 6.3), deep-buffer
//!   congestion and disconnect episodes (Section 6.4);
//! * satellite blocks get a ≥ 500 ms propagation floor with capped queues
//!   (Figure 11: "1st percentile RTT ... exceeds 500ms in all cases",
//!   99th percentiles "predominantly below 3s");
//! * broadband/academic/hosting blocks are fast and reliable, with the
//!   usual sprinkling of broadcast responders, middlebox firewalls and
//!   the occasional reflector (Sections 3.3.1–3.3.2);
//! * mixed-cellular ASes behave cellularly on a minority of their blocks,
//!   reproducing the low turtle *fractions* of AS9829 and AS3352;
//! * transit (Chinanet) is broadband-like with a ~1.5% cellular-ish tail.
//!
//! Vantage points model the four ISI collection sites; the inter-continent
//! propagation matrix feeds each block's base RTT.

use crate::link::{LinkCfg, LinkEvent};
use crate::profile::{
    BlockProfile, BroadcastCfg, CongestionCfg, DosCfg, EpisodeCfg, FirewallCfg, RateLimitCfg,
    StormCfg, WakeupCfg,
};
use crate::rng::Dist;
use crate::space::{LazyCfg, ProfileSource, ResolvedBlock};
use crate::world::World;
use beware_asdb::{AsKind, Asn, Continent, GenConfig, InternetPlan};
use beware_runtime::rng::{derive_seed, unit_hash};
use std::sync::Arc;

/// One of the four ISI survey vantage points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vantage {
    /// Single-letter code used in survey names (e.g. the `w` in IT63w).
    pub code: char,
    /// Human-readable location.
    pub location: &'static str,
    /// Continent, for the propagation matrix.
    pub continent: Continent,
}

/// The four ISI vantage points: Marina del Rey "w", Ft. Collins "c",
/// Fujisawa-shi "j", Athens "g".
pub const VANTAGES: [Vantage; 4] = [
    Vantage {
        code: 'w',
        location: "Marina del Rey, California",
        continent: Continent::NorthAmerica,
    },
    Vantage { code: 'c', location: "Ft. Collins, Colorado", continent: Continent::NorthAmerica },
    Vantage { code: 'j', location: "Fujisawa-shi, Kanagawa, Japan", continent: Continent::Asia },
    Vantage { code: 'g', location: "Athens, Greece", continent: Continent::Europe },
];

/// Look up a vantage by its code letter.
pub fn vantage(code: char) -> Option<Vantage> {
    VANTAGES.iter().copied().find(|v| v.code == code)
}

/// Round-trip propagation between continents in seconds (symmetric).
pub fn propagation_rtt(a: Continent, b: Continent) -> f64 {
    use Continent::*;
    if a == b {
        return 0.02;
    }
    let key = |x: Continent, y: Continent| (x.min(y), x.max(y));
    match key(a, b) {
        (SouthAmerica, NorthAmerica) => 0.12,
        (SouthAmerica, Europe) => 0.16,
        (SouthAmerica, Asia) => 0.22,
        (SouthAmerica, Africa) => 0.20,
        (SouthAmerica, Oceania) => 0.22,
        (Asia, Europe) => 0.14,
        (Asia, Africa) => 0.18,
        (Asia, NorthAmerica) => 0.12,
        (Asia, Oceania) => 0.12,
        (Europe, Africa) => 0.08,
        (Europe, NorthAmerica) => 0.09,
        (Europe, Oceania) => 0.25,
        (Africa, NorthAmerica) => 0.15,
        (Africa, Oceania) => 0.25,
        (NorthAmerica, Oceania) => 0.15,
        _ => 0.15,
    }
}

/// Scenario parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioCfg {
    /// Survey year (2006–2015): controls the cellular share of the space.
    pub year: u16,
    /// Master determinism seed.
    pub seed: u64,
    /// Number of /24 blocks in the generated Internet.
    pub total_blocks: u32,
    /// Vantage point the prober sits at.
    pub vantage: Vantage,
}

impl Default for ScenarioCfg {
    fn default() -> Self {
        ScenarioCfg { year: 2015, seed: 0x1511_0b5e, total_blocks: 1024, vantage: VANTAGES[0] }
    }
}

/// A generated Internet plus the configuration to instantiate worlds on it.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Parameters the scenario was built with.
    pub cfg: ScenarioCfg,
    /// The synthetic Internet (AS registry + prefix allocations).
    pub plan: InternetPlan,
}

/// Per-block hash streams.
mod stream {
    pub const SUBNET_BITS: u64 = 0x10;
    pub const BROADCAST: u64 = 0x11;
    pub const FIREWALL: u64 = 0x12;
    pub const DOS: u64 = 0x13;
    pub const DENSITY: u64 = 0x14;
    pub const MIXED_CELL: u64 = 0x15;
    pub const RATE_LIMIT: u64 = 0x16;
    pub const XPLORNET_SAT: u64 = 0x17;
    pub const DIURNAL: u64 = 0x18;
}

impl Scenario {
    /// Generate the Internet for `cfg`.
    pub fn new(cfg: ScenarioCfg) -> Self {
        let plan = InternetPlan::generate(&GenConfig {
            year: cfg.year,
            seed: derive_seed(cfg.seed, PLAN_SEED_STREAM),
            total_blocks: cfg.total_blocks,
        });
        Scenario { cfg, plan }
    }

    /// Wrap an existing plan (e.g. loaded from `beware_asdb::persist`)
    /// instead of generating one. `cfg.year` and `cfg.total_blocks` are
    /// overridden by the plan's own values where they conflict.
    pub fn from_plan(mut cfg: ScenarioCfg, plan: InternetPlan) -> Self {
        cfg.year = plan.year;
        cfg.total_blocks = plan.block_count();
        Scenario { cfg, plan }
    }

    /// The attribution database for this scenario.
    pub fn db(&self) -> beware_asdb::AsDb {
        self.plan.to_db()
    }

    /// The seed of the worlds this scenario builds — needed by oracles
    /// that interrogate host-level ground truth (e.g. the filter-ablation
    /// experiment asks which addresses *really are* broadcast responders).
    pub fn world_seed(&self) -> u64 {
        derive_seed(self.cfg.seed, 0x0030_411d)
    }

    /// Instantiate the world as seen from the scenario's vantage point:
    /// [`Self::lazy_space`] behind an unbounded host table, with a
    /// profile cache that holds every routed block, so a sweep of the
    /// plan's blocks resolves each of them once.
    pub fn build_world(&self) -> World {
        let space = self.lazy_space();
        let lazy = LazyCfg { profile_cache: space.routed_blocks().max(1), ..LazyCfg::default() };
        World::procedural(self.world_seed(), Arc::new(space), &lazy)
    }

    /// This scenario's address space as a [`ProfileSource`]: each block's
    /// profile, resolved on demand. Build it once and share it (`Arc`)
    /// across the per-chunk worlds of a full-space campaign.
    pub fn lazy_space(&self) -> ProceduralSpace {
        ProceduralSpace { scenario: self.clone(), db: self.db() }
    }

    /// The link-layer configuration scenarios attach to their worlds:
    /// default tier capacities, a seed derived from the scenario seed
    /// (independent of the behavior streams), and the given event
    /// schedule.
    pub fn link_cfg(&self, events: Vec<LinkEvent>) -> LinkCfg {
        LinkCfg { seed: derive_seed(self.cfg.seed, 0x0040_11aa), events, ..LinkCfg::default() }
    }

    /// Deterministic per-block behavior profile.
    fn block_profile(
        &self,
        block: u32,
        asn: Asn,
        kind: AsKind,
        continent: Continent,
    ) -> BlockProfile {
        let bseed = derive_seed(self.cfg.seed, u64::from(block));
        let h = |s: u64| unit_hash(bseed, s);
        let path_rtt = propagation_rtt(self.cfg.vantage.continent, continent);

        // Resolve effective kind for blocks of heterogeneous ASes.
        let effective = match kind {
            AsKind::MixedCellular => {
                if h(stream::MIXED_CELL) < 0.30 {
                    AsKind::Cellular
                } else {
                    AsKind::Broadband
                }
            }
            // Xplornet (AS22995): rural provider, roughly half satellite.
            AsKind::Broadband if asn == Asn(22995) && h(stream::XPLORNET_SAT) < 0.5 => {
                AsKind::Satellite
            }
            other => other,
        };

        let mut p = match effective {
            AsKind::Broadband | AsKind::MixedCellular => BlockProfile {
                base_rtt: Dist::LogNormal { median: path_rtt + 0.03, sigma: 0.55 },
                jitter: Dist::Exponential { mean: 0.004 },
                density: 0.30,
                response_prob: 0.97,
                congestion: Some(CongestionCfg {
                    host_prob: 0.015,
                    extra: Dist::LogNormal { median: 0.8, sigma: 0.8 },
                    busy_loss: 0.10,
                }),
                ..Default::default()
            },
            AsKind::Academic => BlockProfile {
                base_rtt: Dist::LogNormal { median: path_rtt + 0.008, sigma: 0.25 },
                jitter: Dist::Exponential { mean: 0.001 },
                density: 0.45,
                response_prob: 0.99,
                ..Default::default()
            },
            AsKind::Hosting => BlockProfile {
                base_rtt: Dist::LogNormal { median: path_rtt + 0.004, sigma: 0.2 },
                jitter: Dist::Exponential { mean: 0.0005 },
                density: 0.55,
                response_prob: 0.995,
                ..Default::default()
            },
            AsKind::Transit => BlockProfile {
                base_rtt: Dist::LogNormal { median: path_rtt + 0.025, sigma: 0.45 },
                jitter: Dist::Exponential { mean: 0.006 },
                density: 0.18,
                response_prob: 0.95,
                // The ~1.5% high-latency tail Chinanet shows in Table 4.
                wakeup: Some(WakeupCfg { host_prob: 0.012, ..Default::default() }),
                congestion: Some(CongestionCfg {
                    host_prob: 0.012,
                    extra: Dist::LogNormal { median: 1.0, sigma: 0.8 },
                    busy_loss: 0.15,
                }),
                ..Default::default()
            },
            AsKind::Cellular => BlockProfile {
                base_rtt: Dist::LogNormal { median: path_rtt + 0.22, sigma: 0.35 },
                jitter: Dist::Exponential { mean: 0.12 },
                density: 0.12,
                response_prob: 0.87,
                wakeup: Some(WakeupCfg::default()),
                congestion: Some(CongestionCfg::default()),
                episodes: Some(EpisodeCfg::default()),
                storms: Some(StormCfg::default()),
                ..Default::default()
            },
            AsKind::Satellite => BlockProfile {
                // ≥ 500 ms floor: ~250 ms per geosynchronous traverse each
                // way, plus geography.
                base_rtt: Dist::Uniform { lo: 0.52 + path_rtt * 0.3, hi: 0.72 + path_rtt * 0.3 },
                jitter: Dist::Exponential { mean: 0.09 },
                density: 0.22,
                response_prob: 0.96,
                rtt_cap: Some(2.2),
                // Rare, long outage-buffer episodes: the 517 s outliers.
                episodes: Some(EpisodeCfg {
                    host_prob: 0.015,
                    interval: Dist::Exponential { mean: 40_000.0 },
                    duration: Dist::LogNormal { median: 250.0, sigma: 0.5 },
                    max_duration_secs: 520.0,
                    buffer_cap: 600,
                    buffer_prob: 0.9,
                    blackout_secs_max: 10.0,
                }),
                ..Default::default()
            },
        };

        // Diurnal congestion modulation on access networks, peaking in
        // the block's local evening: continents (and a per-block wobble)
        // phase-shift the peak, so scans launched at different hours (the
        // paper's Table 3 controls) see slightly different loads.
        if matches!(effective, AsKind::Cellular | AsKind::Broadband | AsKind::MixedCellular) {
            let continent_shift = match continent {
                Continent::Asia => 0.0,
                Continent::Oceania => 3_600.0,
                Continent::Europe => 28_800.0,
                Continent::Africa => 28_800.0,
                Continent::SouthAmerica => 46_800.0,
                Continent::NorthAmerica => 54_000.0,
            };
            p.diurnal = Some(crate::profile::DiurnalCfg {
                amplitude: 0.35,
                peak_offset_secs: 72_000.0 - continent_shift + 3_600.0 * h(stream::DIURNAL),
                period_secs: 86_400.0,
            });
        }

        // Per-block density wobble (±30%).
        p.density = (p.density * (0.7 + 0.6 * h(stream::DENSITY))).min(0.95);

        // Subnet layout: mostly flat /24s, a minority subnetted smaller.
        let sb = h(stream::SUBNET_BITS);
        p.subnet_host_bits = if sb < 0.60 {
            8
        } else if sb < 0.78 {
            7
        } else if sb < 0.90 {
            6
        } else if sb < 0.97 {
            5
        } else {
            4
        };

        // Broadcast responders on a fifth of fixed-line blocks (cellular
        // address pools are not bridged subnets). Responders concentrate
        // at subnet-edge addresses (routers at .254/.1) and are mostly
        // silent to unicast — the population whose stable 165/330/495 s
        // artifacts the EWMA filter removes. Interior, unicast-responsive
        // responders are kept rare: their occasional-loss false latencies
        // are *not* filterable (the paper's residual noise) and real data
        // shows them well below 1% of addresses.
        let fixed_line = matches!(
            effective,
            AsKind::Broadband | AsKind::Academic | AsKind::Hosting | AsKind::Transit
        );
        if fixed_line && h(stream::BROADCAST) < 0.20 {
            p.broadcast = Some(BroadcastCfg {
                responder_prob: 0.005 + 0.015 * h(stream::BROADCAST + 100),
                edge_responder_prob: 0.35 + 0.45 * h(stream::BROADCAST + 300),
                unicast_silent_prob: 0.55 + 0.3 * h(stream::BROADCAST + 400),
                network_addr_responds: h(stream::BROADCAST + 200) < 0.5,
            });
        }

        // Middlebox RST-ing firewalls guard a slice of edge networks.
        if matches!(effective, AsKind::Broadband | AsKind::Hosting) && h(stream::FIREWALL) < 0.12 {
            p.firewall = Some(FirewallCfg::default());
        }

        // A small number of blocks contain reflectors/DoS targets.
        if h(stream::DOS) < 0.03 {
            p.dos = Some(DosCfg { addr_prob: 0.01, ..Default::default() });
        }

        // RFC 1812 rate limiting on some conservative networks.
        if matches!(effective, AsKind::Academic | AsKind::Transit) && h(stream::RATE_LIMIT) < 0.2 {
            p.icmp_rate_limit = Some(RateLimitCfg { rate_per_sec: 2.0, burst: 10 });
        }

        p
    }
}

/// Seed stream used to derive the plan generator's seed from the scenario
/// seed, keeping it independent of the world's behavior streams.
const PLAN_SEED_STREAM: u64 = 0x1a40;

/// A [`ProfileSource`] over a scenario: block profiles as a pure function
/// of the prefix — longest-prefix-match the attribution database for the
/// announcing AS, then derive the per-block profile from the scenario
/// seed. Because both steps are pure, a resolution can be recomputed at
/// any time; nothing about the space ever needs to stay resident.
#[derive(Debug)]
pub struct ProceduralSpace {
    scenario: Scenario,
    db: beware_asdb::AsDb,
}

impl ProfileSource for ProceduralSpace {
    fn resolve(&self, prefix24: u32) -> Option<ResolvedBlock> {
        let info = self.db.lookup(prefix24 << 8)?;
        let profile = self.scenario.block_profile(prefix24, info.asn, info.kind, info.continent);
        Some(ResolvedBlock { profile, route: Some((info.asn, info.continent)) })
    }

    fn routed_blocks(&self) -> usize {
        self.scenario.plan.block_count() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vantage_lookup() {
        assert_eq!(vantage('w').unwrap().continent, Continent::NorthAmerica);
        assert_eq!(vantage('j').unwrap().location, "Fujisawa-shi, Kanagawa, Japan");
        assert!(vantage('x').is_none());
    }

    #[test]
    fn propagation_is_symmetric_and_positive() {
        for a in Continent::ALL {
            for b in Continent::ALL {
                let ab = propagation_rtt(a, b);
                assert!(ab > 0.0);
                assert_eq!(ab, propagation_rtt(b, a));
            }
            assert_eq!(propagation_rtt(a, a), 0.02);
        }
    }

    #[test]
    fn scenario_builds_a_routed_world() {
        let sc = Scenario::new(ScenarioCfg { total_blocks: 128, ..Default::default() });
        let world = sc.build_world();
        assert_eq!(world.block_count() as u32, sc.plan.block_count());
        // Every planned block is routed with a valid profile.
        for (block, _) in sc.plan.blocks() {
            assert!(world.has_block(block));
            world.block_profile(block).unwrap().validate().unwrap();
        }
    }

    #[test]
    fn cellular_blocks_get_wakeup_and_satellite_gets_floor() {
        let sc = Scenario::new(ScenarioCfg { total_blocks: 512, ..Default::default() });
        let world = sc.build_world();
        let db = sc.db();
        let mut saw_cellular = false;
        let mut saw_satellite = false;
        for (block, _) in sc.plan.blocks() {
            let info = db.lookup(block << 8).unwrap();
            let p = world.block_profile(block).unwrap();
            match info.kind {
                AsKind::Cellular => {
                    saw_cellular = true;
                    assert!(p.wakeup.is_some(), "cellular block lacks wake-up");
                    assert!(p.episodes.is_some());
                }
                AsKind::Satellite => {
                    saw_satellite = true;
                    assert!(p.wakeup.is_none());
                    assert!(p.rtt_cap.is_some());
                    match p.base_rtt {
                        Dist::Uniform { lo, .. } => assert!(lo >= 0.5),
                        ref other => panic!("unexpected satellite base {other:?}"),
                    }
                }
                _ => {}
            }
        }
        assert!(saw_cellular && saw_satellite);
    }

    #[test]
    fn mixed_cellular_splits_blocks() {
        let sc = Scenario::new(ScenarioCfg { total_blocks: 2048, ..Default::default() });
        let world = sc.build_world();
        // AS9829's blocks must be a mix: some with wake-up, most without.
        let blocks = sc.plan.blocks_of(Asn(9829));
        assert!(blocks.len() > 10, "need enough blocks to test the split");
        let cellularish =
            blocks.iter().filter(|b| world.block_profile(**b).unwrap().wakeup.is_some()).count();
        let frac = cellularish as f64 / blocks.len() as f64;
        assert!((0.1..0.6).contains(&frac), "mixed split {frac}");
    }

    #[test]
    fn same_cfg_same_world_profiles() {
        let cfg = ScenarioCfg { total_blocks: 64, ..Default::default() };
        let a = Scenario::new(cfg);
        let b = Scenario::new(cfg);
        let wa = a.build_world();
        let wb = b.build_world();
        for (block, _) in a.plan.blocks() {
            assert_eq!(wa.block_profile(block), wb.block_profile(block));
        }
    }

    #[test]
    fn vantage_changes_base_rtt_not_structure() {
        let mk = |v: Vantage| {
            Scenario::new(ScenarioCfg { vantage: v, total_blocks: 64, ..Default::default() })
        };
        let w_us = mk(VANTAGES[0]).build_world();
        let w_jp = mk(VANTAGES[2]).build_world();
        assert_eq!(w_us.block_count(), w_jp.block_count());
    }

    /// A scenario world is observationally identical to an eager block
    /// table of the same plan: a `from_blocks` world over every planned
    /// block, with the profile its registered AS gives it. Same routed
    /// space, same profiles, and byte-identical probe responses over an
    /// interleaved routed + unrouted sweep.
    #[test]
    fn lazy_world_answers_exactly_like_the_eager_world() {
        use crate::packet::Packet;
        use crate::time::{SimDuration, SimTime};
        let sc = Scenario::new(ScenarioCfg { total_blocks: 48, ..Default::default() });
        let mut eager = World::from_blocks(
            sc.world_seed(),
            sc.plan.blocks().map(|(block, asn)| {
                let info = sc.plan.registry.get(asn).expect("allocated ASN is registered");
                (block, sc.block_profile(block, asn, info.kind, info.continent))
            }),
        );
        let mut lazy = sc.build_world();
        assert_eq!(eager.block_count(), lazy.block_count());

        let blocks: Vec<u32> = sc.plan.blocks().map(|(b, _)| b).collect();
        for &block in &blocks {
            assert!(lazy.has_block(block));
            assert_eq!(eager.block_profile(block), lazy.block_profile(block), "{block:#08x}");
        }
        // An unallocated prefix is unrouted in both.
        let stray = (0u32..).find(|p| !blocks.contains(p)).unwrap();
        assert!(!eager.has_block(stray) && !lazy.has_block(stray));

        let mut at = SimTime::EPOCH;
        for (i, &block) in blocks.iter().enumerate().take(24) {
            for off in [1u32, 7, 0xc8, 0xff] {
                let dst = (block << 8) | off;
                let probe = Packet::echo_request(0x0101_0101, dst, 9, i as u16, vec![0xee; 8]);
                at += SimDuration::from_millis(3);
                assert_eq!(eager.probe(&probe, at), lazy.probe(&probe, at), "{dst:#010x}");
            }
            let miss = Packet::echo_request(0x0101_0101, (stray << 8) | 5, 9, i as u16, vec![]);
            assert_eq!(eager.probe(&miss, at), lazy.probe(&miss, at));
        }
        assert_eq!(eager.stats(), lazy.stats());
        assert_eq!(eager.hosts_instantiated(), lazy.hosts_instantiated());
    }
}
