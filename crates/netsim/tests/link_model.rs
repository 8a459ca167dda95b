//! Property test: [`LinkLayer`] against the reference model it replaced,
//! a `HashMap<LinkId, SimTime>` of drain times that recomputes each
//! link's capacity and scans the whole event schedule on every hop.
//!
//! The two must agree bit for bit after every call: the delay (or drop),
//! the drop count and the backlog high-water mark. Paths repeat links,
//! times step backwards as well as forwards, events overlap, and the
//! queue cap is small so tail drops are common.

use beware_netsim::link::{LinkCfg, LinkEvent, LinkEventKind, LinkId, LinkLayer};
use beware_netsim::time::{SimDuration, SimTime};
use beware_runtime::rng::unit_hash;
use proptest::prelude::*;
use std::collections::HashMap;

/// The retired link layer, kept verbatim in behaviour.
struct Model {
    cfg: LinkCfg,
    queues: HashMap<LinkId, SimTime>,
    drops: u64,
    peak_backlog: SimDuration,
}

impl Model {
    fn new(cfg: LinkCfg) -> Model {
        Model { cfg, queues: HashMap::new(), drops: 0, peak_backlog: SimDuration::from_ns(0) }
    }

    fn base_capacity(&self, link: LinkId) -> f64 {
        let (tier, stream) = match link {
            LinkId::Access(p16) => (self.cfg.access_pps, 0x11A0_0000_0000 | u64::from(p16)),
            LinkId::Core(asn) => (self.cfg.core_pps, 0x11C0_0000_0000 | u64::from(asn)),
            LinkId::Spine(c) => (self.cfg.spine_pps, 0x11E0_0000_0000 | u64::from(c)),
        };
        tier * (0.75 + 0.5 * unit_hash(self.cfg.seed, stream))
    }

    fn traverse(&mut self, path: &[LinkId], now: SimTime) -> Option<SimDuration> {
        let now_secs = now.as_secs_f64();
        let mut extra = SimDuration::from_ns(0);
        for &link in path {
            let mut capacity = self.base_capacity(link);
            for ev in &self.cfg.events {
                if ev.link != link || !(now_secs >= ev.at_secs && now_secs < ev.until_secs) {
                    continue;
                }
                match ev.kind {
                    LinkEventKind::Degrade { capacity_scale } => capacity *= capacity_scale,
                    LinkEventKind::Partition => {
                        self.drops += 1;
                        return None;
                    }
                }
            }
            let release = self.queues.entry(link).or_insert(SimTime::EPOCH);
            let backlog = release.saturating_since(now);
            if backlog.as_secs_f64() > self.cfg.queue_cap_secs {
                self.drops += 1;
                return None;
            }
            if self.peak_backlog < backlog {
                self.peak_backlog = backlog;
            }
            let service = SimDuration::from_secs_f64(1.0 / capacity.max(1e-9));
            *release = (*release).max(now) + service;
            extra = extra.saturating_add(backlog).saturating_add(service);
        }
        Some(extra)
    }
}

/// A few links per tier, so paths share queues often.
fn link() -> impl Strategy<Value = LinkId> {
    prop_oneof![
        (0u16..3).prop_map(LinkId::Access),
        (100u32..102).prop_map(LinkId::Core),
        (0u8..2).prop_map(LinkId::Spine),
    ]
}

fn event() -> impl Strategy<Value = LinkEvent> {
    let kind = prop_oneof![
        (0.01f64..2.0).prop_map(|capacity_scale| LinkEventKind::Degrade { capacity_scale }),
        Just(LinkEventKind::Partition),
    ];
    let until = prop_oneof![(0.0f64..1.5).prop_map(Some), Just(None)];
    (link(), 0.0f64..2.0, until, kind).prop_map(|(link, at_secs, len, kind)| LinkEvent {
        link,
        at_secs,
        until_secs: len.map_or(f64::INFINITY, |l| at_secs + l),
        kind,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn link_layer_matches_the_retired_model(
        seed in any::<u64>(),
        events in proptest::collection::vec(event(), 0..4),
        calls in proptest::collection::vec(
            (proptest::collection::vec(link(), 1..=3), -20_000_000i64..40_000_000),
            1..400,
        ),
    ) {
        // Slow tiers (5 ms, 0.5 ms, 0.05 ms of service) against a 20 ms
        // queue cap: a few back-to-back packets overflow an access link.
        let cfg = LinkCfg {
            seed,
            access_pps: 200.0,
            core_pps: 2_000.0,
            spine_pps: 20_000.0,
            queue_cap_secs: 0.02,
            events,
        };
        let mut layer = LinkLayer::new(cfg.clone());
        let mut model = Model::new(cfg);
        let mut now_ns = 0u64;
        for (path, step_ns) in &calls {
            now_ns = now_ns.saturating_add_signed(*step_ns);
            let now = SimTime::from_ns(now_ns);
            prop_assert_eq!(layer.traverse(path, now), model.traverse(path, now));
            prop_assert_eq!(layer.drops(), model.drops);
            prop_assert_eq!(layer.peak_backlog_us(), model.peak_backlog.as_ns() / 1_000);
        }
    }
}
