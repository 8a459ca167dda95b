//! Shared router/link layer: the topology-level cause of correlated
//! delay.
//!
//! Per-host profiles can make *one* address slow; they cannot make every
//! host behind a congested uplink slow **together** — the
//! shared-bottleneck signature that delay-anomaly pinpointing exploits.
//! This module adds a small fat-tree-ish aggregation topology over the
//! address space: every `/16` shares an access link, every AS shares an
//! aggregation (core) link, every continent shares a spine link. A probe
//! traverses its prefix's chain of links, and each link is a passive
//! fluid queue — so back-to-back probes into the same prefix see each
//! other's backlog, and a degraded link inflates delay for *every* host
//! behind it at once.
//!
//! The queue model is deliberately simple (one `drain-at` timestamp per
//! link, no per-packet bookkeeping) and fully deterministic: no RNG, no
//! wall clock, state advanced only by `traverse` calls in probe order.
//! Base capacities get a seeded per-link wobble so no two access links
//! are exactly alike. A link's wobbled capacity and service time are
//! computed once, on its first traversal, and cached beside its drain
//! timestamp in a `Vec` of queues that an unkeyed
//! [`beware_runtime::IntMap`] indexes by link; only links some event
//! names rescan the schedule per traversal.
//!
//! Scenario events ([`LinkEvent`], the `ShiftCfg` of the link layer)
//! degrade or partition a named link during a time window — the
//! structural cause behind regime-shift studies: a capacity step at time
//! T inflates RTTs for the whole prefix behind the link, and a partition
//! black-holes it.

use crate::time::{SimDuration, SimTime};
use beware_runtime::rng::unit_hash;
use beware_runtime::IntMap;

/// Identity of a shared link in the aggregation topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkId {
    /// Edge link shared by every `/24` under one `/16` (`addr >> 16`).
    Access(u16),
    /// Aggregation link shared by everything one AS announces.
    Core(u32),
    /// Continental spine (index into `Continent::ALL`).
    Spine(u8),
}

/// What a scheduled event does to its link while active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkEventKind {
    /// Scale the link's service capacity (e.g. `0.02` = 50× slower), so
    /// queueing delay inflates for every prefix behind the link.
    Degrade {
        /// Multiplier on the link's packets-per-second capacity.
        capacity_scale: f64,
    },
    /// Black-hole everything crossing the link.
    Partition,
}

/// A link-layer scenario event: `kind` applies to `link` during
/// `[at_secs, until_secs)` of sim time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkEvent {
    /// The affected link.
    pub link: LinkId,
    /// Window start, seconds since the sim epoch.
    pub at_secs: f64,
    /// Window end (exclusive); `f64::INFINITY` for "until the end".
    pub until_secs: f64,
    /// What happens while the window is active.
    pub kind: LinkEventKind,
}

impl LinkEvent {
    fn active(&self, now_secs: f64) -> bool {
        now_secs >= self.at_secs && now_secs < self.until_secs
    }
}

/// Link-layer parameters: base capacities per tier plus the event
/// schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkCfg {
    /// Seed for the per-link capacity wobble.
    pub seed: u64,
    /// Base service capacity of access (`/16`) links, packets/second.
    pub access_pps: f64,
    /// Base service capacity of AS aggregation links, packets/second.
    pub core_pps: f64,
    /// Base service capacity of continental spines, packets/second.
    pub spine_pps: f64,
    /// Maximum queueing delay a link absorbs before tail-dropping.
    pub queue_cap_secs: f64,
    /// Scheduled degrade/partition windows.
    pub events: Vec<LinkEvent>,
}

impl Default for LinkCfg {
    fn default() -> Self {
        LinkCfg {
            seed: 0,
            access_pps: 25_000.0,
            core_pps: 400_000.0,
            spine_pps: 5_000_000.0,
            queue_cap_secs: 2.0,
            events: Vec::new(),
        }
    }
}

/// Per-link hash streams for the capacity wobble, disjoint from the host
/// and scenario streams by their high bits.
fn link_stream(link: LinkId) -> u64 {
    match link {
        LinkId::Access(p16) => 0x11A0_0000_0000 | u64::from(p16),
        LinkId::Core(asn) => 0x11C0_0000_0000 | u64::from(asn),
        LinkId::Spine(c) => 0x11E0_0000_0000 | u64::from(c),
    }
}

/// One materialized link: its fluid queue plus the service time its
/// wobbled capacity implies, both computed on first traversal.
#[derive(Debug)]
struct LinkQueue {
    /// When the queue drains.
    release: SimTime,
    /// Base capacity: the tier rate with the link's seeded wobble.
    base_pps: f64,
    /// Service time at `base_pps`.
    service: SimDuration,
    /// Whether some [`LinkEvent`] names this link; only such links scan
    /// the event schedule and recompute their service time.
    evented: bool,
}

/// The mutable link layer of one world: lazily materialized fluid queues
/// plus drop/backlog accounting.
#[derive(Debug)]
pub struct LinkLayer {
    cfg: LinkCfg,
    /// Slot in `queues` of every link traversed so far; a link not
    /// present is idle. The map holds only indices, so its entries stay
    /// small and the queues sit contiguously.
    slots: IntMap<LinkId, u32>,
    queues: Vec<LinkQueue>,
    drops: u64,
    peak_backlog: SimDuration,
}

/// Service time of one packet at `capacity` packets/second.
fn service_time(capacity: f64) -> SimDuration {
    SimDuration::from_secs_f64(1.0 / capacity.max(1e-9))
}

impl LinkQueue {
    /// An idle queue for `link`: base capacity is the tier rate with a
    /// ±25% seeded wobble.
    fn new(cfg: &LinkCfg, link: LinkId) -> LinkQueue {
        let tier = match link {
            LinkId::Access(_) => cfg.access_pps,
            LinkId::Core(_) => cfg.core_pps,
            LinkId::Spine(_) => cfg.spine_pps,
        };
        let base_pps = tier * (0.75 + 0.5 * unit_hash(cfg.seed, link_stream(link)));
        LinkQueue {
            release: SimTime::EPOCH,
            base_pps,
            service: service_time(base_pps),
            evented: cfg.events.iter().any(|ev| ev.link == link),
        }
    }
}

impl LinkLayer {
    /// An idle link layer under `cfg`.
    pub fn new(cfg: LinkCfg) -> LinkLayer {
        LinkLayer {
            cfg,
            slots: IntMap::default(),
            queues: Vec::new(),
            drops: 0,
            peak_backlog: SimDuration::from_ns(0),
        }
    }

    /// Push one packet through `path` at `now`. Returns the extra delay
    /// the shared queues add, or `None` when a partition or a full queue
    /// drops the packet.
    ///
    /// Fluid approximation: each link charges its current backlog plus
    /// one service time and advances its drain timestamp; downstream
    /// links see the packet at `now` rather than after upstream delay —
    /// a simplification that keeps the hot path O(path) with no event
    /// queue, at the cost of slightly optimistic pipelining.
    pub fn traverse(&mut self, path: &[LinkId], now: SimTime) -> Option<SimDuration> {
        let now_secs = now.as_secs_f64();
        let mut extra = SimDuration::from_ns(0);
        for &link in path {
            let cfg = &self.cfg;
            let queues = &mut self.queues;
            let slot = *self.slots.entry(link).or_insert_with(|| {
                queues.push(LinkQueue::new(cfg, link));
                (queues.len() - 1) as u32
            });
            let queue = &mut queues[slot as usize];
            let mut service = queue.service;
            if queue.evented {
                let mut capacity = queue.base_pps;
                for ev in &cfg.events {
                    if ev.link != link || !ev.active(now_secs) {
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
                service = service_time(capacity);
            }
            let backlog = queue.release.saturating_since(now);
            if backlog.as_secs_f64() > cfg.queue_cap_secs {
                self.drops += 1;
                return None;
            }
            if self.peak_backlog < backlog {
                self.peak_backlog = backlog;
            }
            queue.release = queue.release.max(now) + service;
            extra = extra.saturating_add(backlog).saturating_add(service);
        }
        Some(extra)
    }

    /// Packets dropped by partitions and full queues.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// High-water queueing backlog across all links, microseconds.
    pub fn peak_backlog_us(&self) -> u64 {
        self.peak_backlog.as_ns() / 1_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_secs_f64(secs)
    }

    fn flat_cfg(events: Vec<LinkEvent>) -> LinkCfg {
        // Wobble-free tier rates so service times are exact in tests.
        LinkCfg { seed: 0, access_pps: 1000.0, queue_cap_secs: 0.5, events, ..LinkCfg::default() }
    }

    /// Pin the access capacity to exactly `pps` regardless of the wobble.
    fn exact_access(pps: f64, events: Vec<LinkEvent>) -> LinkLayer {
        let mut layer = LinkLayer::new(flat_cfg(events));
        let wobble = 0.75 + 0.5 * unit_hash(0, link_stream(LinkId::Access(7)));
        layer.cfg.access_pps = pps / wobble;
        layer
    }

    #[test]
    fn backlog_builds_when_arrivals_outpace_service() {
        // 100 pps = 10 ms service. Probes every 1 ms queue behind each
        // other: the k-th probe waits ~k·9 ms more than the first.
        let mut layer = exact_access(100.0, Vec::new());
        let path = [LinkId::Access(7)];
        let first = layer.traverse(&path, t(0.0)).unwrap();
        let mut last = first;
        for k in 1..10u32 {
            last = layer.traverse(&path, t(f64::from(k) * 0.001)).unwrap();
        }
        assert!(
            last.as_secs_f64() > first.as_secs_f64() + 0.07,
            "9 queued probes must add ~81 ms of backlog, got {} → {}",
            first.as_secs_f64(),
            last.as_secs_f64()
        );
        assert!(layer.peak_backlog_us() > 70_000);
    }

    #[test]
    fn idle_links_add_only_service_time() {
        let mut layer = exact_access(100.0, Vec::new());
        let path = [LinkId::Access(7)];
        // Probes 1 s apart never see each other's backlog.
        for k in 0..5u32 {
            let d = layer.traverse(&path, t(f64::from(k))).unwrap();
            assert!((d.as_secs_f64() - 0.01).abs() < 1e-9, "got {}", d.as_secs_f64());
        }
        assert_eq!(layer.drops(), 0);
    }

    #[test]
    fn degrade_window_inflates_then_recovers() {
        let ev = LinkEvent {
            link: LinkId::Access(7),
            at_secs: 10.0,
            until_secs: 20.0,
            kind: LinkEventKind::Degrade { capacity_scale: 0.01 },
        };
        let mut layer = exact_access(100.0, vec![ev]);
        let path = [LinkId::Access(7)];
        let before = layer.traverse(&path, t(5.0)).unwrap();
        let during = layer.traverse(&path, t(15.0)).unwrap();
        let after = layer.traverse(&path, t(30.0)).unwrap();
        assert!((before.as_secs_f64() - 0.01).abs() < 1e-9);
        assert!(during.as_secs_f64() >= 1.0, "100× degrade → 1 s service");
        // Past the window the link serves at full rate again (the backlog
        // built during the window has drained by t=30).
        assert!(after.as_secs_f64() < 0.1, "got {}", after.as_secs_f64());
    }

    #[test]
    fn partition_drops_and_other_links_unaffected() {
        let ev = LinkEvent {
            link: LinkId::Access(7),
            at_secs: 0.0,
            until_secs: f64::INFINITY,
            kind: LinkEventKind::Partition,
        };
        let mut layer = LinkLayer::new(flat_cfg(vec![ev]));
        assert_eq!(layer.traverse(&[LinkId::Access(7)], t(1.0)), None);
        assert_eq!(layer.drops(), 1);
        assert!(layer.traverse(&[LinkId::Access(8)], t(1.0)).is_some());
    }

    #[test]
    fn full_queue_tail_drops() {
        let mut layer = exact_access(10.0, Vec::new()); // 100 ms service
        let path = [LinkId::Access(7)];
        let mut dropped = false;
        for _ in 0..20 {
            // All at t=0: backlog grows 100 ms per packet; cap is 500 ms.
            if layer.traverse(&path, t(0.0)).is_none() {
                dropped = true;
                break;
            }
        }
        assert!(dropped, "queue cap must eventually tail-drop");
        assert!(layer.peak_backlog_us() <= 600_000);
    }

    #[test]
    fn traverse_is_deterministic() {
        let run = || {
            let mut layer = LinkLayer::new(LinkCfg { seed: 42, ..LinkCfg::default() });
            let mut out = Vec::new();
            for k in 0..50u32 {
                let path =
                    [LinkId::Access((k % 3) as u16), LinkId::Core(100 + k % 2), LinkId::Spine(0)];
                out.push(layer.traverse(&path, t(f64::from(k) * 0.0001)));
            }
            out
        };
        assert_eq!(run(), run());
    }
}
