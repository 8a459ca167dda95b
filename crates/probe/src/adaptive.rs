//! The prober the paper tells us to build (Section 7):
//!
//! > "design network measurement software to approach outage detection
//! > using a method comparable to that of TCP: send another probe after 3
//! > seconds, but continue listening for a response to earlier probes ...
//! > We plan to use 60 seconds when we need a timeout."
//!
//! [`AdaptiveProber`] monitors a set of addresses in repeated check
//! cycles. Within a cycle it retransmits on a short trigger (responsive,
//! like Trinocular/Thunderping) but keeps listening far longer before
//! declaring the address unreachable. The report separates the verdicts a
//! *naive* prober (giving up at the retransmit trigger) would have reached
//! from those of the long listener — the "rescued" column is precisely the
//! false-outage rate the paper warns about.

use beware_netsim::packet::{Packet, L4};
use beware_netsim::sim::{Agent, Ctx};
use beware_netsim::time::{SimDuration, SimTime};
use beware_wire::icmp::IcmpKind;

/// Adaptive prober configuration.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveCfg {
    /// Retransmit trigger, seconds (the conventional 3 s).
    pub retransmit_secs: f64,
    /// Retransmissions per cycle after the initial probe.
    pub retries: u32,
    /// How long after the *last* transmission to keep listening before the
    /// cycle's verdict (the paper's 60 s).
    pub listen_secs: f64,
    /// Gap between a cycle's verdict and the next cycle's first probe.
    pub cycle_gap_secs: f64,
    /// Check cycles per address.
    pub cycles: u32,
    /// The prober's own address.
    pub prober_addr: u32,
}

impl Default for AdaptiveCfg {
    fn default() -> Self {
        AdaptiveCfg {
            retransmit_secs: 3.0,
            retries: 2,
            listen_secs: 60.0,
            cycle_gap_secs: 60.0,
            cycles: 10,
            prober_addr: 0xC0_00_02_09,
        }
    }
}

impl AdaptiveCfg {
    /// Build a prober monitoring `addrs`. Drive it with
    /// [`crate::Prober::run`].
    pub fn build(self, addrs: Vec<u32>) -> AdaptiveProber {
        AdaptiveProber::new(addrs, self)
    }
}

/// Per-address monitoring outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutageReport {
    /// Monitored address.
    pub addr: u32,
    /// Cycles run.
    pub cycles: u32,
    /// Cycles with no response even within the long listen window — what
    /// the adaptive prober actually declares as outages.
    pub outages: u32,
    /// Cycles a naive prober (verdict at the retransmit deadline of the
    /// last retry) would have declared as outages.
    pub naive_outages: u32,
    /// Cycles the long listen rescued: naive says down, a response did
    /// arrive later. Every one of these is a false outage avoided.
    pub rescued: u32,
}

struct TargetState {
    addr: u32,
    cycle: u32,
    /// Response seen in the current cycle at all.
    responded: bool,
    /// Response seen before the naive deadline.
    responded_naive: bool,
    report: OutageReport,
}

/// Token layout: target(24) | cycle(24) | kind(8) | attempt(8).
const KIND_SEND: u64 = 0;
const KIND_NAIVE_DEADLINE: u64 = 1;
const KIND_VERDICT: u64 = 2;

fn token(target: usize, cycle: u32, kind: u64, attempt: u32) -> u64 {
    ((target as u64) << 40) | (u64::from(cycle) << 16) | (kind << 8) | u64::from(attempt)
}

fn untoken(t: u64) -> (usize, u32, u64, u32) {
    ((t >> 40) as usize, ((t >> 16) & 0xff_ffff) as u32, (t >> 8) & 0xff, (t & 0xff) as u32)
}

/// The adaptive prober agent.
pub struct AdaptiveProber {
    cfg: AdaptiveCfg,
    targets: Vec<TargetState>,
    /// Address → index into `targets`, for O(1) response attribution.
    by_addr: std::collections::HashMap<u32, usize>,
    ident: u16,
}

impl AdaptiveProber {
    /// Monitor `addrs` under `cfg`.
    pub fn new(addrs: Vec<u32>, cfg: AdaptiveCfg) -> Self {
        assert!(!addrs.is_empty(), "no addresses to monitor");
        assert!(cfg.cycles > 0 && cfg.retransmit_secs > 0.0);
        assert!(addrs.len() < (1 << 24), "token space exceeded");
        assert!(cfg.cycles < (1 << 24), "token space exceeded");
        let by_addr = addrs.iter().enumerate().map(|(i, &a)| (a, i)).collect();
        let targets = addrs
            .into_iter()
            .map(|addr| TargetState {
                addr,
                cycle: 0,
                responded: false,
                responded_naive: false,
                report: OutageReport { addr, cycles: 0, outages: 0, naive_outages: 0, rescued: 0 },
            })
            .collect();
        AdaptiveProber { cfg, targets, by_addr, ident: 0xada7 }
    }

    /// Consume the prober, returning per-address reports.
    pub fn into_reports(self) -> Vec<OutageReport> {
        self.targets.into_iter().map(|t| t.report).collect()
    }

    fn cycle_start(&self, target: usize, cycle: u32) -> SimTime {
        let window = self.cfg.retransmit_secs * f64::from(self.cfg.retries + 1)
            + self.cfg.listen_secs
            + self.cfg.cycle_gap_secs;
        // Stagger targets slightly so cycles do not burst.
        let stagger = target as f64 * 0.013;
        SimTime::EPOCH + SimDuration::from_secs_f64(stagger + f64::from(cycle) * window)
    }
}

impl Agent for AdaptiveProber {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        for idx in 0..self.targets.len() {
            ctx.set_timer(self.cycle_start(idx, 0), token(idx, 0, KIND_SEND, 0));
        }
    }

    fn on_timer(&mut self, tok: u64, ctx: &mut Ctx<'_>) {
        let (idx, cycle, kind, attempt) = untoken(tok);
        let cfg = self.cfg;
        let t = &mut self.targets[idx];
        // Stale timers from closed cycles are ignored.
        if cycle != t.cycle {
            return;
        }
        match kind {
            KIND_SEND => {
                // Retransmit trigger: a response cancels further retries
                // (like real probers) and completes the cycle immediately —
                // both verdicts are already known to be "reachable".
                if attempt > 0 && t.responded {
                    let now = ctx.now();
                    ctx.set_timer(now, token(idx, cycle, KIND_NAIVE_DEADLINE, 0));
                    ctx.set_timer(now, token(idx, cycle, KIND_VERDICT, 0));
                    return;
                }
                let seq = (((cycle & 0xfff) << 4) | attempt.min(0xf)) as u16;
                let addr = t.addr;
                ctx.send(Packet::echo_request(cfg.prober_addr, addr, self.ident, seq, vec![]));
                let now = ctx.now();
                if attempt < cfg.retries {
                    ctx.set_timer(
                        now + SimDuration::from_secs_f64(cfg.retransmit_secs),
                        token(idx, cycle, KIND_SEND, attempt + 1),
                    );
                } else {
                    // Last transmission: naive verdict one trigger later,
                    // true verdict after the listen window.
                    ctx.set_timer(
                        now + SimDuration::from_secs_f64(cfg.retransmit_secs),
                        token(idx, cycle, KIND_NAIVE_DEADLINE, 0),
                    );
                    ctx.set_timer(
                        now + SimDuration::from_secs_f64(cfg.listen_secs),
                        token(idx, cycle, KIND_VERDICT, 0),
                    );
                }
            }
            KIND_NAIVE_DEADLINE => {
                t.responded_naive = t.responded;
            }
            KIND_VERDICT => {
                let t = &mut self.targets[idx];
                t.report.cycles += 1;
                if !t.responded {
                    t.report.outages += 1;
                }
                if !t.responded_naive {
                    t.report.naive_outages += 1;
                    if t.responded {
                        t.report.rescued += 1;
                    }
                }
                // Next cycle.
                t.cycle += 1;
                t.responded = false;
                t.responded_naive = false;
                let next_cycle = t.cycle;
                if next_cycle < cfg.cycles {
                    let at = self.cycle_start(idx, next_cycle);
                    ctx.set_timer(at, token(idx, next_cycle, KIND_SEND, 0));
                } else if self.targets.iter().all(|t| t.cycle >= cfg.cycles) {
                    ctx.stop();
                }
            }
            _ => unreachable!("token kinds are exhaustive"),
        }
    }

    fn on_packet(&mut self, pkt: Packet, _ctx: &mut Ctx<'_>) {
        let L4::Icmp { kind: IcmpKind::EchoReply { ident, seq }, .. } = &pkt.l4 else {
            return;
        };
        if *ident != self.ident {
            return;
        }
        // Any response during the probe's own cycle counts — including
        // responses to earlier transmissions of that cycle, which is the
        // entire point. Responses from *previous* cycles (e.g. an episode
        // flush arriving minutes later) must NOT be credited to the
        // current cycle: the sequence number carries the cycle.
        let Some(&idx) = self.by_addr.get(&pkt.src) else { return };
        let t = &mut self.targets[idx];
        if u32::from(seq >> 4) == (t.cycle & 0xfff) {
            t.responded = true;
        }
    }
}

impl crate::Prober for AdaptiveProber {
    type Output = Vec<OutageReport>;

    fn engine(&self) -> &'static str {
        "adaptive"
    }

    fn record(&self, scope: &mut beware_telemetry::Scope<'_>) {
        scope.add("targets", self.targets.len() as u64);
        scope.add("cycles", self.targets.iter().map(|t| u64::from(t.report.cycles)).sum());
        scope.add("outages", self.targets.iter().map(|t| u64::from(t.report.outages)).sum());
        scope.add(
            "naive_outages",
            self.targets.iter().map(|t| u64::from(t.report.naive_outages)).sum(),
        );
        scope.add("rescued", self.targets.iter().map(|t| u64::from(t.report.rescued)).sum());
    }

    fn finish(self) -> Vec<OutageReport> {
        self.into_reports()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prober;
    use beware_netsim::profile::{BlockProfile, EpisodeCfg, WakeupCfg};
    use beware_netsim::rng::Dist;
    use beware_netsim::sim::RunSummary;
    use beware_netsim::world::World;

    /// Test driver over the unified API.
    fn monitor(
        mut world: World,
        addrs: Vec<u32>,
        cfg: AdaptiveCfg,
    ) -> (Vec<OutageReport>, RunSummary) {
        cfg.build(addrs).run(&mut world)
    }

    fn quiet() -> BlockProfile {
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
        World::from_blocks(31, [(0x0a0000, profile)])
    }

    #[test]
    fn healthy_host_never_flagged() {
        let (reports, _) = monitor(
            world(quiet()),
            vec![0x0a000005],
            AdaptiveCfg { cycles: 5, ..Default::default() },
        );
        let r = &reports[0];
        assert_eq!(r.cycles, 5);
        assert_eq!(r.outages, 0);
        assert_eq!(r.naive_outages, 0);
        assert_eq!(r.rescued, 0);
    }

    #[test]
    fn dead_address_flagged_by_both() {
        let (reports, _) = monitor(
            world(BlockProfile { density: 0.0, ..quiet() }),
            vec![0x0a000005],
            AdaptiveCfg { cycles: 4, ..Default::default() },
        );
        let r = &reports[0];
        assert_eq!(r.outages, 4);
        assert_eq!(r.naive_outages, 4);
        assert_eq!(r.rescued, 0, "nothing to rescue when truly dead");
    }

    #[test]
    fn slow_host_rescued_by_long_listen() {
        // Constant 20 s RTT: the naive prober (3 s trigger, 2 retries →
        // verdict at 9 s) declares every cycle down; the 60 s listener
        // sees every response.
        let (reports, _) = monitor(
            world(BlockProfile { base_rtt: Dist::Constant(20.0), ..quiet() }),
            vec![0x0a000005],
            AdaptiveCfg { cycles: 6, ..Default::default() },
        );
        let r = &reports[0];
        assert_eq!(r.outages, 0, "long listen must capture the 20 s responses");
        assert_eq!(r.naive_outages, 6);
        assert_eq!(r.rescued, 6);
    }

    #[test]
    fn retransmission_covers_wakeup_hosts() {
        // Wake-up of 5 s: the first probe's response arrives at 5.05 s
        // (after the 3 s trigger) but the retry at 3 s rides the now-woken
        // radio and answers within its own window — retries work exactly
        // as the paper describes for wake-up, without a long timeout.
        let p = BlockProfile {
            wakeup: Some(WakeupCfg { host_prob: 1.0, delay: Dist::Constant(5.0), tail_secs: 10.0 }),
            ..quiet()
        };
        let (reports, _) =
            monitor(world(p), vec![0x0a000005], AdaptiveCfg { cycles: 5, ..Default::default() });
        let r = &reports[0];
        assert_eq!(r.outages, 0);
        assert_eq!(r.naive_outages, 0, "retry at 3 s answers in time");
    }

    #[test]
    fn episode_host_shows_rescues() {
        // Frequent episodes with response buffering: the naive prober
        // sees outages whenever a cycle lands in an episode; the listener
        // recovers all flushes shorter than its window.
        let p = BlockProfile {
            episodes: Some(EpisodeCfg {
                host_prob: 1.0,
                interval: Dist::Constant(120.0),
                duration: Dist::Constant(40.0),
                max_duration_secs: 50.0,
                buffer_cap: 100,
                buffer_prob: 1.0,
                blackout_secs_max: 1e-9,
            }),
            ..quiet()
        };
        let (reports, _) =
            monitor(world(p), vec![0x0a000005], AdaptiveCfg { cycles: 20, ..Default::default() });
        let r = &reports[0];
        assert!(r.naive_outages > 0, "episodes must trip the naive prober");
        assert_eq!(r.outages, 0, "40 s flushes sit inside the 60 s listen window");
        assert_eq!(r.rescued, r.naive_outages);
    }

    #[test]
    fn telemetry_mirrors_reports() {
        let mut w = World::from_blocks(
            31,
            [(0x0a0000, quiet()), (0x0a0001, BlockProfile { density: 0.0, ..quiet() })],
        );
        let mut metrics = beware_telemetry::Registry::new();
        let (reports, _) = AdaptiveCfg { cycles: 3, ..Default::default() }
            .build(vec![0x0a000005, 0x0a000105])
            .run_with(&mut w, &mut metrics);
        assert_eq!(metrics.counter("probe/adaptive/targets"), Some(2));
        assert_eq!(metrics.counter("probe/adaptive/cycles"), Some(6));
        let outages: u64 = reports.iter().map(|r| u64::from(r.outages)).sum();
        assert_eq!(metrics.counter("probe/adaptive/outages"), Some(outages));
        assert_eq!(outages, 3);
    }

    #[test]
    fn multiple_targets_tracked_independently() {
        let w = World::from_blocks(
            31,
            [(0x0a0000, quiet()), (0x0a0001, BlockProfile { density: 0.0, ..quiet() })],
        );
        let (reports, _) = monitor(
            w,
            vec![0x0a000005, 0x0a000105],
            AdaptiveCfg { cycles: 3, ..Default::default() },
        );
        assert_eq!(reports[0].outages, 0);
        assert_eq!(reports[1].outages, 3);
    }
}
