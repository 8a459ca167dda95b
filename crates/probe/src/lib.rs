//! # beware-probe
//!
//! The three probing engines the paper's measurements rest on, implemented
//! as agents over `beware-netsim`:
//!
//! * [`survey`] — the ISI-survey-style prober: probes whole /24 blocks once
//!   per 11-minute round in the bit-reversed last-octet order that spaces
//!   adjacent octets 330 s apart, matches responses within a 3 s window
//!   (microsecond RTTs), and records timeouts and unmatched responses with
//!   second-precision timestamps — exactly the record semantics the
//!   paper's re-analysis depends on.
//! * [`zmap`] — the stateless scanner: address-space permutation via a
//!   multiplicative cyclic group ([`permutation`]), destination address and
//!   send timestamp embedded in the echo payload (the authors'
//!   `module_icmp_echo_time.c` contribution), RTT computed entirely from
//!   the response.
//! * [`scamper`] — the stateful pinger used for verification experiments:
//!   per-target probe schedules over ICMP/UDP/TCP with exact per-probe
//!   matching and an unbounded listen window (the paper's
//!   "run tcpdump simultaneously" trick).
//! * [`census`] — the low-rate full-space companion prober whose
//!   responsiveness scores feed the survey's block selection ("samples of
//!   blocks that were responsive in the last census").
//! * [`adaptive`] — the prober the paper *recommends building*
//!   (Section 7): retransmit on a short trigger, keep listening long, and
//!   report how many would-be outages the long listen rescued.

//!
//! All five engines implement the [`Prober`] trait: build one from its
//! config (`Cfg::build(..)`), then [`Prober::run`] it against a
//! `&mut World` — or [`Prober::run_with`] to collect telemetry. Pull
//! the whole surface in at once through [`prelude`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod census;
pub mod permutation;
pub mod scamper;
pub mod survey;
pub mod zmap;

pub use adaptive::{AdaptiveCfg, AdaptiveProber, OutageReport};
pub use census::{select_survey_blocks, CensusCfg, CensusProber, CensusResult};
pub use permutation::CyclicPermutation;
pub use scamper::{JobResult, PingJob, PingProto, ScamperCfg, ScamperRunner};
pub use survey::{SurveyCfg, SurveyProber};
pub use zmap::{ZmapCfg, ZmapScanner};

use beware_netsim::sim::{Agent, RunSummary, Simulation};
use beware_netsim::world::World;

/// The unified probing-engine interface.
///
/// Every engine is an [`Agent`] plus a way to extract its output, so one
/// shape drives all of them:
///
/// ```
/// use beware_probe::prelude::*;
/// use beware_netsim::{BlockProfile, World};
///
/// let mut world = World::from_blocks(1, [(0x0a0000, BlockProfile::default())]);
/// let cfg = SurveyCfg { blocks: vec![0x0a0000], rounds: 1, ..Default::default() };
/// let mut metrics = Registry::new();
/// let ((records, stats), summary) =
///     cfg.build(Vec::new()).run_with(&mut world, &mut metrics);
/// assert_eq!(stats.probes(), summary.packets_sent);
/// assert_eq!(metrics.counter("probe/survey/probes_sent"), Some(stats.probes()));
/// assert!(records.len() as u64 >= stats.probes());
/// ```
///
/// The provided `run`/`run_with` take `&mut World` (the simulation itself
/// consumes the world by value; the default impl swaps it out and back),
/// so callers keep ownership and can run several engines over the same
/// world in sequence.
pub trait Prober: Agent + Sized {
    /// What the engine produces.
    type Output;

    /// Engine name used as the telemetry sub-scope: metrics land under
    /// `probe/<engine>/...`.
    fn engine(&self) -> &'static str;

    /// Flush engine-specific counters into `scope` (already prefixed with
    /// `probe/<engine>`). Called once after the simulation completes.
    fn record(&self, scope: &mut beware_telemetry::Scope<'_>);

    /// Consume the engine, returning its output.
    fn finish(self) -> Self::Output;

    /// Run to completion against `world` without telemetry.
    fn run(self, world: &mut World) -> (Self::Output, RunSummary) {
        self.run_with(world, &mut beware_telemetry::Registry::disabled())
    }

    /// Run to completion against `world`, flushing netsim counters (stats
    /// delta, run summary) under `netsim/` and engine counters under
    /// `probe/<engine>/` into `metrics`.
    fn run_with(
        self,
        world: &mut World,
        metrics: &mut beware_telemetry::Registry,
    ) -> (Self::Output, RunSummary) {
        let owned = std::mem::take(world);
        let stats_before = owned.stats();
        let (agent, mut finished_world, summary) = Simulation::new(owned, self).run();
        if metrics.enabled() {
            let mut netsim = metrics.scope("netsim");
            stats_before.record_delta(&finished_world.stats(), &mut netsim);
            summary.record(&mut netsim);
            let mut probe = metrics.scope("probe");
            let mut engine = probe.scope(agent.engine());
            agent.record(&mut engine);
        }
        std::mem::swap(world, &mut finished_world);
        (agent.finish(), summary)
    }
}

/// One-stop import for driving any engine: the [`Prober`] trait, every
/// engine config and output type, and the telemetry registry.
pub mod prelude {
    pub use crate::adaptive::{AdaptiveCfg, AdaptiveProber, OutageReport};
    pub use crate::census::{CensusCfg, CensusProber, CensusResult};
    pub use crate::scamper::{JobResult, PingJob, PingProto, ScamperCfg, ScamperRunner};
    pub use crate::survey::{SurveyCfg, SurveyProber};
    pub use crate::zmap::{ZmapCfg, ZmapScanner};
    pub use crate::Prober;
    pub use beware_telemetry::Registry;
}

/// Bit-reverse an octet: the probing order ISI uses within a /24, which
/// places last octets that differ in bit `b` exactly `256/2^(b+1)` slots
/// apart — off-by-one octets land 330 s apart in a 660 s round, octets
/// differing in bit 1 land 165 s apart, which is precisely where the
/// paper's pre-filter latency bumps (165 s / 330 s / 495 s) come from.
pub fn bitrev8(x: u8) -> u8 {
    x.reverse_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitrev_is_involutive_bijection() {
        let mut seen = [false; 256];
        for i in 0u16..=255 {
            let r = bitrev8(i as u8);
            assert_eq!(bitrev8(r), i as u8);
            assert!(!seen[r as usize]);
            seen[r as usize] = true;
        }
    }

    #[test]
    fn off_by_one_octets_are_half_round_apart() {
        // Position of octet o in the round is bitrev8(o); octets 254/255
        // differ in bit 0 → 128 slots apart (330 s of a 660 s round).
        let d = i32::from(bitrev8(255)) - i32::from(bitrev8(254));
        assert_eq!(d.abs(), 128);
        // Octets differing in bit 1 → 64 slots (165 s).
        let d = i32::from(bitrev8(252)) - i32::from(bitrev8(254));
        assert_eq!(d.abs(), 64);
    }
}
