//! Shootout scenarios: simulated survey campaigns with known regime
//! behavior.
//!
//! Each [`Scenario`] builds a netsim world, runs the ISI-style survey
//! prober over it with a **very wide match window**, and returns the
//! record stream. The wide window is what turns the survey into ground
//! truth: every probe a host ever answers becomes a `Matched` record
//! with its microsecond-precise RTT, and only genuine losses become
//! `Timeout` records — so a replayed policy's timeout decisions can be
//! scored against what *actually* happened, not against what a 3 s
//! window happened to catch.
//!
//! Three regimes (DESIGN.md §13):
//!
//! * **steady** — stationary latency; the paper's assumption, the
//!   static oracle's home turf.
//! * **covid_step** — a permanent step change in baseline latency and
//!   loss halfway through ([`beware_netsim::profile::ShiftCfg`]), the
//!   COVID-lockdown signature that makes a pre-shift snapshot stale.
//! * **diurnal_drift** — strong periodic congestion swings
//!   ([`beware_netsim::profile::DiurnalCfg`]); no single static timeout
//!   is right all day.

use beware_dataset::{Record, RecordKind};
use beware_netsim::profile::{BlockProfile, CongestionCfg, DiurnalCfg, ShiftCfg};
use beware_netsim::rng::Dist;
use beware_netsim::World;
use beware_probe::prelude::*;
use beware_runtime::rng::{derive_seed, unit_hash};
use beware_telemetry::Registry;

/// Which regime a scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioKind {
    /// Stationary latency.
    Steady,
    /// Permanent latency/loss step at `at_secs`.
    CovidStep {
        /// Simulation second of the step.
        at_secs: f64,
        /// Delay scale factor from then on.
        rtt_scale: f64,
        /// Extra per-probe loss from then on.
        extra_loss: f64,
    },
    /// Periodic congestion swing.
    DiurnalDrift {
        /// Relative swing, `[0, 1]`.
        amplitude: f64,
        /// Cycle length in seconds.
        period_secs: f64,
    },
}

/// One shootout campaign. See the module docs.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable name: scores and telemetry key on it.
    pub name: &'static str,
    /// Number of /24 blocks probed.
    pub blocks: u32,
    /// Survey rounds.
    pub rounds: u32,
    /// Round duration in seconds.
    pub round_secs: f64,
    /// Determinism seed.
    pub seed: u64,
    /// The regime.
    pub kind: ScenarioKind,
}

impl Scenario {
    /// The standard three-regime matrix at a given scale. The covid step
    /// lands at half the span; the diurnal period is span/3 so the smoke
    /// scale still sees full cycles (a real day would not fit).
    pub fn standard(seed: u64, blocks: u32, rounds: u32, round_secs: f64) -> Vec<Scenario> {
        let span = f64::from(rounds) * round_secs;
        vec![
            Scenario {
                name: "steady",
                blocks,
                rounds,
                round_secs,
                seed,
                kind: ScenarioKind::Steady,
            },
            Scenario {
                name: "covid_step",
                blocks,
                rounds,
                round_secs,
                seed: derive_seed(seed, 2),
                kind: ScenarioKind::CovidStep {
                    at_secs: span * 0.5,
                    rtt_scale: 2.5,
                    extra_loss: 0.05,
                },
            },
            Scenario {
                name: "diurnal_drift",
                blocks,
                rounds,
                round_secs,
                seed: derive_seed(seed, 3),
                kind: ScenarioKind::DiurnalDrift { amplitude: 0.9, period_secs: span / 3.0 },
            },
        ]
    }

    /// Total simulated span in seconds.
    pub fn span_secs(&self) -> f64 {
        f64::from(self.rounds) * self.round_secs
    }

    /// The step instant, for the staleness sweep.
    pub fn shift_at_secs(&self) -> Option<f64> {
        match self.kind {
            ScenarioKind::CovidStep { at_secs, .. } => Some(at_secs),
            _ => None,
        }
    }

    /// The profile of block `i`: per-block base latency spread over
    /// 20–270 ms, a third of the blocks behind mildly congested links,
    /// plus the scenario's regime mechanism.
    fn profile(&self, i: u32) -> BlockProfile {
        let u = unit_hash(self.seed, u64::from(i));
        let mut p = BlockProfile {
            base_rtt: Dist::LogNormal { median: 0.02 + 0.25 * u, sigma: 0.35 },
            jitter: Dist::Exponential { mean: 0.003 },
            density: 0.9,
            response_prob: 0.98,
            dup_prob: 0.0,
            error_prob: 0.001,
            ..BlockProfile::default()
        };
        if i.is_multiple_of(3) {
            p.congestion = Some(CongestionCfg {
                host_prob: 0.4,
                extra: Dist::LogNormal { median: 0.6, sigma: 0.6 },
                busy_loss: 0.08,
            });
        }
        match self.kind {
            ScenarioKind::Steady => {}
            ScenarioKind::CovidStep { at_secs, rtt_scale, extra_loss } => {
                p.shift = Some(ShiftCfg { at_secs, rtt_scale, extra_loss });
            }
            ScenarioKind::DiurnalDrift { amplitude, period_secs } => {
                // Diurnal modulation acts on congestion; make every block
                // congested so the whole scenario breathes.
                p.congestion = Some(CongestionCfg {
                    host_prob: 0.8,
                    extra: Dist::LogNormal { median: 0.8, sigma: 0.5 },
                    busy_loss: 0.06,
                });
                p.diurnal = Some(DiurnalCfg { amplitude, peak_offset_secs: 0.0, period_secs });
            }
        }
        p
    }

    /// Run the campaign: a survey with a ground-truth-wide match window
    /// (90% of the round), records in canonical replay order.
    pub fn run(&self, metrics: &mut Registry) -> Vec<Record> {
        let blocks: Vec<u32> = (0..self.blocks).map(|i| 0x0a0000 + i).collect();
        let mut world = World::from_blocks(
            derive_seed(self.seed, 0x77),
            blocks.iter().map(|&b| (b, self.profile(b - 0x0a0000))),
        );
        let cfg = SurveyCfg {
            blocks,
            rounds: self.rounds,
            round_secs: self.round_secs,
            match_timeout_secs: self.round_secs * 0.9,
            seed: derive_seed(self.seed, 0x51),
            ..SurveyCfg::default()
        };
        let ((mut records, _stats), _summary) = cfg.build(Vec::new()).run_with(&mut world, metrics);
        canonical_sort(&mut records);
        records
    }
}

/// Sort records into the canonical replay order: by send time, then
/// address, then kind. The survey emits in event order (deterministic,
/// but interleaved by response arrival); replay wants one fixed,
/// content-defined order so scores are a pure function of the record
/// *set*.
pub fn canonical_sort(records: &mut [Record]) {
    records.sort_by_key(|r| {
        let (rank, detail) = match r.kind {
            RecordKind::Matched { rtt_us } => (0u8, rtt_us),
            RecordKind::Timeout => (1, 0),
            RecordKind::Unmatched { recv_s } => (2, recv_s),
            RecordKind::IcmpError { code } => (3, u32::from(code)),
        };
        (r.time_s, r.addr, rank, detail)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: ScenarioKind, seed: u64) -> Scenario {
        Scenario { name: "tiny", blocks: 2, rounds: 3, round_secs: 30.0, seed, kind }
    }

    #[test]
    fn runs_are_deterministic() {
        let sc = tiny(ScenarioKind::Steady, 7);
        let a = sc.run(&mut Registry::disabled());
        let b = sc.run(&mut Registry::disabled());
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn wide_window_yields_matched_ground_truth() {
        let sc = tiny(ScenarioKind::Steady, 7);
        let records = sc.run(&mut Registry::disabled());
        let matched = records.iter().filter(|r| r.is_matched()).count();
        // Density 0.9 × response 0.98: the overwhelming majority match.
        assert!(matched * 10 > records.len() * 7, "{matched}/{}", records.len());
    }

    #[test]
    fn covid_step_raises_post_shift_rtts() {
        let sc =
            tiny(ScenarioKind::CovidStep { at_secs: 45.0, rtt_scale: 2.5, extra_loss: 0.0 }, 9);
        let records = sc.run(&mut Registry::disabled());
        let mean_rtt = |lo: u32, hi: u32| {
            let v: Vec<f64> = records
                .iter()
                .filter(|r| r.time_s >= lo && r.time_s < hi)
                .filter_map(|r| r.rtt_secs())
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let before = mean_rtt(0, 45);
        let after = mean_rtt(45, 90);
        assert!(after > before * 1.8, "before {before} after {after}");
    }

    #[test]
    fn standard_matrix_has_three_regimes() {
        let m = Scenario::standard(1, 4, 8, 60.0);
        let names: Vec<&str> = m.iter().map(|s| s.name).collect();
        assert_eq!(names, ["steady", "covid_step", "diurnal_drift"]);
        assert_eq!(m[1].shift_at_secs(), Some(240.0));
        assert_eq!(m[0].shift_at_secs(), None);
    }

    #[test]
    fn canonical_sort_is_total_and_stable_by_content() {
        let mut a = vec![
            Record::timeout(5, 10),
            Record::matched(5, 10, 100),
            Record::matched(4, 10, 50),
            Record::unmatched(5, 9),
        ];
        let mut b = a.clone();
        b.reverse();
        canonical_sort(&mut a);
        canonical_sort(&mut b);
        assert_eq!(a, b);
        assert!(a[0].time_s <= a[1].time_s);
    }
}
