//! Cross-crate behavior tests: wire-level fidelity of simulated packets,
//! the zmap payload path, and end-to-end analysis invariants on worlds
//! with specific behavior compositions.

use beware::analysis::pipeline::{run_pipeline, survey_samples, PipelineCfg};
use beware::analysis::recommend;
use beware::netsim::packet::{Packet, L4};
use beware::netsim::profile::{BlockProfile, WakeupCfg};
use beware::netsim::rng::Dist;
use beware::netsim::world::World;
use beware::probe::prelude::*;
use beware::wire::payload::ProbePayload;

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

#[test]
fn simulated_packets_are_valid_wire_bytes() {
    // Every packet the world emits must encode to parseable, checksummed
    // bytes and decode back identically.
    let mut w = World::from_blocks(3, [(0x0a0000, quiet())]);
    let probe = Packet::echo_request(0x01010101, 0x0a000010, 7, 1, vec![0xaa; 24]);
    let arrivals = w.probe(&probe, beware::netsim::SimTime::EPOCH);
    assert!(!arrivals.is_empty());
    for a in arrivals {
        let bytes = a.pkt.encode();
        let back = Packet::decode(&bytes).expect("world emits valid packets");
        assert_eq!(back, a.pkt);
    }
}

#[test]
fn zmap_payload_roundtrips_through_the_world() {
    // The payload embedding must survive the echo: a broadcast responder's
    // reply still carries the *original* destination.
    let profile = BlockProfile {
        broadcast: Some(beware::netsim::profile::BroadcastCfg {
            responder_prob: 1.0,
            edge_responder_prob: 1.0,
            unicast_silent_prob: 0.0,
            network_addr_responds: false,
        }),
        ..quiet()
    };
    let mut w = World::from_blocks(3, [(0x0a0000, profile)]);
    let key = 0x1234;
    let payload = ProbePayload { dest: 0x0a0000ff, send_ns: 55_000 }.encode(key);
    let probe = Packet::echo_request(0x01010101, 0x0a0000ff, 7, 1, payload.to_vec());
    let arrivals = w.probe(&probe, beware::netsim::SimTime::EPOCH);
    assert!(arrivals.len() > 100, "broadcast should fan out");
    for a in &arrivals {
        let L4::Icmp { payload, .. } = &a.pkt.l4 else { panic!("icmp expected") };
        let p = ProbePayload::decode(payload, key).expect("embedding survives");
        assert_eq!(p.dest, 0x0a0000ff, "embedded destination preserved");
        assert_ne!(a.pkt.src, 0x0a0000ff, "response sourced from the responder");
    }
}

#[test]
fn wakeup_world_shows_eleven_minute_survey_pattern() {
    // With an 11-minute probing interval, every probe to a wake-up host
    // finds the radio idle: the survey-detected latency distribution sits
    // at base + wake-up, not at base.
    let profile = BlockProfile {
        wakeup: Some(WakeupCfg { host_prob: 1.0, delay: Dist::Constant(1.5), tail_secs: 10.0 }),
        ..quiet()
    };
    let mut w = World::from_blocks(9, [(0x0a0000, profile)]);
    let cfg = SurveyCfg { blocks: vec![0x0a0000], rounds: 4, ..Default::default() };
    let ((records, stats), _) = cfg.build(Vec::new()).run(&mut w);
    assert_eq!(stats.matched, 254 * 4);
    let samples = survey_samples(&records);
    for s in samples.values() {
        let median = s.percentile(50.0).unwrap();
        assert!((median - 1.55).abs() < 0.01, "median {median}");
    }
}

#[test]
fn recommendation_api_flags_short_timeouts_on_slow_worlds() {
    // A world where every host answers at 4 s: a 3 s timeout implies 100%
    // false loss, a 60 s timeout implies none; the recommended 95/95
    // timeout exceeds 4 s.
    let mut w = World::from_blocks(
        1,
        [(0x0a0000, BlockProfile { base_rtt: Dist::Constant(4.0), ..quiet() })],
    );
    let cfg = SurveyCfg { blocks: vec![0x0a0000], rounds: 3, ..Default::default() };
    let ((records, _), _) = cfg.build(Vec::new()).run(&mut w);
    let out = run_pipeline(&records, &PipelineCfg::default());
    // All matched-as-delayed (4 s > 3 s window → timeout + unmatched).
    assert!(out.accounting.survey_detected.packets == 0);
    assert!(out.accounting.survey_plus_delayed.packets > 0);
    let rec = recommend::recommend_timeout(&out.samples, 95.0, 95.0).unwrap();
    assert!(rec.timeout_secs >= 4.0, "recommended {}", rec.timeout_secs);
    let affected = recommend::addresses_with_false_loss_above(&out.samples, 3.0, 0.05);
    assert!((affected - 1.0).abs() < 1e-9, "3 s timeout must fail everyone: {affected}");
    assert_eq!(recommend::addresses_with_false_loss_above(&out.samples, 60.0, 0.05), 0.0);
}

#[test]
fn icmp_error_addresses_do_not_enter_latency_analysis() {
    let mut w = World::from_blocks(4, [(0x0a0000, BlockProfile { error_prob: 1.0, ..quiet() })]);
    let cfg = SurveyCfg { blocks: vec![0x0a0000], rounds: 2, ..Default::default() };
    let ((records, stats), _) = cfg.build(Vec::new()).run(&mut w);
    assert!(stats.errors > 0);
    let out = run_pipeline(&records, &PipelineCfg::default());
    assert!(out.samples.is_empty(), "error-only addresses must yield no samples");
}

#[test]
fn mixed_world_pipeline_is_internally_consistent() {
    // Compose several behaviors in one world and check global invariants.
    let mut w = World::from_blocks(
        77,
        [
            (0x0a0000, quiet()),
            (
                0x0a0001,
                BlockProfile { wakeup: Some(WakeupCfg::default()), response_prob: 0.9, ..quiet() },
            ),
            (
                0x0a0002,
                BlockProfile {
                    broadcast: Some(beware::netsim::profile::BroadcastCfg {
                        responder_prob: 0.05,
                        edge_responder_prob: 0.9,
                        unicast_silent_prob: 0.8,
                        network_addr_responds: true,
                    }),
                    density: 0.4,
                    ..quiet()
                },
            ),
        ],
    );
    let cfg =
        SurveyCfg { blocks: vec![0x0a0000, 0x0a0001, 0x0a0002], rounds: 30, ..Default::default() };
    let ((records, stats), _) = cfg.build(Vec::new()).run(&mut w);
    let out = run_pipeline(&records, &PipelineCfg::default());
    // Sample counts never exceed probe counts.
    let total_samples: usize = out.samples.values().map(|s| s.len()).sum();
    assert!(total_samples as u64 <= stats.probes() + stats.unmatched);
    // Filtered addresses are genuinely excluded.
    for addr in &out.broadcast_responders {
        assert!(!out.samples.contains_key(addr));
    }
    // Every surviving address has at least one sample.
    assert!(out.samples.values().all(|s| !s.is_empty()));
}
