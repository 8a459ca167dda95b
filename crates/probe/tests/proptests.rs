//! Property tests over the probing engines: permutation bijectivity at
//! arbitrary sizes, schedule arithmetic of the survey prober, and scamper
//! result-shape invariants.

use beware_netsim::profile::BlockProfile;
use beware_netsim::rng::Dist;
use beware_netsim::world::World;
use beware_probe::bitrev8;
use beware_probe::permutation::CyclicPermutation;
use beware_probe::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn permutation_bijective_at_any_size(n in 1u64..5_000, seed in any::<u64>()) {
        let mut seen = vec![false; n as usize];
        let mut count = 0u64;
        for v in CyclicPermutation::new(n, seed) {
            prop_assert!(v < n);
            prop_assert!(!seen[v as usize]);
            seen[v as usize] = true;
            count += 1;
        }
        prop_assert_eq!(count, n);
    }

    #[test]
    fn bitrev_distance_reflects_bit_position(octet in any::<u8>(), bit in 0u32..8) {
        // Flipping bit b of the octet moves its probe slot by exactly
        // 256 >> (b+1) positions — the property behind the paper's
        // 165/330/495 s artifact latencies.
        let other = octet ^ (1 << bit);
        let d = (i32::from(bitrev8(octet)) - i32::from(bitrev8(other))).unsigned_abs();
        prop_assert_eq!(d, 128u32 >> bit);
    }

    #[test]
    fn survey_record_count_conservation(density in 0.0f64..=1.0, rounds in 1u32..4, seed in any::<u64>()) {
        let profile = BlockProfile {
            base_rtt: Dist::Constant(0.05),
            jitter: Dist::Constant(0.0),
            density,
            response_prob: 1.0,
            error_prob: 0.0,
            dup_prob: 0.0,
            ..Default::default()
        };
        let mut w = World::from_blocks(seed, [(0x0a0000, profile)]);
        let cfg = SurveyCfg { blocks: vec![0x0a0000], rounds, seed, ..Default::default() };
        let ((_, stats), summary) = cfg.build(Vec::new()).run(&mut w);
        // Every probe becomes exactly one record: matched, timeout or error.
        prop_assert_eq!(stats.probes(), u64::from(rounds) * 256);
        prop_assert_eq!(summary.packets_sent, u64::from(rounds) * 256);
        // With a 50 ms world and no loss, nothing is unmatched.
        prop_assert_eq!(stats.unmatched, 0);
    }

    #[test]
    fn scamper_results_aligned_with_jobs(counts in proptest::collection::vec(1usize..12, 1..8), seed in any::<u64>()) {
        let profile = BlockProfile {
            base_rtt: Dist::Constant(0.05),
            jitter: Dist::Constant(0.0),
            density: 1.0,
            response_prob: 1.0,
            error_prob: 0.0,
            dup_prob: 0.0,
            ..Default::default()
        };
        let mut w = World::from_blocks(seed, [(0x0a0000, profile)]);
        let jobs: Vec<PingJob> = counts
            .iter()
            .enumerate()
            .map(|(i, &c)| PingJob::train(0x0a000002 + i as u32, PingProto::Icmp, c, 1.0, i as f64))
            .collect();
        let (results, _) = ScamperCfg { prober_addr: 0x01010101, seed, grace_secs: 10.0 }
            .build(jobs)
            .run(&mut w);
        prop_assert_eq!(results.len(), counts.len());
        for (r, &c) in results.iter().zip(&counts) {
            prop_assert_eq!(r.rtts.len(), c);
            prop_assert_eq!(r.ttls.len(), c);
            // Constant world: every probe answered at 50 ms.
            prop_assert!(r.rtts.iter().all(|x| x.is_some_and(|v| (v - 0.05).abs() < 1e-9)));
        }
    }
}
