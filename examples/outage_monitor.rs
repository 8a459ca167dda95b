//! Why the timeout choice matters: a Thunderping-style outage monitor run
//! twice against the same world — once with the conventional 3 s timeout,
//! once with the paper's recommended keep-listening-to-60 s — and the
//! false outages counted.
//!
//! No host in this demo is ever down. Every "outage" detected is false,
//! caused purely by latency exceeding the timeout.
//!
//! ```sh
//! cargo run --release --example outage_monitor
//! ```

use beware::netsim::profile::{BlockProfile, EpisodeCfg, WakeupCfg};
use beware::netsim::rng::Dist;
use beware::netsim::world::World;
use beware::probe::prelude::*;

/// Thunderping declares an address unresponsive after N consecutive
/// unanswered probes. Count such verdicts over a probe train.
fn false_outages(rtts: &[Option<f64>], timeout_secs: f64, retries: usize) -> usize {
    let mut outages = 0;
    let mut consecutive = 0;
    for rtt in rtts {
        let answered_in_time = rtt.is_some_and(|r| r <= timeout_secs);
        if answered_in_time {
            consecutive = 0;
        } else {
            consecutive += 1;
            if consecutive == retries {
                outages += 1;
                consecutive = 0;
            }
        }
    }
    outages
}

fn main() {
    // A cellular block: wake-up delays plus occasional disconnect
    // episodes whose responses arrive very late — but always arrive.
    let profile = BlockProfile {
        base_rtt: Dist::LogNormal { median: 0.25, sigma: 0.3 },
        jitter: Dist::Exponential { mean: 0.1 },
        density: 0.5,
        response_prob: 1.0, // nothing is ever lost in this demo
        error_prob: 0.0,
        dup_prob: 0.0,
        wakeup: Some(WakeupCfg { host_prob: 1.0, ..Default::default() }),
        // Short disconnect episodes: responses delayed up to ~50 s,
        // never lost — within the 60 s listen window, far beyond 3 s.
        episodes: Some(EpisodeCfg {
            host_prob: 0.3,
            duration: Dist::LogNormal { median: 25.0, sigma: 0.4 },
            max_duration_secs: 50.0,
            buffer_prob: 1.0,
            buffer_cap: 500,
            ..Default::default()
        }),
        ..Default::default()
    };
    let mut world = World::from_blocks(0xca11, [(0x0a0000, profile)]);

    // Monitor 40 live hosts: one ping every 10 s for ~3 hours each.
    let targets: Vec<u32> =
        (0u32..256).map(|o| 0x0a000000 + o).filter(|&a| world.is_live(a)).take(40).collect();
    let jobs: Vec<PingJob> = targets
        .iter()
        .enumerate()
        .map(|(i, &dst)| PingJob::train(dst, PingProto::Icmp, 1000, 10.0, i as f64 * 0.2))
        .collect();
    let (results, _) = ScamperCfg { prober_addr: 0xC0000207, seed: 1, grace_secs: 600.0 }
        .build(jobs)
        .run(&mut world);

    println!("monitoring {} always-up cellular hosts, 1,000 pings each:\n", targets.len());
    for (timeout, label) in [(3.0, "conventional 3 s"), (60.0, "paper-recommended 60 s")] {
        let outages: usize = results.iter().map(|r| false_outages(&r.rtts, timeout, 3)).sum();
        let affected = results.iter().filter(|r| false_outages(&r.rtts, timeout, 3) > 0).count();
        println!(
            "timeout = {label:<24} → {outages:>4} FALSE outage declarations across \
             {affected:>2} hosts"
        );
    }
    println!(
        "\nevery host answered every ping eventually — the 3 s monitor manufactured \
         outages out of latency. 'Too short a timeout risks confusing congestion or \
         other delay with an outage.'"
    );
}
