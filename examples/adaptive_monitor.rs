//! The paper's Section 7 advice as a running program: monitor cellular
//! hosts with the adaptive prober (retransmit at 3 s, keep listening to
//! 60 s) and watch, packet by packet, how a response arriving after the
//! naive deadline rescues a would-be false outage.
//!
//! ```sh
//! cargo run --release --example adaptive_monitor
//! ```

use beware::netsim::profile::{BlockProfile, EpisodeCfg, WakeupCfg};
use beware::netsim::rng::Dist;
use beware::netsim::world::World;
use beware::netsim::Simulation;
use beware::probe::adaptive::{AdaptiveCfg, AdaptiveProber};

fn main() {
    // Cellular block with wake-up and short disconnect episodes.
    let profile = BlockProfile {
        base_rtt: Dist::LogNormal { median: 0.3, sigma: 0.3 },
        jitter: Dist::Exponential { mean: 0.1 },
        density: 0.5,
        response_prob: 1.0,
        error_prob: 0.0,
        dup_prob: 0.0,
        wakeup: Some(WakeupCfg { host_prob: 1.0, ..Default::default() }),
        episodes: Some(EpisodeCfg {
            host_prob: 0.5,
            interval: Dist::Constant(300.0),
            duration: Dist::Constant(35.0),
            max_duration_secs: 40.0,
            buffer_prob: 1.0,
            buffer_cap: 200,
            blackout_secs_max: 5.0,
        }),
        ..Default::default()
    };
    let world = World::from_blocks(0x60, [(0x0a0000, profile)]);
    let targets: Vec<u32> =
        (2u32..250).map(|o| 0x0a000000 + o).filter(|&a| world.is_live(a)).take(12).collect();
    println!("monitoring {} live cellular hosts (none is ever down)\n", targets.len());

    let prober = AdaptiveProber::new(targets, AdaptiveCfg { cycles: 6, ..Default::default() });
    // Attach a packet trace so the rescue is visible on the wire.
    let (prober, _world, summary, trace) =
        Simulation::new(world, prober).with_trace(4096).run_traced();

    let reports = prober.into_reports();
    let naive: u32 = reports.iter().map(|r| r.naive_outages).sum();
    let long: u32 = reports.iter().map(|r| r.outages).sum();
    let rescued: u32 = reports.iter().map(|r| r.rescued).sum();
    println!(
        "{} packets on the wire; naive prober would declare {naive} outages, \
         the listener declares {long} — {rescued} rescued.\n",
        summary.packets_sent + summary.packets_delivered
    );

    // Show a slice of the capture around a slow exchange: the first pair
    // whose reply arrived more than 9 s (the naive deadline) after its
    // request.
    let entries: Vec<_> = trace.entries().collect();
    let slow = entries.iter().enumerate().find(|(_, e)| {
        use beware::netsim::trace::Direction;
        use beware::wire::icmp::IcmpKind;
        if e.dir != Direction::Received {
            return false;
        }
        let beware::netsim::packet::L4::Icmp { kind: IcmpKind::EchoReply { seq, .. }, .. } =
            &e.pkt.l4
        else {
            return false;
        };
        // Find the matching request earlier in the capture.
        entries.iter().any(|s| {
            s.dir == Direction::Sent
                && s.pkt.dst == e.pkt.src
                && matches!(&s.pkt.l4,
                    beware::netsim::packet::L4::Icmp { kind: IcmpKind::EchoRequest { seq: q, .. }, .. }
                    if q == seq)
                && e.at.saturating_since(s.at).as_secs_f64() > 9.0
        })
    });
    match slow {
        Some((i, _)) => {
            println!("a rescue, as tcpdump would show it:");
            let lo = i.saturating_sub(4);
            for e in &entries[lo..(i + 1).min(entries.len())] {
                println!("  {}", e.render());
            }
            println!(
                "\nthe reply above arrived after the naive prober had already given up —\n\
                 only the keep-listening prober knows the host is alive."
            );
        }
        None => println!("(no >9 s exchange captured in this run's trace window)"),
    }
}
