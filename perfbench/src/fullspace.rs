//! `fullspace_dense`: a procedural zmap sweep of densely routed space at
//! two threads, with a host cap well below the hosts touched (eviction
//! runs) and one link degrade (probes cross the link layer).
//!
//! The end-to-end run calls the program (`beware_bench::fullspace::run`)
//! back to back. The traced run drives a replica of its per-chunk loop
//! (`World::procedural` + `World::probe`) with spans around each probe
//! and a timing [`ProfileSource`] wrapper around the shared space; the
//! replica's counters must equal the program's summary.

use crate::report::{fnv, repeat, Outcome, Repetition, FNV0};
use crate::{alloc, trace, Args};
use beware_bench::fullspace::{self as program, FullSpaceCfg, FullSpaceReport};
use beware_netsim::link::{LinkEvent, LinkEventKind, LinkId};
use beware_netsim::scenario::{ProceduralSpace, Scenario, ScenarioCfg};
use beware_netsim::space::{LazyCfg, ProfileSource, ResolvedBlock};
use beware_netsim::time::{SimDuration, SimTime};
use beware_netsim::{run_tasks, Packet, World};
use std::sync::Arc;
use std::time::Instant;

const PROBER: u32 = 0x0101_0101;

fn cfg(seed: u64) -> FullSpaceCfg {
    FullSpaceCfg {
        // 2^22 addresses from 1.0.0.0: the plan allocates its 65536
        // routed /24s upward from there, so about 9 in 10 probes land on
        // routed space.
        space_bits: 22,
        base_addr: 0x0100_0000,
        total_blocks: 65_536,
        seed,
        threads: 2,
        host_cap: 4_096,
        chunk_bits: 18,
        link_events: vec![LinkEvent {
            link: LinkId::Access(0x0100),
            at_secs: 0.0,
            until_secs: f64::INFINITY,
            kind: LinkEventKind::Degrade { capacity_scale: 0.5 },
        }],
        ..FullSpaceCfg::default()
    }
}

/// The program's deterministic counters, as the replica must reproduce
/// them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Counters {
    probes: u64,
    responses: u64,
    unrouted: u64,
    no_response: u64,
    link_drops: u64,
    arrivals: u64,
    rtt_sum_us: u64,
    hosts_evicted: u64,
    hosts_peak: u64,
}

impl Counters {
    fn of(r: &FullSpaceReport) -> Counters {
        Counters {
            probes: r.probes,
            responses: r.responses,
            unrouted: r.unrouted,
            no_response: r.no_response,
            link_drops: r.link_drops,
            arrivals: r.arrivals,
            rtt_sum_us: r.rtt_sum_us,
            hosts_evicted: r.hosts_evicted,
            hosts_peak: r.peak_resident_hosts,
        }
    }

    fn routed(&self) -> u64 {
        self.probes - self.unrouted
    }
}

fn check_program(out: &mut Outcome, cfg: &FullSpaceCfg, c: &Counters) {
    out.check(
        "every_address_probed",
        c.probes == 1u64 << cfg.space_bits,
        format!("{} probes for 2^{} addresses", c.probes, cfg.space_bits),
    );
    out.check(
        "dense",
        c.routed() * 2 > c.probes && c.responses > 0,
        format!("{} of {} probes routed, {} responses", c.routed(), c.probes, c.responses),
    );
    out.check(
        "host_cap_holds_and_evicts",
        c.hosts_peak <= cfg.host_cap as u64 && c.hosts_evicted > 0,
        format!("peak {} (cap {}), evicted {}", c.hosts_peak, cfg.host_cap, c.hosts_evicted),
    );
}

/// End-to-end: the program, back to back, for the measuring window.
pub fn run(args: &Args) -> Outcome {
    let cfg = cfg(args.seed);
    let mut out = Outcome::default();
    out.note(
        "config",
        "2^22 addresses from 1.0.0.0, 65536 routed /24s, 2 threads, host cap 4096, \
         chunk_bits 18, degrade access 1.0/16 x0.5",
    );
    let mut first = true;
    repeat(&mut out, args.seconds, |out| {
        let t0 = Instant::now();
        let r = program::run(&cfg).expect("valid fullspace configuration");
        let outer = t0.elapsed().as_secs_f64();
        let c = Counters::of(&r);
        out.attempted += c.routed();
        if std::mem::take(&mut first) {
            check_program(out, &cfg, &c);
            out.note(
                "per_repetition",
                format!(
                    "{} routed probes of {}, {} responses, {} evicted",
                    c.routed(),
                    c.probes,
                    c.responses,
                    c.hosts_evicted
                ),
            );
        }
        Repetition {
            setup_s: outer - r.wall_secs,
            wall_s: r.wall_secs,
            ops: c.routed(),
            digest: fnv(FNV0, r.summary_json().as_bytes()),
        }
    });
    out
}

/// A [`ProfileSource`] that spans every resolution.
#[derive(Debug)]
struct TimedSpace(Arc<ProceduralSpace>);

impl ProfileSource for TimedSpace {
    fn resolve(&self, prefix24: u32) -> Option<ResolvedBlock> {
        trace::span("netsim.space.resolve", || self.0.resolve(prefix24))
    }

    fn routed_blocks(&self) -> usize {
        self.0.routed_blocks()
    }
}

struct ReplicaRun {
    c: Counters,
    table: trace::Table,
    busy_s: f64,
    wall_s: f64,
    allocs: u64,
}

/// The program's per-chunk loop, on the same chunk decomposition.
fn replica(cfg: &FullSpaceCfg, timed: bool) -> ReplicaRun {
    let sc = Scenario::new(ScenarioCfg {
        year: cfg.year,
        seed: cfg.seed,
        total_blocks: cfg.total_blocks,
        vantage: cfg.vantage,
    });
    let space = Arc::new(sc.lazy_space());
    let lazy = LazyCfg { host_cap: cfg.host_cap, ..LazyCfg::default() };
    let world_seed = sc.world_seed();
    let link_cfg = sc.link_cfg(cfg.link_events.clone());
    let chunk_size = 1u64 << cfg.chunk_bits;
    let chunks: Vec<u64> = (0..1u64 << (cfg.space_bits - cfg.chunk_bits)).collect();
    let interval = cfg.probe_interval_ns;

    let t0 = Instant::now();
    let outs = run_tasks(cfg.threads, chunks, |_, chunk| {
        let busy = Instant::now();
        if timed {
            trace::enable();
        }
        let a0 = alloc::thread_allocs();
        let source: Arc<dyn ProfileSource> =
            if timed { Arc::new(TimedSpace(Arc::clone(&space))) } else { space.clone() };
        trace::enter();
        let mut world = World::procedural(world_seed, source, &lazy).with_links(link_cfg.clone());
        trace::exit("netsim.world.build");
        let mut c = Counters::default();
        for i in 0..chunk_size {
            let global = chunk * chunk_size + i;
            let addr = (u64::from(cfg.base_addr) + global) as u32;
            let at = SimTime::EPOCH + SimDuration::from_ns(global.saturating_mul(interval));
            let probe = Packet::echo_request(PROBER, addr, 1, global as u16, Vec::new());
            let arrivals = if timed {
                let before = world.stats().unrouted;
                trace::enter();
                let a = world.probe(&probe, at);
                let unrouted = world.stats().unrouted != before;
                trace::exit(if unrouted {
                    "netsim.world.unrouted_probe"
                } else {
                    "netsim.world.probe"
                });
                a
            } else {
                world.probe(&probe, at)
            };
            for arrival in arrivals {
                c.arrivals += 1;
                c.rtt_sum_us += arrival.at.saturating_since(at).as_us();
            }
        }
        let s = world.stats();
        c.probes = s.probes;
        c.responses = s.responses;
        c.unrouted = s.unrouted;
        c.no_response = s.no_response;
        c.link_drops = s.link_drops;
        c.hosts_evicted = s.hosts_evicted;
        c.hosts_peak = s.hosts_peak;
        let allocs = alloc::thread_allocs() - a0;
        let table = if timed { trace::take() } else { trace::Table::new() };
        (c, table, busy.elapsed().as_secs_f64(), allocs)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut run = ReplicaRun {
        c: Counters::default(),
        table: trace::Table::new(),
        busy_s: 0.0,
        wall_s,
        allocs: 0,
    };
    for (c, table, busy, allocs) in outs {
        run.c.probes += c.probes;
        run.c.responses += c.responses;
        run.c.unrouted += c.unrouted;
        run.c.no_response += c.no_response;
        run.c.link_drops += c.link_drops;
        run.c.arrivals += c.arrivals;
        run.c.rtt_sum_us += c.rtt_sum_us;
        run.c.hosts_evicted += c.hosts_evicted;
        run.c.hosts_peak = run.c.hosts_peak.max(c.hosts_peak);
        trace::merge(&mut run.table, &table);
        run.busy_s += busy;
        run.allocs += allocs;
    }
    run
}

/// Traced: the program once, then the replica untraced, traced, and
/// untraced again.
pub fn traced(args: &Args) -> Outcome {
    let cfg = cfg(args.seed);
    let mut out = Outcome::default();
    let program_run = program::run(&cfg).expect("valid fullspace configuration");
    let expect = Counters::of(&program_run);
    check_program(&mut out, &cfg, &expect);

    let plain = replica(&cfg, false);
    alloc::set_counting(true);
    let timed = replica(&cfg, true);
    alloc::set_counting(false);
    let after = replica(&cfg, false);
    let untraced_wall = (plain.wall_s + after.wall_s) / 2.0;

    out.check(
        "replica_matches_program",
        plain.c == expect && after.c == expect,
        format!("replica {:?} vs program {expect:?}", plain.c),
    );
    out.check(
        "traced_replica_matches_program",
        timed.c == expect,
        "traced replica counters equal the program's",
    );
    out.attempted = expect.routed();
    out.note("program_wall_s", program_run.wall_secs);
    out.note(
        "replica_wall_s",
        format!("{} before, {} after the traced run", plain.wall_s, after.wall_s),
    );
    out.metric("trace.replica_wall_ratio", untraced_wall / program_run.wall_secs);
    out.overhead(untraced_wall, timed.wall_s);
    // Two workers: the time to account for is threads x wall.
    let threads = cfg.threads as f64;
    out.note("sum_check_denominator", "threads x traced wall");
    out.spans(&timed.table, timed.wall_s * threads);

    let t = &timed.table;
    let ns = |name: &str| t.get(name).map_or(0.0, trace::SpanStats::ns_per_call);
    let resolves = t.get("netsim.space.resolve").map_or(0, |s| s.calls);
    out.metric("netsim.world.probe_ns", ns("netsim.world.probe"));
    out.metric("netsim.world.unrouted_probe_ns", ns("netsim.world.unrouted_probe"));
    out.metric("netsim.space.resolve_ns", ns("netsim.space.resolve"));
    out.metric("netsim.space.resolve_calls", resolves as f64);
    out.metric("netsim.space.cache_hit_ratio", 1.0 - resolves as f64 / timed.c.probes as f64);
    out.metric("netsim.exec.idle_frac", 1.0 - plain.busy_s / (threads * plain.wall_s));
    out.metric("netsim.host.evicted", expect.hosts_evicted as f64);
    out.metric("netsim.host.peak", expect.hosts_peak as f64);
    out.metric("alloc.per_probe", timed.allocs as f64 / timed.c.probes as f64);
    out
}
