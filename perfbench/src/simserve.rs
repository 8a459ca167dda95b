//! `simserve_partition`: the in-sim oracle at one thread, snapshot
//! mode, steady demand, mid-campaign partitions.
//!
//! The end-to-end run calls the program (`beware_bench::simserve::run`)
//! back to back for the whole measuring window. The traced run cannot
//! put spans inside the program, so it drives a **replica**: a
//! benchmark-side agent built from the same public parts the program's
//! cell agent uses (`EngineCore`/`Conn<ChannelTransport>`, `LinkLayer`,
//! `proto`, `Oracle`, `Ctx` timers), with a span around every call into
//! a layer. The replica must reproduce the program's deterministic
//! counters exactly on the same configuration, or the run fails.

use crate::report::{fnv, repeat, Outcome, Repetition, FNV0};
use crate::{alloc, trace, Args};
use beware_bench::simserve::{self as program, campaign_oracle, Regime, SimServeCfg};
use beware_faultsim::topology::mid_campaign_partitions;
use beware_netsim::link::{LinkCfg, LinkId, LinkLayer};
use beware_netsim::time::{SimDuration, SimTime};
use beware_netsim::{Agent, Ctx, Packet, RunSummary, Simulation, TimerId, World};
use beware_runtime::reactor::StopSignal;
use beware_serve::engine::{channel_pair, ChannelPeer, ChannelTransport, Conn, Engine, EngineCore};
use beware_serve::oracle::Oracle;
use beware_serve::proto::{self, Message};
use beware_telemetry::Registry;
use std::sync::Arc;
use std::time::Instant;

/// Clients per run: one `2^16`-client cell, today's `cell_bits`.
const CLIENTS: u64 = 1 << 16;

fn cfg(seed: u64) -> SimServeCfg {
    SimServeCfg {
        clients: CLIENTS,
        queries_per_client: 2,
        cell_bits: 16,
        seed,
        regime: Regime::Steady,
        partition: true,
        threads: 1,
        policy: None,
        ..SimServeCfg::default()
    }
}

/// The counters the program and the replica must agree on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Counters {
    queries_sent: u64,
    ok: u64,
    wrong: u64,
    timeouts: u64,
    errors: u64,
    requests_dropped: u64,
    replies_dropped: u64,
    gave_up_inflight: u64,
    link_drops: u64,
    rtt_sum_us: u64,
    served_queries: u64,
    served_exact: u64,
    served_fallback: u64,
    sim_events: u64,
    queue_peak: u64,
}

impl Counters {
    fn of(r: &program::SimServeReport) -> Counters {
        Counters {
            queries_sent: r.queries_sent,
            ok: r.ok,
            wrong: r.wrong,
            timeouts: r.timeouts,
            errors: r.errors,
            requests_dropped: r.requests_dropped,
            replies_dropped: r.replies_dropped,
            gave_up_inflight: r.gave_up_inflight,
            link_drops: r.link_drops,
            rtt_sum_us: r.rtt_sum_us,
            served_queries: r.served_queries,
            served_exact: r.served_exact,
            served_fallback: r.served_fallback,
            sim_events: r.sim_events,
            queue_peak: r.queue_peak,
        }
    }

    /// Attempts that failed: wrong answers, protocol errors, and
    /// timeouts not explained by a leg the partition black-holed.
    fn failed(&self) -> u64 {
        self.wrong
            + self.errors
            + self.timeouts.saturating_sub(self.requests_dropped + self.replies_dropped)
    }

    fn check(&self, out: &mut Outcome, what: &str) {
        out.check(
            &format!("{what}_no_wrong_answers"),
            self.wrong == 0 && self.errors == 0,
            format!("wrong {} errors {}", self.wrong, self.errors),
        );
        out.check(
            &format!("{what}_attempts_close"),
            self.ok + self.wrong + self.timeouts + self.errors == self.queries_sent,
            format!(
                "ok {} + wrong {} + timeouts {} + errors {} vs sent {}",
                self.ok, self.wrong, self.timeouts, self.errors, self.queries_sent
            ),
        );
        out.check(
            &format!("{what}_timeouts_are_partition_drops"),
            self.timeouts == self.requests_dropped + self.replies_dropped,
            format!(
                "timeouts {} vs black-holed requests {} + replies {}",
                self.timeouts, self.requests_dropped, self.replies_dropped
            ),
        );
    }
}

/// End-to-end: the program, back to back, for the measuring window.
pub fn run(args: &Args) -> Outcome {
    let cfg = cfg(args.seed);
    let mut out = Outcome::default();
    out.note("config", "65536 clients x 2 queries, cell_bits 16, steady, partition, 1 thread");
    let mut first = true;
    repeat(&mut out, args.seconds, |out| {
        let t0 = Instant::now();
        let r = program::run(&cfg).expect("valid simserve configuration");
        let outer = t0.elapsed().as_secs_f64();
        let c = Counters::of(&r);
        out.attempted += c.queries_sent;
        out.failed += c.failed();
        if std::mem::take(&mut first) {
            c.check(out, "program");
            out.note(
                "per_repetition",
                format!(
                    "{} validated answers, {} timeouts (partition), {} sim events",
                    c.ok, c.timeouts, c.sim_events
                ),
            );
        }
        Repetition {
            setup_s: outer - r.wall_secs,
            wall_s: r.wall_secs,
            ops: r.ok,
            digest: fnv(FNV0, r.summary_json().as_bytes()),
        }
    });
    out
}

/// Traced: the program once, then the replica untraced, traced, and
/// untraced again.
pub fn traced(args: &Args) -> Outcome {
    let cfg = cfg(args.seed);
    let mut out = Outcome::default();
    let program_run = program::run(&cfg).expect("valid simserve configuration");
    let expect = Counters::of(&program_run);
    expect.check(&mut out, "program");
    let oracle = Arc::new(campaign_oracle());

    let timed_replica = || {
        let t0 = Instant::now();
        let (c, _, _) = replica(&cfg, &oracle);
        (c, t0.elapsed().as_secs_f64())
    };
    let (plain, before) = timed_replica();

    alloc::set_counting(true);
    trace::enable();
    let a0 = alloc::thread_allocs();
    let t0 = Instant::now();
    let (traced_c, summary, reg) = replica(&cfg, &oracle);
    let traced_wall = t0.elapsed().as_secs_f64();
    let allocs = alloc::thread_allocs() - a0;
    let table = trace::take();
    alloc::set_counting(false);
    let (plain_after, after) = timed_replica();
    let replica_wall = (before + after) / 2.0;

    out.check(
        "replica_matches_program",
        plain == expect && plain_after == expect,
        format!("replica {plain:?} vs program {expect:?}"),
    );
    out.check(
        "traced_replica_matches_program",
        traced_c == expect,
        "traced replica counters equal the program's",
    );
    out.attempted = expect.queries_sent;
    out.failed = expect.failed();
    out.note("program_wall_s", program_run.wall_secs);
    out.note("replica_wall_s", format!("{before} before, {after} after the traced run"));
    out.metric("trace.replica_wall_ratio", replica_wall / program_run.wall_secs);
    out.overhead(replica_wall, traced_wall);
    out.spans(&table, traced_wall);

    let ns = |name: &str| table.get(name).map_or(0.0, trace::SpanStats::ns_per_call);
    let ratio = |a: &str, b: &[&str]| {
        let num = reg.counter(a).unwrap_or(0) as f64;
        let den: f64 = b.iter().map(|n| reg.counter(n).unwrap_or(0) as f64).sum();
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    };
    let run = table.get("netsim.sim.run").copied().unwrap_or_default();
    out.metric("runtime.wheel.set_ns", ns("runtime.wheel.set"));
    out.metric("runtime.wheel.cancel_ns", ns("runtime.wheel.cancel"));
    out.metric("netsim.sim.dispatch_ns_per_event", run.self_ns as f64 / summary.events as f64);
    out.metric("netsim.sim.events", summary.events as f64);
    out.metric("netsim.sim.queue_peak", summary.queue_peak as f64);
    out.metric("netsim.link.traverse_ns", ns("netsim.link.traverse"));
    out.metric(
        "netsim.link.traversals",
        table.get("netsim.link.traverse").map_or(0, |s| s.calls) as f64,
    );
    out.metric("netsim.link.drops", traced_c.link_drops as f64);
    out.metric("serve.engine.service_ns", ns("serve.engine.service"));
    out.metric("serve.engine.flush_ns", ns("serve.engine.flush"));
    out.metric(
        "serve.engine.cache_hit_ratio",
        ratio("sched/serve/cache_hits", &["sched/serve/cache_hits", "sched/serve/cache_misses"]),
    );
    out.metric("serve.proto.encode_ns", ns("serve.proto.encode"));
    out.metric("serve.proto.decode_ns", ns("serve.proto.decode"));
    out.metric("serve.oracle.lookup_ns", ns("serve.oracle.lookup"));
    out.metric("serve.oracle.exact_ratio", ratio("serve/hits_exact", &["serve/queries"]));
    out.metric("telemetry.merge_ns", ns("telemetry.merge"));
    out.metric("alloc.per_query", allocs as f64 / traced_c.queries_sent as f64);
    out
}

// ---------------------------------------------------------------------
// The replica. Constants and behaviour mirror the program's cell agent;
// `replica_matches_program` fails the run if they ever drift apart.

const CLIENT_BASE: u32 = 0x0a00_0000;
const PROP_ONE_WAY: SimDuration = SimDuration::from_millis(10);
const MIN_CLIENT_TIMEOUT_SECS: f64 = 0.1;
const INITIAL_TIMEOUT_SECS: f64 = 1.0;
const OUT_QUEUE_CAP: usize = 64 * 1024;
const PCT_PAIRS: [(u16, u16); 4] = [(500, 500), (900, 950), (950, 990), (990, 980)];
const FIRE: u64 = 0;
const SERVER_RX: u64 = 1 << 32;
const CLIENT_RX: u64 = 2 << 32;
const TIMEOUT: u64 = 3 << 32;
const KIND_MASK: u64 = 0xffff_ffff_0000_0000;

fn path_of(addr: u32) -> [LinkId; 3] {
    [LinkId::Access((addr >> 16) as u16), LinkId::Core(addr >> 12 & 0xf_ff00), LinkId::Spine(0)]
}

#[derive(Default)]
struct Client {
    addr: u32,
    attempts_left: u32,
    attempt: u32,
    timeout_secs: f64,
    sent_at: SimTime,
    expected_bits: u64,
    timeout_timer: Option<TimerId>,
    net_timer: Option<TimerId>,
    request: Vec<u8>,
    reply: Vec<u8>,
}

struct Cell {
    interval_us: u64,
    core: EngineCore,
    engine: Option<Engine>,
    links: LinkLayer,
    conns: Vec<Conn<ChannelTransport>>,
    peers: Vec<ChannelPeer>,
    clients: Vec<Client>,
    oracle: Arc<Oracle>,
    c: Counters,
    reg: Registry,
}

fn set_timer(ctx: &mut Ctx<'_>, at: SimTime, token: u64) -> TimerId {
    trace::enter();
    let id = ctx.set_timer(at, token);
    trace::exit("runtime.wheel.set");
    id
}

fn cancel_timer(ctx: &mut Ctx<'_>, id: TimerId) -> bool {
    trace::enter();
    let done = ctx.cancel_timer(id);
    trace::exit("runtime.wheel.cancel");
    done
}

impl Cell {
    fn new(cfg: &SimServeCfg, oracle: &Arc<Oracle>, cell: u64) -> Cell {
        let first = cell << cfg.cell_bits;
        let count = (cfg.clients - first).min(1u64 << cfg.cell_bits) as usize;
        let (mut conns, mut peers, mut clients) =
            (Vec::with_capacity(count), Vec::with_capacity(count), Vec::with_capacity(count));
        for i in 0..count {
            let (transport, peer) = channel_pair();
            conns.push(Conn::new(i as u64, transport));
            peers.push(peer);
            clients.push(Client {
                addr: CLIENT_BASE + (first + i as u64) as u32,
                attempts_left: cfg.queries_per_client,
                timeout_secs: INITIAL_TIMEOUT_SECS,
                ..Client::default()
            });
        }
        let mut link_cfg = LinkCfg {
            seed: cfg.seed,
            access_pps: 1_000_000.0,
            core_pps: 5_000_000.0,
            spine_pps: 20_000_000.0,
            ..LinkCfg::default()
        };
        if cfg.partition {
            let lo = (CLIENT_BASE + first as u32) >> 16;
            let hi = (CLIENT_BASE + first as u32 + count as u32 - 1) >> 16;
            let targets: Vec<LinkId> = (lo..=hi)
                .filter(|p16| p16 % 8 == 0)
                .map(|p16| LinkId::Access(p16 as u16))
                .collect();
            let duration = f64::from(cfg.queries_per_client) * cfg.interval_us as f64 / 1e6;
            link_cfg.events = mid_campaign_partitions(&targets, duration);
        }
        Cell {
            interval_us: cfg.interval_us,
            core: EngineCore::new(Arc::clone(oracle), Arc::new(StopSignal::new()), None, None),
            engine: None,
            links: LinkLayer::new(link_cfg),
            conns,
            peers,
            clients,
            oracle: Arc::clone(oracle),
            c: Counters::default(),
            reg: Registry::new(),
        }
    }

    fn traverse(&mut self, addr: u32, now: SimTime) -> Option<SimDuration> {
        trace::enter();
        let r = self.links.traverse(&path_of(addr), now);
        trace::exit("netsim.link.traverse");
        r
    }

    fn next_attempt(&mut self, i: usize, ctx: &mut Ctx<'_>) {
        if self.clients[i].attempts_left > 0 {
            let think = SimDuration::from_ns(self.interval_us.max(1).saturating_mul(1_000));
            set_timer(ctx, ctx.now() + think, FIRE | i as u64);
        }
    }

    fn fire(&mut self, i: usize, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let c = &mut self.clients[i];
        c.attempts_left -= 1;
        let (r, p) = PCT_PAIRS[(c.addr as usize + c.attempt as usize) % PCT_PAIRS.len()];
        c.attempt += 1;
        c.sent_at = now;
        trace::enter();
        let expected = self.oracle.lookup(c.addr, r, p).expect("grid pair resolves").timeout_bits;
        trace::exit("serve.oracle.lookup");
        c.expected_bits = expected;
        c.request.clear();
        trace::enter();
        let frame =
            proto::encode(&Message::Query { addr: c.addr, addr_pct_tenths: r, ping_pct_tenths: p });
        trace::exit("serve.proto.encode");
        c.request.extend_from_slice(&frame);
        self.c.queries_sent += 1;
        let timeout = SimDuration::from_secs_f64(c.timeout_secs);
        let addr = c.addr;
        self.clients[i].timeout_timer = Some(set_timer(ctx, now + timeout, TIMEOUT | i as u64));
        match self.traverse(addr, now) {
            Some(extra) => {
                let at = now + PROP_ONE_WAY + extra;
                self.clients[i].net_timer = Some(set_timer(ctx, at, SERVER_RX | i as u64));
            }
            None => {
                self.c.requests_dropped += 1;
                self.clients[i].request.clear();
            }
        }
    }

    fn server_rx(&mut self, i: usize, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.clients[i].net_timer = None;
        let request = std::mem::take(&mut self.clients[i].request);
        if request.is_empty() {
            return;
        }
        self.peers[i].send(&request);
        let engine = self.engine.as_mut().expect("engine built at start");
        trace::enter();
        engine.service(&mut self.conns[i], &mut self.reg);
        trace::exit("serve.engine.service");
        trace::enter();
        engine.flush(&mut self.conns[i], &mut self.reg);
        trace::exit("serve.engine.flush");
        let mut reply = Vec::new();
        self.peers[i].drain(&mut reply);
        if reply.is_empty() {
            return;
        }
        let addr = self.clients[i].addr;
        match self.traverse(addr, now) {
            Some(extra) => {
                let at = now + PROP_ONE_WAY + extra;
                self.clients[i].reply = reply;
                self.clients[i].net_timer = Some(set_timer(ctx, at, CLIENT_RX | i as u64));
            }
            None => self.c.replies_dropped += 1,
        }
    }

    fn client_rx(&mut self, i: usize, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.clients[i].net_timer = None;
        let bytes = std::mem::take(&mut self.clients[i].reply);
        if let Some(id) = self.clients[i].timeout_timer.take() {
            cancel_timer(ctx, id);
        }
        let mut answer = None;
        let mut offset = 0;
        while offset < bytes.len() {
            trace::enter();
            let decoded = proto::try_decode(&bytes[offset..]);
            trace::exit("serve.proto.decode");
            match decoded {
                Ok(Some((msg @ Message::Answer { .. }, used))) => {
                    offset += used;
                    answer = Some(msg);
                }
                Ok(Some((Message::ReportAck { .. }, used))) => offset += used,
                _ => {
                    self.c.errors += 1;
                    self.next_attempt(i, ctx);
                    return;
                }
            }
        }
        let Some(Message::Answer { timeout_bits, .. }) = answer else {
            self.c.errors += 1;
            self.next_attempt(i, ctx);
            return;
        };
        if timeout_bits == self.clients[i].expected_bits {
            let rtt_us = now.saturating_since(self.clients[i].sent_at).as_us();
            self.c.ok += 1;
            self.c.rtt_sum_us += rtt_us;
            let served = f64::from_bits(timeout_bits);
            self.clients[i].timeout_secs = served.clamp(MIN_CLIENT_TIMEOUT_SECS, 3_600.0);
        } else {
            self.c.wrong += 1;
        }
        self.next_attempt(i, ctx);
    }

    fn timed_out(&mut self, i: usize, ctx: &mut Ctx<'_>) {
        self.clients[i].timeout_timer = None;
        self.c.timeouts += 1;
        if let Some(id) = self.clients[i].net_timer.take() {
            cancel_timer(ctx, id);
            self.c.gave_up_inflight += 1;
        }
        self.clients[i].request.clear();
        self.clients[i].reply.clear();
        self.next_attempt(i, ctx);
    }
}

impl Agent for Cell {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        trace::enter();
        self.engine = Some(self.core.engine(ctx.clock(), OUT_QUEUE_CAP));
        let interval_ns = self.interval_us.saturating_mul(1_000).max(1);
        let slots = self.clients.len().max(1) as u64;
        for i in 0..self.clients.len() {
            let offset = SimDuration::from_ns(interval_ns * i as u64 / slots);
            set_timer(ctx, SimTime::EPOCH + offset, FIRE | i as u64);
        }
        trace::exit("bench.simserve.client");
    }

    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        trace::enter();
        let i = (token & !KIND_MASK) as usize;
        match token & KIND_MASK {
            FIRE => self.fire(i, ctx),
            SERVER_RX => self.server_rx(i, ctx),
            CLIENT_RX => self.client_rx(i, ctx),
            TIMEOUT => self.timed_out(i, ctx),
            _ => unreachable!("unknown timer kind"),
        }
        trace::exit("bench.simserve.client");
    }
}

/// Run the campaign through the replica, cells in order on this thread.
fn replica(cfg: &SimServeCfg, oracle: &Arc<Oracle>) -> (Counters, RunSummary, Registry) {
    assert!(
        cfg.regime == Regime::Steady && cfg.policy.is_none(),
        "replica covers steady snapshot mode"
    );
    let cells = cfg.clients.div_ceil(1u64 << cfg.cell_bits);
    let worst = f64::from(cfg.queries_per_client) * cfg.interval_us as f64 / 1e6 * 2.0
        + f64::from(cfg.queries_per_client) * 3_600.0
        + 60.0;
    let deadline = SimTime::EPOCH + SimDuration::from_secs_f64(worst);
    let mut total = Counters::default();
    let mut reg = Registry::new();
    let mut last = None;
    for cell in 0..cells {
        let agent = Cell::new(cfg, oracle, cell);
        let world = World::new(beware_runtime::rng::derive_seed(cfg.seed, cell));
        trace::enter();
        let (mut agent, _world, summary) =
            Simulation::new(world, agent).with_deadline(deadline).run();
        trace::exit("netsim.sim.run");
        agent.c.sim_events = summary.events;
        agent.c.queue_peak = summary.queue_peak;
        agent.c.link_drops = agent.links.drops();
        total.add(&agent.c);
        trace::enter();
        reg.merge(&agent.reg);
        trace::exit("telemetry.merge");
        last = Some(summary);
    }
    total.served_queries = reg.counter("serve/queries").unwrap_or(0);
    total.served_exact = reg.counter("serve/hits_exact").unwrap_or(0);
    total.served_fallback = reg.counter("serve/hits_fallback").unwrap_or(0);
    let mut summary = last.expect("at least one cell");
    summary.events = total.sim_events;
    summary.queue_peak = total.queue_peak;
    (total, summary, reg)
}

impl Counters {
    fn add(&mut self, o: &Counters) {
        self.queries_sent += o.queries_sent;
        self.ok += o.ok;
        self.wrong += o.wrong;
        self.timeouts += o.timeouts;
        self.errors += o.errors;
        self.requests_dropped += o.requests_dropped;
        self.replies_dropped += o.replies_dropped;
        self.gave_up_inflight += o.gave_up_inflight;
        self.link_drops += o.link_drops;
        self.rtt_sum_us += o.rtt_sum_us;
        self.sim_events += o.sim_events;
        self.queue_peak = self.queue_peak.max(o.queue_peak);
    }
}
