//! `serve_tcp_mixed`: real epoll TCP on loopback against an in-process
//! one-shard server answering from the `codel-quantile` online policy.
//!
//! `BENCHMARK.json` does not list this workload: on the reference VM its
//! end-to-end spread stayed near or above the largest bound the harness
//! allows under every design tried (see `perfbench/README.md`). It runs
//! by hand and is the only workload that measures the reactor, syscalls
//! and the policy write path.
//!
//! Each pair is a `REPORT` (the previous RTT) followed by a `QUERY`, for
//! addresses spread over 4096 /24s. Every run first sets up [`SETUPS`]
//! times: server start, connect two connections and one round trip on
//! each (timed), then a sequential seeded warm-up whose answers must hash
//! equal on every fresh server. The generator and every server thread
//! share one CPU (see [`placement`]).
//!
//! The end-to-end run then drives the connections **closed loop**, one
//! batch of pairs in flight: requests per second, CPU per request and
//! pair latency. The traced run drives
//! them **open loop**, one generator thread per connection: a fixed
//! rate, each pair timed from when it was due (so a stall charges every
//! pair queued behind it) with the generator's own lateness beside it,
//! untraced and then traced; then a rate ladder for the highest rate
//! whose p99 stays within [`SLO_P99_US`] with no growing backlog and no
//! failures.

use crate::report::{median, quantile, Outcome};
use crate::{alloc, trace, Args};
use beware_policy::PolicyKind;
use beware_runtime::rng::{derive_seed, SplitMix64};
use beware_serve::proto::{self, Message};
use beware_serve::{server, ServerCfg, ServerHandle};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Connections; the open-loop phases give each its own generator thread.
const CONNS: usize = 2;
/// Pairs per second (both connections together) in the fixed phase.
const FIXED_PAIRS_PER_S: f64 = 4_000.0;
/// Latency limit on the p99 of pair latency, microseconds. Loose on
/// purpose: on a small shared VM, thread wake-ups alone put the p99 of
/// an idle loopback pair at several milliseconds.
const SLO_P99_US: f64 = 25_000.0;
/// A rung passes only if the generator ends it at most this late.
const BACKLOG_BOUND_US: f64 = 5_000.0;
/// A fixed-rate run whose p99 send lag exceeds this is invalid.
const LAG_BOUND_US: f64 = 50_000.0;
/// Ladder: first rung, growth per rung, rung length.
const LADDER_START: f64 = 8_000.0;
const LADDER_STEP: f64 = 1.15;
const LADDER_RUNG_S: f64 = 0.4;
/// Set-ups per run (the median is reported).
const SETUPS: usize = 9;
/// Sequential warm-up pairs per connection after each set-up.
const WARMUP_PAIRS: usize = 32;
/// Coverage pair every query asks for.
const PCT: (u16, u16) = (950, 990);

/// Thread placement: the generator and every server thread share the
/// last CPU the process may use (CPU 0 takes most device interrupts).
/// Left to the scheduler on a 2-vCPU VM, client and server threads land
/// together on some runs and apart on others, and a cross-CPU wake-up
/// costs a hypervisor round trip whose price moves with the host;
/// throughput moved by 40% between runs with placement alone.
mod placement {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// Words in the CPU mask (1024 CPUs, glibc's `cpu_set_t`).
    const WORDS: usize = 16;

    /// Pin the calling thread, and every thread it spawns afterwards, to
    /// the last CPU it may run on. Returns that CPU, or `None` when the
    /// kernel refused (the run then goes on unpinned).
    pub fn pin_last_cpu() -> Option<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: pid 0 names the calling thread, and `mask` is a live,
        // writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        let cpu = (0..WORDS * 64).rev().find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; WORDS];
        one[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: as above; the call only reads `one`.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
        (rc == 0).then_some(cpu)
    }
}

/// Addresses: 4096 /24s of 10/8, a random host in each draw.
fn addresses(seed: u64, conn: usize, n: usize) -> Vec<u32> {
    let mut rng = SplitMix64::new(derive_seed(seed, 0x7c90 + conn as u64));
    (0..n)
        .map(|_| {
            let r = rng.next_u64();
            0x0a00_0000 | (((r >> 20) as u32 % 4096) << 8) | (r as u32 & 0xff)
        })
        .collect()
}

/// Append a REPORT of `rtt_us` for `addr` and a QUERY for it.
fn push_pair(buf: &mut Vec<u8>, addr: u32, rtt_us: u32) {
    buf.extend_from_slice(&proto::encode(&Message::Report { addr, rtt_us }));
    buf.extend_from_slice(&proto::encode(&Message::Query {
        addr,
        addr_pct_tenths: PCT.0,
        ping_pct_tenths: PCT.1,
    }));
}

struct Link {
    w: TcpStream,
    r: BufReader<TcpStream>,
    reports_seen: u64,
}

impl Link {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Link> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(5)))?;
        Ok(Link { r: BufReader::new(s.try_clone()?), w: s, reports_seen: 0 })
    }

    /// One REPORT + QUERY pair: returns `(report_done, answer_done,
    /// timeout_bits)` or a description of what went wrong.
    fn pair(
        &mut self,
        buf: &mut Vec<u8>,
        addr: u32,
        rtt_us: u32,
    ) -> Result<(Instant, Instant, u64), String> {
        buf.clear();
        push_pair(buf, addr, rtt_us);
        self.write(buf)?;
        self.recv()
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), String> {
        trace::enter();
        let wrote = self.w.write_all(bytes);
        trace::exit("serve.client.write");
        wrote.map_err(|e| format!("write: {e}"))
    }

    /// Read the pair's replies: a fresh `ReportAck`, then an `Answer`
    /// within policy bounds.
    fn recv(&mut self) -> Result<(Instant, Instant, u64), String> {
        trace::enter();
        let ack = proto::read_frame(&mut self.r);
        trace::exit("serve.client.read");
        let t_report = Instant::now();
        match ack {
            Ok(Message::ReportAck { reports }) if reports > self.reports_seen => {
                self.reports_seen = reports
            }
            Ok(m) => return Err(format!("expected a fresh ReportAck, got {m:?}")),
            Err(e) => return Err(format!("read: {e}")),
        }
        trace::enter();
        let answer = proto::read_frame(&mut self.r);
        trace::exit("serve.client.read");
        let t_answer = Instant::now();
        match answer {
            Ok(Message::Answer { timeout_bits, .. }) => {
                let t = f64::from_bits(timeout_bits);
                if t.is_finite() && t > 0.0 && t <= 3_600.0 {
                    Ok((t_report, t_answer, timeout_bits))
                } else {
                    Err(format!("policy answer {t} outside (0, 3600] s"))
                }
            }
            Ok(m) => Err(format!("expected an Answer, got {m:?}")),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// Pairs per write in the closed loop (64 frames, about 1.4 KB).
const BATCH: usize = 32;

/// Most samples one generator keeps per series.
const RESERVOIR: usize = 1 << 14;

/// A uniform sample of at most [`RESERVOIR`] values of a series
/// (Algorithm R), so memory does not grow with throughput and a faster
/// server does not read as a bigger one.
#[derive(Default)]
struct Samples {
    seen: u64,
    v: Vec<f64>,
}

impl Samples {
    fn push(&mut self, x: f64, rng: &mut SplitMix64) {
        self.seen += 1;
        if self.v.len() < RESERVOIR {
            self.v.push(x);
        } else {
            let j = (rng.next_u64() % self.seen) as usize;
            if j < RESERVOIR {
                self.v[j] = x;
            }
        }
    }
}

/// One generator's results for one phase (sample series sorted once
/// merged).
#[derive(Default)]
struct Gen {
    sent: u64,
    failed: u64,
    errors: Vec<String>,
    lat_us: Samples,
    query_us: Samples,
    report_us: Samples,
    lag_us: Samples,
    end_lag_us: f64,
    table: trace::Table,
    allocs: u64,
}

impl Gen {
    fn sort(&mut self) {
        for s in [&mut self.lat_us, &mut self.query_us, &mut self.report_us, &mut self.lag_us] {
            s.v.sort_by(f64::total_cmp);
        }
    }
}

/// Drive one connection open loop at `rate` pairs/s for `secs`.
fn generate(link: &mut Link, addrs: &[u32], rate: f64, secs: f64, traced: bool) -> Gen {
    if traced {
        trace::enable();
    }
    let a0 = alloc::thread_allocs();
    let mut g = Gen::default();
    let (mut buf, mut rtt_us) = (Vec::with_capacity(64), 1_000u32);
    let mut rng = SplitMix64::new(0x5a3b);
    let mut recent_lag = std::collections::VecDeque::with_capacity(64);
    let n = (secs * rate) as usize;
    let start = Instant::now();
    for k in 0..n {
        let due = start + Duration::from_secs_f64(k as f64 / rate);
        let now = Instant::now();
        if due > now {
            trace::span("bench.tcp.pace", || std::thread::sleep(due - now));
        }
        let sent = Instant::now();
        let lag = (sent - due).as_secs_f64() * 1e6;
        g.lag_us.push(lag, &mut rng);
        if recent_lag.len() == 64 {
            recent_lag.pop_front();
        }
        recent_lag.push_back(lag);
        g.sent += 1;
        match link.pair(&mut buf, addrs[k % addrs.len()], rtt_us) {
            Ok((t_report, t_answer, _)) => {
                g.lat_us.push((t_answer - due).as_secs_f64() * 1e6, &mut rng);
                g.report_us.push((t_report - sent).as_secs_f64() * 1e6, &mut rng);
                g.query_us.push((t_answer - sent).as_secs_f64() * 1e6, &mut rng);
                rtt_us = (t_answer - sent).as_micros().min(u128::from(u32::MAX)) as u32;
            }
            Err(e) => {
                // The stream position is unknown after a failure: count
                // every remaining scheduled pair as failed too.
                g.failed += (n - k) as u64;
                g.sent += (n - k - 1) as u64;
                g.errors.push(e);
                break;
            }
        }
    }
    // Backlog at the end of the phase: the median lag of its last 64
    // pairs.
    g.end_lag_us = median(recent_lag.make_contiguous());
    g.allocs = alloc::thread_allocs() - a0;
    if traced {
        g.table = trace::take();
    }
    g
}

/// Run every connection's open-loop generator on its own thread and
/// merge the results.
fn phase(links: &mut [Link], addrs: &[Vec<u32>], pairs_per_s: f64, secs: f64, traced: bool) -> Gen {
    let per_conn = pairs_per_s / links.len() as f64;
    let gens: Vec<Gen> = std::thread::scope(|s| {
        let handles: Vec<_> = links
            .iter_mut()
            .zip(addrs)
            .map(|(link, a)| s.spawn(move || generate(link, a, per_conn, secs, traced)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator panicked")).collect()
    });
    let mut all = Gen::default();
    for g in gens {
        all.sent += g.sent;
        all.failed += g.failed;
        all.errors.extend(g.errors);
        for (into, from) in [
            (&mut all.lat_us, g.lat_us),
            (&mut all.query_us, g.query_us),
            (&mut all.report_us, g.report_us),
            (&mut all.lag_us, g.lag_us),
        ] {
            into.seen += from.seen;
            into.v.extend(from.v);
        }
        all.end_lag_us = all.end_lag_us.max(g.end_lag_us);
        trace::merge(&mut all.table, &g.table);
        all.allocs += g.allocs;
    }
    all.sort();
    all
}

/// Closed loop on this thread for `secs`: one batch of [`BATCH`] pairs
/// in flight at a time, written in one `write`, taking the connections
/// in turn. Each pair reports the RTT its slot measured in the previous
/// batch on that connection.
///
/// With one pair per round trip a run measures mostly thread wake-ups;
/// with a few pairs in flight unbatched, it measures how the server's
/// wake-ups happened to group them. A fixed batch read in one go makes
/// the server's per-request work dominate.
fn closed_loop(links: &mut [Link], addrs: &[Vec<u32>], secs: f64) -> Gen {
    let mut g = Gen::default();
    let mut rng = SplitMix64::new(0x5a3b);
    let mut buf = Vec::with_capacity(BATCH * 32);
    let mut rtt_us = vec![[1_000u32; BATCH]; links.len()];
    let start = Instant::now();
    let mut k = 0;
    'run: while start.elapsed().as_secs_f64() < secs {
        let c = k % links.len();
        let base = k / links.len() * BATCH;
        buf.clear();
        for (j, &rtt) in rtt_us[c].iter().enumerate() {
            push_pair(&mut buf, addrs[c][(base + j) % addrs[c].len()], rtt);
        }
        let sent = Instant::now();
        g.sent += BATCH as u64;
        if let Err(e) = links[c].write(&buf) {
            g.failed += BATCH as u64;
            g.errors.push(e);
            break;
        }
        for (j, slot) in rtt_us[c].iter_mut().enumerate() {
            match links[c].recv() {
                Ok((t_report, t_answer, _)) => {
                    g.report_us.push((t_report - sent).as_secs_f64() * 1e6, &mut rng);
                    g.query_us.push((t_answer - sent).as_secs_f64() * 1e6, &mut rng);
                    *slot = (t_answer - sent).as_micros().min(u128::from(u32::MAX)) as u32;
                }
                Err(e) => {
                    g.failed += (BATCH - j) as u64;
                    g.errors.push(e);
                    break 'run;
                }
            }
        }
        k += 1;
    }
    g.sort();
    g
}

/// A started server with its connections.
struct Rig {
    server: ServerHandle,
    links: Vec<Link>,
    /// Hash of the warm-up answers (deterministic for one seed).
    warmup_hash: u64,
    /// Pairs sent before the measured phases.
    warmup_pairs: u64,
}

/// Set-up: start the server, connect, one round trip per connection —
/// timed — then the sequential warm-up.
fn setup(seed: u64) -> Result<(Rig, f64), String> {
    let t0 = Instant::now();
    let cfg = ServerCfg::builder()
        .shards(1)
        .policy(PolicyKind::CodelQuantile)
        .build()
        .map_err(|e| format!("server config: {e}"))?;
    let server = server::start(beware_bench::simserve::campaign_oracle(), "127.0.0.1:0", cfg)
        .map_err(|e| format!("server start: {e}"))?;
    let mut buf = Vec::new();
    let connected = (0..CONNS)
        .map(|_| {
            let mut link =
                Link::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
            link.pair(&mut buf, 0x0a00_0001, 1_000)?;
            Ok(link)
        })
        .collect::<Result<Vec<Link>, String>>();
    let setup_s = t0.elapsed().as_secs_f64();
    let warmed =
        connected.and_then(|mut links| warm_up(seed, &mut links, &mut buf).map(|h| (links, h)));
    match warmed {
        Ok((links, warmup_hash)) => {
            let warmup_pairs = (CONNS * (WARMUP_PAIRS + 1)) as u64;
            Ok((Rig { server, links, warmup_hash, warmup_pairs }, setup_s))
        }
        Err(e) => {
            server.shutdown();
            server.join();
            Err(e)
        }
    }
}

/// Deterministic warm-up: one connection at a time, seeded addresses and
/// reported RTTs, so the policy state and every answer depend on the
/// seed only. Returns a hash of the answers.
fn warm_up(seed: u64, links: &mut [Link], buf: &mut Vec<u8>) -> Result<u64, String> {
    let mut h = crate::report::FNV0;
    let mut rng = SplitMix64::new(derive_seed(seed, 0x3a7));
    for (c, link) in links.iter_mut().enumerate() {
        for addr in addresses(seed, 10 + c, WARMUP_PAIRS) {
            let rtt = 500 + (rng.next_u64() % 200_000) as u32;
            let (_, _, bits) = link.pair(buf, addr, rtt)?;
            h = crate::report::fnv(h, &bits.to_le_bytes());
        }
    }
    Ok(h)
}

/// Set up [`SETUPS`] times, keeping the last rig; checks that every
/// warm-up hashed the same.
fn setups(seed: u64, out: &mut Outcome) -> Option<Rig> {
    let cpu = placement::pin_last_cpu();
    out.note(
        "placement",
        cpu.map_or("unpinned".to_string(), |c| format!("every thread on CPU {c}")),
    );
    let (mut times, mut hashes, mut kept) = (Vec::new(), Vec::new(), None);
    for i in 0..SETUPS {
        match setup(seed) {
            Ok((rig, s)) => {
                times.push(s);
                hashes.push(rig.warmup_hash);
                if i + 1 < SETUPS {
                    rig.server.shutdown();
                    rig.server.join();
                } else {
                    kept = Some(rig);
                }
            }
            Err(e) => {
                out.check("setup", false, e);
                return None;
            }
        }
    }
    out.metric("setup_s", median(&times));
    out.check(
        "summary_stable",
        hashes.windows(2).all(|w| w[0] == w[1]),
        format!("{SETUPS} fresh servers, warm-up answer hashes {hashes:x?}"),
    );
    kept
}

/// Check the server saw exactly the frames sent and return its telemetry.
fn finish(rig: Rig, pairs: u64, out: &mut Outcome) -> beware_telemetry::Registry {
    let Rig { server, links, warmup_pairs, .. } = rig;
    drop(links);
    server.shutdown();
    let reg = server.join();
    let pairs = pairs + warmup_pairs;
    let (q, r) = (
        reg.counter("serve/queries").unwrap_or(0),
        reg.counter("serve/report_requests").unwrap_or(0),
    );
    out.check(
        "replies_match_requests",
        q == pairs && r == pairs,
        format!("server counted {q} queries and {r} reports for {pairs} pairs sent"),
    );
    reg
}

fn account(out: &mut Outcome, g: &Gen, what: &str) {
    out.attempted += 2 * g.sent;
    out.failed += 2 * g.failed;
    if !g.errors.is_empty() {
        out.check(&format!("{what}_replies"), false, g.errors.join("; "));
    }
}

/// End-to-end: set-ups, then a closed loop for the window.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let Some(mut rig) = setups(args.seed, &mut out) else { return out };
    let addrs: Vec<Vec<u32>> = (0..CONNS).map(|c| addresses(args.seed, c, 1 << 16)).collect();
    let cpu0 = crate::report::cpu_s();
    let t0 = Instant::now();
    let g = closed_loop(&mut rig.links, &addrs, args.seconds);
    let wall = t0.elapsed().as_secs_f64();
    let cpu = crate::report::cpu_s() - cpu0;
    account(&mut out, &g, "closed_loop");
    finish(rig, g.sent, &mut out);
    out.note(
        "closed_loop",
        format!(
            "{wall:.3} s: {} pairs, pair latency p50 {:.1} us p99 {:.1} us \
             (uniform sample of {} of {} pairs, {} beyond p99)",
            g.sent,
            quantile(&g.query_us.v, 0.5),
            quantile(&g.query_us.v, 0.99),
            g.query_us.v.len(),
            g.query_us.seen,
            g.query_us.v.len() / 100
        ),
    );
    // Requests: a pair is a REPORT and a QUERY.
    let requests = (2 * g.sent) as f64;
    out.metric("ops_per_s", requests / wall);
    out.metric("cpu_us_per_op", cpu * 1e6 / requests);
    out.metric("lat_p50_us", quantile(&g.query_us.v, 0.5));
    out
}

/// The open-loop ladder: climb until a rung misses the limit or the
/// budget runs out; returns the highest passing rate in pairs/s.
fn ladder(rig: &mut Rig, addrs: &[Vec<u32>], budget_s: f64, out: &mut Outcome) -> (f64, u64) {
    let (mut best, mut pass, mut pairs) = (0.0f64, None::<(f64, f64)>, 0);
    let mut rate = LADDER_START;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() + LADDER_RUNG_S <= budget_s {
        let g = phase(&mut rig.links, addrs, rate, LADDER_RUNG_S, false);
        account(out, &g, "ladder");
        pairs += g.sent;
        let p99 = quantile(&g.lat_us.v, 0.99);
        let ok = g.failed == 0 && p99 <= SLO_P99_US && g.end_lag_us <= BACKLOG_BOUND_US;
        out.note(
            &format!("rung {rate:.0} pairs/s"),
            format!(
                "p99 {p99:.0} us (n = {}), end lag {:.0} us, failed {}: {}",
                g.lat_us.seen,
                g.end_lag_us,
                g.failed,
                if ok { "pass" } else { "miss" }
            ),
        );
        if !ok {
            // Interpolate where p99 crosses the limit between the last
            // passing rung and this one; a miss on failures or backlog
            // keeps the passing rung.
            if let Some((r0, p0)) = pass {
                if g.failed == 0 && g.end_lag_us <= BACKLOG_BOUND_US && p99 > p0 {
                    best = r0 + (rate - r0) * ((SLO_P99_US - p0) / (p99 - p0)).clamp(0.0, 1.0);
                }
            }
            break;
        }
        best = rate;
        pass = Some((rate, p99));
        rate *= LADDER_STEP;
    }
    out.note(
        "slo",
        format!("p99 pair latency <= {SLO_P99_US} us, end-of-rung lag <= {BACKLOG_BOUND_US} us, no failures"),
    );
    (best, pairs)
}

/// Traced: the open-loop fixed-rate phase untraced, then traced, then
/// the rate ladder.
pub fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let Some(mut rig) = setups(args.seed, &mut out) else { return out };
    let addrs: Vec<Vec<u32>> = (0..CONNS).map(|c| addresses(args.seed, c, 1 << 16)).collect();
    let secs = args.seconds * 0.2;
    let t0 = Instant::now();
    let plain = phase(&mut rig.links, &addrs, FIXED_PAIRS_PER_S, secs, false);
    let plain_wall = t0.elapsed().as_secs_f64();
    alloc::set_counting(true);
    let t0 = Instant::now();
    let timed = phase(&mut rig.links, &addrs, FIXED_PAIRS_PER_S, secs, true);
    let traced_wall = t0.elapsed().as_secs_f64();
    alloc::set_counting(false);
    account(&mut out, &plain, "plain");
    account(&mut out, &timed, "traced");
    let lag_p99 = quantile(&plain.lag_us.v, 0.99);
    out.check(
        "generator_kept_up",
        lag_p99 <= LAG_BOUND_US,
        format!(
            "p99 send lag {lag_p99:.0} us at {FIXED_PAIRS_PER_S} pairs/s (bound {LAG_BOUND_US} us)"
        ),
    );
    out.note(
        "fixed_rate",
        format!(
            "{FIXED_PAIRS_PER_S} pairs/s over {CONNS} connections: pair latency from due time \
             p50 {:.1} us p99 {:.1} us (uniform sample of {} of {} pairs, {} beyond p99), \
             send lag p50 {:.1} us p99 {lag_p99:.1} us",
            quantile(&plain.lat_us.v, 0.5),
            quantile(&plain.lat_us.v, 0.99),
            plain.lat_us.v.len(),
            plain.lat_us.seen,
            plain.lat_us.v.len() / 100,
            quantile(&plain.lag_us.v, 0.5),
        ),
    );
    let (best, ladder_pairs) = ladder(&mut rig, &addrs, args.seconds * 0.5, &mut out);
    out.note("max_rate_at_slo", format!("{best:.0} pairs/s (0: not even the first rung passed)"));
    let reg = finish(rig, plain.sent + timed.sent + ladder_pairs, &mut out);

    out.overhead(plain_wall, traced_wall);
    out.note("sum_check_denominator", "connections x traced wall");
    out.spans(&timed.table, traced_wall * CONNS as f64);
    let ns = |name: &str| timed.table.get(name).map_or(0.0, trace::SpanStats::ns_per_call);
    let requests = reg.counter("serve/requests").unwrap_or(0) as f64;
    let wakeups = reg.counter("sched/serve/epoll_wakeups").unwrap_or(0) as f64;
    let spurious = reg.counter("sched/serve/spurious_wakeups").unwrap_or(0) as f64;
    out.note(
        "server_registry",
        format!("requests {requests}, epoll wakeups {wakeups}, spurious {spurious}"),
    );
    out.metric(
        "runtime.reactor.wakeups_per_req",
        if requests > 0.0 { wakeups / requests } else { 0.0 },
    );
    out.metric(
        "runtime.reactor.spurious_ratio",
        if wakeups > 0.0 { spurious / wakeups } else { 0.0 },
    );
    out.metric("serve.client.write_ns", ns("serve.client.write"));
    out.metric("serve.client.read_ns", ns("serve.client.read"));
    out.metric("serve.fixed_lat_p50_us", quantile(&plain.lat_us.v, 0.5));
    out.metric("serve.fixed_lat_p99_us", quantile(&plain.lat_us.v, 0.99));
    out.metric("serve.max_rps_at_slo", 2.0 * best);
    out.metric("serve.query_lat_p50_us", quantile(&plain.query_us.v, 0.5));
    out.metric("serve.report_lat_p50_us", quantile(&plain.report_us.v, 0.5));
    out.metric("serve.client.send_lag_us", lag_p99);
    out.metric("policy.reports", reg.counter("serve/report_requests").unwrap_or(0) as f64);
    out.metric("alloc.per_request", timed.allocs as f64 / (2 * timed.sent) as f64);
    out
}
