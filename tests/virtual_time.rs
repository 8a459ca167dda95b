//! Virtual-time suite: the paper's surprisingly high delays — 5 s tails,
//! 145 s stalls — replayed against the timeout stack in milliseconds of
//! wall clock. Every test here injects a
//! [`VirtualClock`](beware::runtime::VirtualClock) and exercises a
//! timeout path that would otherwise cost minutes of real waiting: a
//! multi-minute chaos delay schedule, the server's hour-scale idle
//! eviction, the shutdown drain deadline against a peer that never
//! reads, client poisoning after a simulated `read_timeout`, and the
//! connect-retry deadline. No test sleeps for real; CI runs the whole
//! file under a tight wall-clock budget to keep it that way
//! (see `.github/workflows/ci.yml`).

use beware::analysis::percentile::LatencySamples;
use beware::faultsim::{FaultCfg, FaultyTransport};
use beware::runtime::{Clock, StopSignal, VirtualClock};
use beware::serve::proto;
use beware::serve::{
    build_snapshot, channel_pair, server, ChannelPeer, ChannelTransport, Client, ClientError,
    EngineCore, Message, Oracle, Shard, SnapshotCfg, Status, Tick, Transport,
};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// In-memory loopback transport: writes append, reads pop.
#[derive(Debug, Default)]
struct Loopback(VecDeque<u8>);

impl Write for Loopback {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.extend(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for Loopback {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.0.len());
        for b in buf.iter_mut().take(n) {
            *b = self.0.pop_front().unwrap();
        }
        Ok(n)
    }
}

/// A small hand-built snapshot — enough structure for the server to
/// answer fallback queries, cheap enough to build per test.
fn tiny_oracle() -> Arc<Oracle> {
    let mut samples = BTreeMap::new();
    for i in 0..8u32 {
        samples.insert(
            0x0a00_0100 + i,
            LatencySamples::from_values(vec![0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0]),
        );
    }
    let snap = build_snapshot(&samples, &SnapshotCfg::default()).unwrap();
    Arc::new(Oracle::from_snapshot(snap).unwrap())
}

/// Pump 256-byte writes through a delay-everything fault schedule until
/// more than 145 s of simulated delay have accumulated, then read it all
/// back (reads delay too). Returns the rendered fault counters, the
/// final virtual time and the write count — everything a replay must
/// reproduce byte for byte.
fn run_delay_schedule(seed: u64, stream: u64) -> (String, Duration, usize) {
    let vc = VirtualClock::new();
    let cfg = FaultCfg { delay_prob: 1.0, max_delay_ms: 2000, ..FaultCfg::disabled(seed) };
    let mut t = FaultyTransport::with_clock(Loopback::default(), cfg, stream, vc.handle());
    let payload = [0x5au8; 256];
    let mut writes = 0usize;
    while vc.now() <= Duration::from_secs(145) {
        let mut sent = 0;
        while sent < payload.len() {
            sent += t.write(&payload[sent..]).expect("a delay-only schedule never fails");
        }
        writes += 1;
        assert!(writes < 100_000, "schedule never accumulated 145 s of virtual delay");
    }
    let mut got = 0usize;
    let mut buf = [0u8; 512];
    loop {
        match t.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) => panic!("a delay-only schedule never fails reads: {e}"),
        }
    }
    assert_eq!(got, writes * payload.len(), "delays must not lose bytes");
    let (_, reg) = t.into_parts();
    (reg.render_text(), vc.now(), writes)
}

/// The headline act: seeded fault schedules spanning 145+ simulated
/// seconds each replay in milliseconds, byte-identically — across runs
/// and across serial vs. one-thread-per-schedule execution.
#[test]
fn long_chaos_schedules_replay_identically_without_wall_time() {
    let wall = Instant::now();
    let params: Vec<(u64, u64)> = (0..4).map(|s| (0xD1CE ^ s, s)).collect();

    let serial: Vec<_> =
        params.iter().map(|&(seed, stream)| run_delay_schedule(seed, stream)).collect();
    let rerun: Vec<_> =
        params.iter().map(|&(seed, stream)| run_delay_schedule(seed, stream)).collect();
    let threaded: Vec<_> = params
        .iter()
        .map(|&(seed, stream)| std::thread::spawn(move || run_delay_schedule(seed, stream)))
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("schedule thread panicked"))
        .collect();

    assert_eq!(serial, rerun, "same seeds must replay byte-identically");
    assert_eq!(serial, threaded, "thread count must not change a schedule");
    for (text, vtime, writes) in &serial {
        assert!(*vtime > Duration::from_secs(145), "only {vtime:?} simulated");
        assert!(*writes > 0);
        assert!(text.contains("faults/injected/delays"), "delays went uncounted:\n{text}");
    }
    assert!(
        wall.elapsed() < Duration::from_secs(2),
        "12 simulated multi-minute schedules took {:?} of wall clock",
        wall.elapsed()
    );
}

/// A one-shard server on `vc`: its engine and its [`Shard`], with no
/// listener, reactor or thread around them. The returned stop signal is
/// the one a `Shutdown` frame or `ServerHandle::shutdown` would raise.
fn shard_on<T: Transport>(
    vc: &VirtualClock,
    cfg: &server::ServerCfg,
) -> (Shard<T>, Arc<StopSignal>) {
    let stop = Arc::new(StopSignal::new());
    let core = EngineCore::new(tiny_oracle(), Arc::clone(&stop), None, cfg.reload_from.clone());
    (Shard::new(core.engine(vc.handle(), cfg.out_queue_cap), cfg, 0), stop)
}

/// Step `vc` straight to the deadline each tick returns, until the shard
/// is done or `until` says stop. Panics if the shard ever waits with
/// nothing owed, which would block a real driver forever.
fn step<T: Transport>(
    shard: &mut Shard<T>,
    vc: &VirtualClock,
    mut until: impl FnMut(&Shard<T>) -> bool,
) -> Tick {
    for _ in 0..10_000 {
        let tick = shard.tick();
        if tick == Tick::Done || until(shard) {
            return tick;
        }
        let Tick::Wait(Some(at)) = tick else { panic!("shard waits with nothing owed") };
        vc.advance(at.saturating_sub(vc.now()));
    }
    panic!("no progress after 10000 deadlines")
}

/// An hour-long idle timeout fires in microseconds: stepping the virtual
/// clock to the shard's deadline evicts the silent connection — bounded
/// listen, with no real hour, socket or thread anywhere.
#[test]
fn idle_eviction_fires_after_a_virtual_hour() {
    let vc = VirtualClock::new();
    let cfg = server::ServerCfg::builder()
        .shards(1)
        .idle_timeout(Duration::from_secs(3600))
        .drain_timeout(Duration::from_secs(5))
        .metrics(true)
        .build()
        .unwrap();
    let (mut shard, stop) = shard_on(&vc, &cfg);

    // Connect and go silent. The server must give up on us.
    let (transport, _peer) = channel_pair();
    let id = shard.adopt(transport);
    step(&mut shard, &vc, |s| !s.contains(id));
    assert!(
        vc.now() >= Duration::from_secs(3600),
        "evicted after only {:?} of virtual time",
        vc.now()
    );

    stop.request_stop();
    assert_eq!(shard.tick(), Tick::Done, "nothing left to drain");
    let metrics = shard.into_registry();
    assert_eq!(metrics.counter("sched/serve/idle_closed"), Some(1));
}

/// A peer that sends queries and never reads a reply: every write the
/// server attempts would block.
#[derive(Debug)]
struct NeverReads(VecDeque<u8>);

impl Transport for NeverReads {
    fn read_nb(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.0.is_empty() {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(self.0.len());
        for b in buf.iter_mut().take(n) {
            *b = self.0.pop_front().unwrap();
        }
        Ok(n)
    }

    fn write_nb(&mut self, _: &[u8]) -> io::Result<usize> {
        Err(io::ErrorKind::WouldBlock.into())
    }
}

/// The shutdown drain deadline measured on the virtual clock: a peer
/// that never reads a reply leaves a backlog that can never drain, so
/// the shard finishes only because 200 virtual seconds elapsed — not
/// because the peer relented (it never does), and without waiting 200
/// real seconds.
#[test]
fn shutdown_drain_deadline_elapses_in_virtual_time() {
    let vc = VirtualClock::new();
    let cfg = server::ServerCfg::builder()
        .shards(1)
        .idle_timeout(Duration::from_secs(7200))
        .drain_timeout(Duration::from_secs(200))
        .metrics(true)
        .build()
        .unwrap();
    let (mut shard, stop) = shard_on(&vc, &cfg);

    let frame = proto::encode(&Message::Query {
        addr: 0x0a00_0001,
        addr_pct_tenths: 950,
        ping_pct_tenths: 950,
    });
    let queries = frame.iter().copied().cycle().take(frame.len() * 64).collect();
    let id = shard.adopt(NeverReads(queries));
    assert!(shard.ready(id, true, true), "queries were read and answered");
    assert_eq!(shard.tick(), Tick::Wait(Some(Duration::from_secs(7200))));

    let t_shutdown = vc.now();
    stop.request_stop();
    assert_eq!(step(&mut shard, &vc, |_| false), Tick::Done);
    let drained_for = vc.now().saturating_sub(t_shutdown);
    assert!(
        drained_for >= Duration::from_secs(200),
        "finished after only {drained_for:?} of virtual drain — \
         the deadline cannot have fired"
    );
    let metrics = shard.into_registry();
    assert_eq!(
        metrics.counter("sched/serve/idle_closed"),
        Some(0),
        "the drain bound, not the two-hour idle bound, must end the shard"
    );
    assert!(
        metrics.counter("faults/serve/write_backpressure").unwrap_or(0) > 0,
        "the stalled peer never exerted backpressure — nothing was drained against"
    );
    assert!(metrics.counter("serve/queries").unwrap_or(0) > 0);
}

/// Scripted in-memory oracle: every request written is answered with one
/// canned `Answer` frame; flipping `fail_reads` makes the next read fail
/// the way a socket `read_timeout` does.
#[derive(Debug)]
struct ScriptedOracle {
    replies: VecDeque<u8>,
    answer: Vec<u8>,
    fail_reads: Arc<AtomicBool>,
}

impl Write for ScriptedOracle {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.replies.extend(self.answer.iter());
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for ScriptedOracle {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.fail_reads.load(Ordering::Relaxed) {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "scripted read_timeout"));
        }
        let n = buf.len().min(self.replies.len());
        for b in buf.iter_mut().take(n) {
            *b = self.replies.pop_front().unwrap();
        }
        Ok(n)
    }
}

/// The client rides out 145+ simulated seconds of injected delay without
/// consuming wall time, then a simulated `read_timeout` poisons the
/// connection exactly as a real one would: the failing call is a typed
/// `Io` error, every later call is `Poisoned`.
#[test]
fn client_survives_virtual_delays_then_poisons_on_timeout() {
    let wall = Instant::now();
    let vc = VirtualClock::new();
    let fail_reads = Arc::new(AtomicBool::new(false));
    let inner = ScriptedOracle {
        replies: VecDeque::new(),
        answer: proto::encode(&Message::Answer {
            status: Status::Fallback,
            timeout_bits: 5.0f64.to_bits(),
            prefix: 0,
            prefix_len: 0,
        }),
        fail_reads: Arc::clone(&fail_reads),
    };
    let cfg = FaultCfg { delay_prob: 1.0, max_delay_ms: 150_000, ..FaultCfg::disabled(0xbe0a) };
    let mut client =
        Client::from_transport(FaultyTransport::with_clock(inner, cfg, 0, vc.handle()));

    // Each round-trip eats several uniform(1..=150 s) injected delays;
    // keep querying until the schedule has cost more than the paper's
    // worst observed stall.
    let mut queries = 0usize;
    while vc.now() <= Duration::from_secs(145) {
        let ans = client.query(0x0a00_0001, 950, 950).expect("scripted oracle always answers");
        assert_eq!(ans.timeout_bits, 5.0f64.to_bits());
        queries += 1;
        assert!(queries < 100_000, "delays never accumulated 145 s");
    }
    assert!(!client.is_poisoned(), "slow is not broken: delays alone must not poison");

    fail_reads.store(true, Ordering::Relaxed);
    match client.query(0x0a00_0001, 950, 950) {
        Err(ClientError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::TimedOut),
        other => panic!("expected the scripted timeout, got {other:?}"),
    }
    assert!(client.is_poisoned());
    match client.query(0x0a00_0001, 950, 950) {
        Err(ClientError::Poisoned) => {}
        other => panic!("expected Poisoned on reuse, got {other:?}"),
    }
    assert!(
        wall.elapsed() < Duration::from_secs(2),
        "145+ simulated seconds cost {:?} of wall clock",
        wall.elapsed()
    );
}

/// `connect_retry`'s deadline arithmetic on a virtual clock: five
/// virtual minutes of refused connections resolve in well under five
/// real seconds, and the deadline is honored before the error surfaces.
#[test]
fn connect_retry_waits_out_a_virtual_deadline_instantly() {
    // A bound-then-dropped port refuses (almost certainly) every connect.
    let addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let vc = VirtualClock::with_min_step(Duration::from_secs(1));
    let clock = vc.handle();
    let wall = Instant::now();
    let out = Client::connect_retry_with_clock(
        addr,
        Duration::from_secs(1),
        Duration::from_secs(300),
        &clock,
    );
    assert!(out.is_err(), "nothing listens on a dropped port");
    assert!(
        vc.now() >= Duration::from_secs(300),
        "gave up after only {:?} of virtual time",
        vc.now()
    );
    assert!(
        wall.elapsed() < Duration::from_secs(5),
        "a 300 s virtual deadline cost {:?} of wall clock",
        wall.elapsed()
    );
}

/// Ask the shard for its snapshot info over an in-memory connection.
fn snapshot_info(shard: &mut Shard<ChannelTransport>, id: u64, peer: &ChannelPeer) -> Message {
    peer.send(&proto::encode(&Message::SnapshotInfo));
    assert!(shard.ready(id, true, true));
    let mut bytes = Vec::new();
    peer.drain(&mut bytes);
    let (reply, used) = proto::try_decode(&bytes).unwrap().expect("a complete reply");
    assert_eq!(used, bytes.len(), "one request, one reply");
    reply
}

/// A wheel-scheduled snapshot reload: `reload_poll` arms a deadline on
/// the shard's wheel, and stepping the virtual clock to it picks up the
/// source file and hot-swaps it after ten *virtual* minutes, with no
/// real sleep, socket or thread anywhere in server or test.
#[test]
fn scheduled_reload_fires_through_the_wheel_in_virtual_time() {
    let vc = VirtualClock::new();
    // The file the poller watches holds a different snapshot than the
    // one served at boot, so the first poll that fires must swap.
    let mut samples = BTreeMap::new();
    for i in 0..8u32 {
        samples.insert(
            0x0a00_0200 + i,
            LatencySamples::from_values(vec![0.02, 0.04, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0]),
        );
    }
    let next_snap = build_snapshot(&samples, &SnapshotCfg::default()).unwrap();
    let source = std::env::temp_dir().join(format!("beware-vt-reload-{}.bwts", std::process::id()));
    let mut buf = Vec::new();
    beware::dataset::snapshot::write_snapshot(&mut buf, &next_snap).unwrap();
    std::fs::write(&source, buf).unwrap();

    let cfg = server::ServerCfg::builder()
        .shards(1)
        .idle_timeout(Duration::from_secs(7200))
        .metrics(true)
        .reload_from(&source)
        .reload_poll(Duration::from_secs(600))
        .build()
        .unwrap();
    let (mut shard, stop) = shard_on(&vc, &cfg);
    let (transport, peer) = channel_pair();
    let id = shard.adopt(transport);
    assert!(matches!(
        snapshot_info(&mut shard, id, &peer),
        Message::SnapshotInfoReply { version: 1, .. }
    ));

    // Step to the first poll deadline: the connection's idle deadline is
    // two hours out, so the one that comes due first is the poll's.
    assert_eq!(
        step(&mut shard, &vc, |_| vc.now() >= Duration::from_secs(600)),
        Tick::Wait(Some(Duration::from_secs(1200)))
    );
    let Message::SnapshotInfoReply { version, checksum, .. } = snapshot_info(&mut shard, id, &peer)
    else {
        panic!("SnapshotInfo must be answered with its reply")
    };
    assert_eq!(version, 2, "the poll swapped exactly once");
    assert_eq!(checksum, beware::dataset::snapshot::snapshot_checksum(&next_snap));
    assert!(
        vc.now() >= Duration::from_secs(600),
        "poll fired after only {:?} of virtual time",
        vc.now()
    );

    stop.request_stop();
    assert_eq!(shard.tick(), Tick::Done);
    let metrics = shard.into_registry();
    std::fs::remove_file(&source).ok();
    assert!(metrics.counter("sched/serve/reload_polls").unwrap_or(0) >= 1, "wheel never ticked");
    assert_eq!(metrics.counter("oracle/reloads"), Some(1), "exactly one content change");
}
