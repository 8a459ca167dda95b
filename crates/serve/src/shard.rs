//! One shard's clock-driven bookkeeping, with no I/O of its own.
//!
//! A [`Shard`] owns a set of connections over any [`Transport`] and every
//! deadline it owes them: the per-connection idle bound, shard 0's reload
//! poll and the shutdown drain bound, all on one [`DeadlineWheel`]. It
//! reads time from the [`SharedClock`] its [`Engine`] was built with and
//! never waits, sleeps or touches a reactor. A driver feeds it:
//!
//! * [`adopt`](Shard::adopt) a new connection;
//! * [`ready`](Shard::ready) when a connection's transport can move bytes;
//! * [`tick`](Shard::tick) to fire due deadlines and reap closed
//!   connections. It answers [`Tick::Wait`] with the next deadline the
//!   shard owns, or [`Tick::Done`] once a shutdown has drained.
//!
//! The socket server's epoll thread is one such driver: it registers each
//! adopted socket, waits until I/O or the deadline `tick` returned, and
//! re-registers interest through [`sync_interest`](Shard::sync_interest).
//! A test is another: it steps a
//! [`VirtualClock`](beware_runtime::VirtualClock) straight to each
//! deadline, so an hour of idle bound costs no sockets, threads or
//! sleeps.

use crate::engine::{Conn, Engine, Transport};
use crate::server::ServerCfg;
use beware_runtime::clock::SharedClock;
use beware_runtime::reactor::Interest;
use beware_runtime::wheel::{DeadlineWheel, TimerKey};
use beware_telemetry::Registry;
use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// What a deadline on the shard's wheel is for.
#[derive(Debug, Clone, Copy)]
enum Due {
    /// Connection `id`'s idle bound.
    Idle(u64),
    /// Shard 0's reload poll.
    Reload,
}

/// A held connection and the key of its pending idle deadline.
struct Held<T> {
    conn: Conn<T>,
    idle: TimerKey,
}

/// What a driver should do after [`Shard::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tick {
    /// Wait for I/O until this clock time, the shard's next deadline.
    /// `None`: the shard owes nothing, so wait for I/O alone.
    Wait(Option<Duration>),
    /// Shutdown was requested and every backlog drained (or the drain
    /// bound passed): stop driving the shard.
    Done,
}

/// One shard's connections, deadlines and telemetry. See the module docs.
pub struct Shard<T> {
    engine: Engine,
    clock: SharedClock,
    reg: Registry,
    conns: HashMap<u64, Held<T>>,
    /// Every deadline this shard owes: each connection's idle bound
    /// (its key held beside the connection) and the reload poll. Its
    /// next deadline, capped by the drain bound, is what
    /// [`tick`](Shard::tick) returns.
    wheel: DeadlineWheel<Due>,
    next_id: u64,
    idle_timeout: Duration,
    drain_timeout: Duration,
    reload_poll: Option<Duration>,
    /// Set when the stop signal is first observed: replies already
    /// queued (the `ShutdownAck` above all) get a bounded chance to
    /// drain.
    drain_deadline: Option<Duration>,
    /// Connections whose wanted interest may differ from the one the
    /// driver registered.
    dirty: Vec<u64>,
}

impl<T: Transport> Shard<T> {
    /// Shard number `index` of a server configured by `cfg`, answering
    /// through `engine`. Only shard 0 polls the reload source.
    pub fn new(mut engine: Engine, cfg: &ServerCfg, index: usize) -> Shard<T> {
        let clock = Arc::clone(engine.clock());
        let mut reg = if cfg.metrics { Registry::new() } else { Registry::disabled() };
        // The gauge exists on every shard so the merged export is
        // identical whichever shard (if any) ends up handling a reload.
        reg.scope("oracle").gauge_max("snapshot_version", engine.snapshot_version());
        let reload_poll = cfg.reload_poll.filter(|_| index == 0);
        let mut wheel = DeadlineWheel::new();
        if let Some(period) = reload_poll {
            wheel.insert(clock.now() + period, Due::Reload);
        }
        Shard {
            engine,
            clock,
            reg,
            conns: HashMap::new(),
            wheel,
            next_id: 0,
            idle_timeout: cfg.idle_timeout,
            drain_timeout: cfg.drain_timeout,
            reload_poll,
            drain_deadline: None,
            dirty: Vec::new(),
        }
    }

    /// Take ownership of a new connection and start its idle deadline.
    /// Returns its id, which is also the driver's registration token.
    /// The connection starts out wanting [`Interest::READABLE`].
    pub fn adopt(&mut self, transport: T) -> u64 {
        self.reg.scope("sched").scope("serve").incr("connections_assigned");
        let id = self.next_id;
        self.next_id += 1;
        let idle = self.wheel.insert(self.clock.now() + self.idle_timeout, Due::Idle(id));
        self.conns.insert(id, Held { conn: Conn::new(id, transport), idle });
        id
    }

    /// The transport of connection `id` can move bytes: service reads
    /// (unless draining) and flush the output queue. Read activity
    /// pushes the idle deadline out. Returns whether any byte moved.
    pub fn ready(&mut self, id: u64, readable: bool, writable: bool) -> bool {
        let draining = self.drain_deadline.is_some();
        let Some(Held { conn, idle }) = self.conns.get_mut(&id) else { return false };
        let mut progress = false;
        if readable && !draining {
            progress |= self.engine.service(conn, &mut self.reg);
        }
        if conn.open && (writable || conn.backlog() > 0) {
            progress |= self.engine.flush(conn, &mut self.reg);
        }
        if conn.touched {
            conn.touched = false;
            self.wheel.cancel(*idle);
            *idle = self.wheel.insert(self.clock.now() + self.idle_timeout, Due::Idle(id));
        }
        if conn.desired_interest(draining) != conn.interest {
            self.dirty.push(id);
        }
        progress
    }

    /// Close connection `id` because its driver lost track of it (a
    /// failed registration). Counted under `faults/serve/reactor_lost`;
    /// the next [`tick`](Shard::tick) reaps it.
    pub fn lose(&mut self, id: u64) {
        if let Some(held) = self.conns.get_mut(&id) {
            self.reg.scope("faults").scope("serve").incr("reactor_lost");
            held.conn.open = false;
        }
    }

    /// Hand every open connection whose wanted interest changed to
    /// `apply` (transport, id, new interest): readable while it may
    /// still send requests, writable exactly while it has a backlog. A
    /// failed `apply` closes the connection as [`lose`](Shard::lose)
    /// does.
    pub fn sync_interest(&mut self, mut apply: impl FnMut(&T, u64, Interest) -> io::Result<()>) {
        let draining = self.drain_deadline.is_some();
        for id in self.dirty.drain(..) {
            let Some(Held { conn, .. }) = self.conns.get_mut(&id) else { continue };
            let want = conn.desired_interest(draining);
            if !conn.open || want == conn.interest {
                continue;
            }
            match apply(conn.transport(), id, want) {
                Ok(()) => conn.interest = want,
                Err(_) => {
                    self.reg.scope("faults").scope("serve").incr("reactor_lost");
                    conn.open = false;
                }
            }
        }
    }

    /// Fire every due deadline and reap closed connections.
    ///
    /// The first tick after the stop signal starts the drain bound and
    /// stops reading everywhere: a flooding peer must not keep waking a
    /// shard that will never answer it again. A silent peer is closed
    /// once its idle deadline passes, whether it went quiet or stopped
    /// draining replies — bounded listen, applied to ourselves.
    pub fn tick(&mut self) -> Tick {
        let now = self.clock.now();
        self.reg.scope("sched").scope("serve").gauge_max("conns_open", self.conns.len() as u64);

        if self.drain_deadline.is_none() && self.engine.stop_requested() {
            self.drain_deadline = Some(now + self.drain_timeout);
            self.dirty.extend(self.conns.keys().copied());
        }

        while let Some((due, _)) = self.wheel.pop_expired(now) {
            let id = match due {
                Due::Reload => {
                    self.reg.scope("sched").scope("serve").incr("reload_polls");
                    self.engine.poll_reload(&mut self.reg);
                    if let Some(period) = self.reload_poll {
                        self.wheel.insert(now + period, Due::Reload);
                    }
                    continue;
                }
                Due::Idle(id) => id,
            };
            if let Some(Held { conn, .. }) = self.conns.get_mut(&id) {
                if conn.open {
                    self.reg.scope("sched").scope("serve").incr("idle_closed");
                    conn.open = false;
                }
            }
        }
        let wheel = &mut self.wheel;
        self.conns.retain(|_, held| {
            if !held.conn.open {
                wheel.cancel(held.idle);
            }
            held.conn.open
        });

        let next = self.wheel.next_deadline();
        match self.drain_deadline {
            None => Tick::Wait(next),
            Some(deadline)
                if now >= deadline || self.conns.values().all(|h| h.conn.backlog() == 0) =>
            {
                Tick::Done
            }
            Some(deadline) => Tick::Wait(Some(next.map_or(deadline, |n| n.min(deadline)))),
        }
    }

    /// Whether connection `id` is still held (not yet reaped).
    pub fn contains(&self, id: u64) -> bool {
        self.conns.contains_key(&id)
    }

    /// The shard's telemetry, for counters its driver owns.
    pub(crate) fn registry(&mut self) -> &mut Registry {
        &mut self.reg
    }

    /// Finish: the shard's telemetry, to merge in shard order.
    pub fn into_registry(self) -> Registry {
        self.reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_snapshot, SnapshotCfg};
    use crate::engine::{channel_pair, ChannelTransport, EngineCore};
    use crate::oracle::Oracle;
    use crate::proto::{self, Message};
    use beware_core::percentile::LatencySamples;
    use beware_runtime::clock::{Clock, VirtualClock};
    use beware_runtime::reactor::StopSignal;
    use std::collections::BTreeMap;

    const MINUTE: Duration = Duration::from_secs(60);

    fn test_oracle() -> Oracle {
        let mut blocks = BTreeMap::new();
        blocks.insert(0x0a000001u32, LatencySamples::from_values(vec![0.05; 50]));
        let cfg = SnapshotCfg { min_addresses: 1, ..SnapshotCfg::default() };
        Oracle::from_snapshot(build_snapshot(&blocks, &cfg).unwrap()).unwrap()
    }

    /// A one-shard server on `vc` with a 60-minute idle bound.
    fn shard_on(vc: &VirtualClock) -> Shard<ChannelTransport> {
        let core = EngineCore::new(test_oracle(), Arc::new(StopSignal::new()), None, None);
        let cfg = ServerCfg::builder().shards(1).idle_timeout(60 * MINUTE).build().unwrap();
        Shard::new(core.engine(vc.handle(), cfg.out_queue_cap), &cfg, 0)
    }

    /// Step `vc` to each deadline `tick` returns until `id` is reaped.
    fn run_until_reaped(shard: &mut Shard<ChannelTransport>, vc: &VirtualClock, id: u64) {
        loop {
            let tick = shard.tick();
            if !shard.contains(id) {
                return;
            }
            match tick {
                Tick::Wait(Some(at)) => vc.advance(at.saturating_sub(vc.now())),
                other => panic!("connection {id} still held, but tick said {other:?}"),
            }
        }
    }

    #[test]
    fn a_query_every_59_minutes_keeps_a_connection_for_ten_hours() {
        let vc = VirtualClock::new();
        let mut shard = shard_on(&vc);
        let (transport, peer) = channel_pair();
        let id = shard.adopt(transport);
        let query = proto::encode(&Message::Query {
            addr: 0x0a000001,
            addr_pct_tenths: 500,
            ping_pct_tenths: 500,
        });

        let mut last_read = vc.now();
        while vc.now() < 10 * 60 * MINUTE {
            assert_eq!(shard.tick(), Tick::Wait(Some(last_read + 60 * MINUTE)));
            vc.advance(59 * MINUTE);
            assert_eq!(shard.tick(), Tick::Wait(Some(last_read + 60 * MINUTE)));
            assert!(shard.contains(id), "evicted at {:?} with a read 59 min ago", vc.now());
            peer.send(&query);
            assert!(shard.ready(id, true, true));
            last_read = vc.now();
        }
        assert!(peer.pending() > 0, "the queries were answered");

        run_until_reaped(&mut shard, &vc, id);
        assert_eq!(vc.now(), last_read + 60 * MINUTE, "evicted exactly one idle bound after");
        let reg = shard.into_registry();
        assert_eq!(reg.counter("sched/serve/idle_closed"), Some(1));
        assert_eq!(reg.counter("serve/queries"), Some(11));
    }

    #[test]
    fn a_reaped_connection_leaves_no_wheel_entry() {
        let vc = VirtualClock::new();
        let mut shard = shard_on(&vc);
        let (idle, _idle_peer) = channel_pair();
        let (closing, closing_peer) = channel_pair();
        let idle_id = shard.adopt(idle);
        let closing_id = shard.adopt(closing);

        // A peer hang-up closes its connection long before the idle
        // bound; reaping it must cancel that still-pending deadline.
        vc.advance(MINUTE);
        closing_peer.close();
        shard.ready(closing_id, true, false);
        let closing_key = shard.conns[&closing_id].idle;
        assert!(shard.wheel.deadline_of(closing_key).is_some());
        assert_eq!(shard.tick(), Tick::Wait(Some(60 * MINUTE)));
        assert!(!shard.contains(closing_id));
        assert_eq!(shard.wheel.deadline_of(closing_key), None);

        let idle_key = shard.conns[&idle_id].idle;
        run_until_reaped(&mut shard, &vc, idle_id);
        assert_eq!(shard.wheel.deadline_of(idle_key), None);
        assert!(shard.wheel.is_empty(), "nothing left to wake for");
        assert_eq!(shard.tick(), Tick::Wait(None));
    }
}
