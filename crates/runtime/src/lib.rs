//! # beware-runtime
//!
//! The runtime substrate every layer above the simulator shares: **one
//! clock, one RNG, one deadline scheduler**.
//!
//! The paper's central finding is that realistic timeouts stretch to
//! 5–145 s. Code that handles such timeouts can only be tested honestly
//! if time itself is an injectable dependency — otherwise every test of a
//! 145 s stall costs 145 s of wall clock, so the tests are never written
//! and the timeout logic goes unexercised (exactly the failure mode
//! Jain's divergence analysis warns about). This crate supplies the three
//! seams that make the serving and chaos layers time-testable:
//!
//! * [`Clock`] — a monotonic time source with two implementations:
//!   [`WallClock`] (thin wrapper over [`std::time::Instant`]) and
//!   [`VirtualClock`], a deterministic, manually-advanced clock whose
//!   `sleep` advances simulated time instead of parking the thread. A
//!   seeded fault schedule spanning simulated minutes replays in
//!   milliseconds under it.
//! * [`rng`] — the canonical SplitMix64 stream generator and
//!   seed-derivation finalizer. This is the **only** implementation in
//!   the workspace; `beware-netsim`, `beware-faultsim` and
//!   `beware-serve` all re-export or delegate to it, with equivalence
//!   tests pinning the streams to the retired private copies.
//! * [`DeadlineWheel`] — the one deadline scheduler: a slab of
//!   generation-stamped slots under a monotone radix heap of plain
//!   integers, handing out
//!   [`TimerKey`]s for cancellation with no hashing on any path. netsim's
//!   event queue runs on it, as do the oracle server's shards (idle
//!   eviction, reload polls) and the chaos proxy (deferred delayed
//!   chunks).
//! * [`reactor`] — readiness-driven I/O: a minimal epoll reactor (with
//!   its own `extern "C"` glibc bindings — the build is hermetic, so no
//!   `mio`/`libc`), so the serve path blocks on *I/O or the next wheel
//!   deadline* instead of napping on a fixed interval.
//! * [`Slot`] — the epoch-swapped publication slot behind zero-downtime
//!   state swaps: writers publish an immutable `Arc`, per-shard
//!   [`SlotReader`]s see it with a single acquire load. The serve path
//!   uses it for oracle snapshots, the policy subsystem for published
//!   estimator tables.
//! * [`IntMap`] — a `HashMap` under [`IntHasher`], an unkeyed Fx-style
//!   multiply-rotate hasher, for integer keys the simulator generates
//!   itself: netsim's block tables, block cache, host table and link
//!   queues. It has no secret key, so whoever picks the keys can pick
//!   colliding ones, so a map keyed by what a peer sends must keep std's
//!   keyed SipHash.
//!
//! Determinism contract: under a [`VirtualClock`] every timestamp a
//! component observes is a pure function of its inputs and seeds — no
//! kernel scheduling, no wall time. See DESIGN.md §10.
//!
//! Unsafe policy (DESIGN.md §11): this crate is `#![deny(unsafe_code)]`
//! with a single `#[allow]` on the private `sys` module, whose safe
//! wrappers are the only FFI surface in the workspace; every other crate
//! keeps `#![forbid(unsafe_code)]`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod hash;
pub mod reactor;
pub mod rng;
pub mod swap;
#[cfg(target_os = "linux")]
mod sys;
pub mod wheel;

pub use clock::{process_cpu_time, Clock, SharedClock, VirtualClock, WallClock};
pub use hash::{IntHasher, IntMap};
#[cfg(target_os = "linux")]
pub use reactor::EpollReactor;
pub use reactor::{round_wait_up_to_ms, Event, Interest, StopSignal, Waker};
pub use rng::{derive_seed, unit_hash, SplitMix64};
pub use swap::{Slot, SlotReader};
pub use wheel::{DeadlineWheel, TimerKey};
