//! # cnp-sim — the cut-and-paste thread scheduler and simulation kernel
//!
//! This crate is the Rust rendition of the paper's *thread scheduler*
//! component: "The thread scheduler implements threads, synchronization
//! primitives and real or virtual time." (Bosch & Mullender, USENIX '96,
//! §2.)
//!
//! Simulated threads are plain Rust futures driven by a deterministic,
//! single-threaded discrete-event executor:
//!
//! * **Virtual time** jumps straight to the next timer when every task
//!   is blocked. It is the one clock: the off-line simulator (Patsy) runs
//!   on it, and so does the on-line file system (PFS), whose `pfs` binary
//!   drives the same kernel over a host file that stores real bytes.
//!
//! The one scheduling policy is the paper's **random scheduling**,
//! seeded and therefore replayable. A task becomes runnable only when
//! the kernel makes it so: a primitive's grant or signal, a timer, a
//! join or a spawn. Tasks are polled with a no-op `std::task::Waker`,
//! so a future that waits only on the std `Waker` it was polled with is
//! never woken, and the run ends in a deadlock.
//!
//! ## Example
//!
//! ```
//! use cnp_sim::{Event, Sim, SimDuration};
//!
//! let sim = Sim::new(1);
//! let h = sim.handle();
//! let ready = Event::new(&h);
//!
//! let (h2, ready2) = (h.clone(), ready.clone());
//! h.spawn("disk", async move {
//!     h2.sleep(SimDuration::from_millis(12)).await; // Seek + rotate.
//!     ready2.signal();
//! });
//!
//! let (h3, ready3) = (h.clone(), ready.clone());
//! h.spawn("client", async move {
//!     ready3.wait().await;
//!     assert_eq!(h3.now().as_millis(), 12);
//! });
//!
//! sim.run();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cells;
mod combinator;
mod executor;
pub mod stats;
pub mod sync;
mod time;

pub use cells::run_cells;
pub use combinator::{for_each_limit, join_all, JoinAll};
pub use executor::{Handle, JoinHandle, KernelCounts, RunResult, Sim, Sleep, TaskId, YieldNow};
pub use sync::{
    channel, Event, LockStats, Permit, Receiver, Replies, ReplyReceiver, ReplySender, Resource,
    ResourceGuard, Semaphore, SendError, Sender, ShardedMutex, TrackedMutex, TrackedMutexGuard,
};
pub use time::{SimDuration, SimTime};
