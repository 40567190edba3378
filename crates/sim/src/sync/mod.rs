//! Synchronization primitives for simulated threads.

mod channel;
mod event;
mod resource;
mod semaphore;
mod sharded;

pub use channel::{
    channel, Receiver, Recv, Replies, ReplyReceiver, ReplySender, Send, SendError, Sender,
};
pub use event::{Event, EventWait};
pub use resource::{AcquireResource, Resource, ResourceGuard};
pub use semaphore::{Acquire, Permit, Semaphore};
pub use sharded::{LockStats, ShardedMutex, TrackedMutex, TrackedMutexGuard};
