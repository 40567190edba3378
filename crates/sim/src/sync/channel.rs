//! MPSC channels and reusable reply slots for simulated tasks.
//!
//! Drivers, simulated disks, and active files communicate through these,
//! mirroring the paper's I/O-request hand-off between driver and disk.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::executor::{Handle, TaskId};

/// Error returned when sending on a channel whose receiver is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError;

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel closed")
    }
}

impl std::error::Error for SendError {}

struct ChanInner<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
    recv_waiters: Vec<TaskId>,
}

/// Creates an unbounded MPSC channel.
pub fn channel<T>(handle: &Handle) -> (Sender<T>, Receiver<T>) {
    let inner = Rc::new(RefCell::new(ChanInner {
        queue: VecDeque::new(),
        senders: 1,
        receiver_alive: true,
        recv_waiters: Vec::new(),
    }));
    (
        Sender { handle: handle.clone(), inner: inner.clone() },
        Receiver { handle: handle.clone(), inner },
    )
}

/// Sending half of a channel; cloneable.
pub struct Sender<T> {
    handle: Handle,
    inner: Rc<RefCell<ChanInner<T>>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.borrow_mut().senders += 1;
        Sender { handle: self.handle.clone(), inner: self.inner.clone() }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let wake: Vec<TaskId> = {
            let mut inner = self.inner.borrow_mut();
            inner.senders -= 1;
            if inner.senders == 0 {
                std::mem::take(&mut inner.recv_waiters)
            } else {
                Vec::new()
            }
        };
        let mut k = self.handle.kernel().borrow_mut();
        for t in wake {
            k.make_runnable(t);
        }
    }
}

impl<T> Sender<T> {
    /// Sends a value; the future resolves on its first poll.
    pub fn send(&self, value: T) -> Send<'_, T> {
        Send { sender: self, value: Some(value) }
    }

    /// Sends without awaiting; fails if the receiver is gone.
    pub fn try_send(&self, value: T) -> Result<(), T> {
        let wake: Option<TaskId>;
        {
            let mut inner = self.inner.borrow_mut();
            if !inner.receiver_alive {
                return Err(value);
            }
            inner.queue.push_back(value);
            wake = inner.recv_waiters.pop();
        }
        if let Some(t) = wake {
            self.handle.kernel().borrow_mut().make_runnable(t);
        }
        Ok(())
    }
}

/// Future returned by [`Sender::send`].
pub struct Send<'a, T> {
    sender: &'a Sender<T>,
    value: Option<T>,
}

// `Send` holds no self-references, so it is sound to mark it `Unpin`
// even when `T` is not (safe impl; no unsafe code involved).
impl<T> Unpin for Send<'_, T> {}

impl<T> Future for Send<'_, T> {
    type Output = Result<(), SendError>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let value = this.value.take().expect("send polled after completion");
        Poll::Ready(this.sender.try_send(value).map_err(|_| SendError))
    }
}

/// Receiving half of a channel; exactly one exists per channel.
pub struct Receiver<T> {
    handle: Handle,
    inner: Rc<RefCell<ChanInner<T>>>,
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.inner.borrow_mut().receiver_alive = false;
    }
}

impl<T> Receiver<T> {
    /// Receives the next value; resolves to `None` once the channel is
    /// closed (all senders dropped) and drained.
    pub fn recv(&self) -> Recv<'_, T> {
        Recv { receiver: self }
    }

    /// Receives without blocking.
    pub fn try_recv(&self) -> Option<T> {
        self.inner.borrow_mut().queue.pop_front()
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// True if no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut inner = self.receiver.inner.borrow_mut();
        if let Some(v) = inner.queue.pop_front() {
            return Poll::Ready(Some(v));
        }
        if inner.senders == 0 {
            return Poll::Ready(None);
        }
        let me = self.receiver.handle.kernel().borrow().current_task();
        if !inner.recv_waiters.contains(&me) {
            inner.recv_waiters.push(me);
        }
        Poll::Pending
    }
}

/// A pool of reusable reply slots: each [`Replies::slot`] carries one
/// value from one producer to one consumer, and the slot goes back to
/// the pool once both halves are gone, so a steady stream of requests
/// allocates nothing.
///
/// Used for I/O completions: the disk fulfils the slot attached to an
/// I/O request; the issuing task awaits it.
pub struct Replies<T> {
    inner: Rc<RefCell<ReplyPool<T>>>,
}

impl<T> Clone for Replies<T> {
    fn clone(&self) -> Self {
        Replies { inner: self.inner.clone() }
    }
}

struct ReplyPool<T> {
    handle: Handle,
    slots: Vec<ReplySlot<T>>,
    free: Vec<usize>,
}

struct ReplySlot<T> {
    value: Option<T>,
    sender_alive: bool,
    receiver_alive: bool,
    waiter: Option<TaskId>,
}

impl<T> ReplyPool<T> {
    /// Returns slot `i` to the pool if neither half holds it any more.
    fn reclaim(&mut self, i: usize) {
        let slot = &mut self.slots[i];
        if !slot.sender_alive && !slot.receiver_alive {
            slot.value = None;
            self.free.push(i);
        }
    }
}

impl<T> Replies<T> {
    /// Creates an empty pool bound to a simulation.
    pub fn new(handle: &Handle) -> Self {
        let pool = ReplyPool { handle: handle.clone(), slots: Vec::new(), free: Vec::new() };
        Replies { inner: Rc::new(RefCell::new(pool)) }
    }

    /// Takes a free slot (growing the pool if none is free) and returns
    /// its two halves.
    pub fn slot(&self) -> (ReplySender<T>, ReplyReceiver<T>) {
        let mut pool = self.inner.borrow_mut();
        let fresh =
            ReplySlot { value: None, sender_alive: true, receiver_alive: true, waiter: None };
        let index = match pool.free.pop() {
            Some(i) => {
                pool.slots[i] = fresh;
                i
            }
            None => {
                pool.slots.push(fresh);
                pool.slots.len() - 1
            }
        };
        (
            ReplySender { pool: self.inner.clone(), index },
            ReplyReceiver { pool: self.inner.clone(), index },
        )
    }
}

/// Producing half of a reply slot; dropping it unsent resolves the
/// receiver to `None`.
pub struct ReplySender<T> {
    pool: Rc<RefCell<ReplyPool<T>>>,
    index: usize,
}

/// Consuming half of a reply slot; awaiting it yields the value, or
/// `None` if the sender went away without sending.
pub struct ReplyReceiver<T> {
    pool: Rc<RefCell<ReplyPool<T>>>,
    index: usize,
}

impl<T> ReplySender<T> {
    /// Fulfils the slot, waking the receiver.
    pub fn send(self, value: T) {
        let mut pool = self.pool.borrow_mut();
        let slot = &mut pool.slots[self.index];
        slot.value = Some(value);
        if let Some(t) = slot.waiter.take() {
            pool.handle.kernel().borrow_mut().make_runnable(t);
        }
    }
}

impl<T> Drop for ReplySender<T> {
    fn drop(&mut self) {
        let mut pool = self.pool.borrow_mut();
        let slot = &mut pool.slots[self.index];
        slot.sender_alive = false;
        if let Some(t) = slot.waiter.take() {
            pool.handle.kernel().borrow_mut().make_runnable(t);
        }
        pool.reclaim(self.index);
    }
}

impl<T> Drop for ReplyReceiver<T> {
    fn drop(&mut self) {
        let mut pool = self.pool.borrow_mut();
        pool.slots[self.index].receiver_alive = false;
        pool.reclaim(self.index);
    }
}

impl<T> Future for ReplyReceiver<T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut pool = self.pool.borrow_mut();
        let slot = &mut pool.slots[self.index];
        if let Some(v) = slot.value.take() {
            return Poll::Ready(Some(v));
        }
        if !slot.sender_alive {
            return Poll::Ready(None);
        }
        let me = pool.handle.kernel().borrow().current_task();
        pool.slots[self.index].waiter = Some(me);
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;

    #[test]
    fn unbounded_send_recv() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let (tx, rx) = channel::<u32>(&h);
        let h2 = h.clone();
        h.spawn("producer", async move {
            for i in 0..10 {
                tx.send(i).await.unwrap();
                h2.sleep(SimDuration::from_micros(10)).await;
            }
        });
        let got = Rc::new(RefCell::new(Vec::new()));
        let got2 = got.clone();
        h.spawn("consumer", async move {
            while let Some(v) = rx.recv().await {
                got2.borrow_mut().push(v);
            }
        });
        sim.run();
        assert_eq!(*got.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn recv_returns_none_when_senders_gone() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let (tx, rx) = channel::<u32>(&h);
        h.spawn("producer", async move {
            tx.send(7).await.unwrap();
            // tx dropped here.
        });
        let got = Rc::new(RefCell::new(Vec::new()));
        let got2 = got.clone();
        h.spawn("consumer", async move {
            while let Some(v) = rx.recv().await {
                got2.borrow_mut().push(v);
            }
            got2.borrow_mut().push(999);
        });
        sim.run();
        assert_eq!(*got.borrow(), vec![7, 999]);
    }

    #[test]
    fn send_fails_when_receiver_dropped() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let (tx, rx) = channel::<u32>(&h);
        drop(rx);
        h.spawn("producer", async move {
            assert_eq!(tx.send(1).await, Err(SendError));
            assert!(tx.try_send(2).is_err());
        });
        assert_eq!(sim.run(), crate::executor::RunResult::Completed);
    }

    #[test]
    fn reply_round_trip() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let (otx, orx) = Replies::<&'static str>::new(&h).slot();
        let h2 = h.clone();
        h.spawn("fulfiller", async move {
            h2.sleep(SimDuration::from_millis(3)).await;
            otx.send("done");
        });
        let h3 = h.clone();
        h.spawn("awaiter", async move {
            assert_eq!(orx.await, Some("done"));
            assert_eq!(h3.now().as_millis(), 3);
        });
        sim.run();
    }

    #[test]
    fn reply_dropped_sender_yields_none() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let (otx, orx) = Replies::<u8>::new(&h).slot();
        h.spawn("dropper", async move {
            drop(otx);
        });
        h.spawn("awaiter", async move {
            assert_eq!(orx.await, None);
        });
        assert_eq!(sim.run(), crate::executor::RunResult::Completed);
    }
}
