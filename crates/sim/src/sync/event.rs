//! The paper's basic synchronization primitive: blockable, signalable events.
//!
//! "Each thread can pick a unique event and block on it. Once a thread has
//! blocked itself, another thread signals the event through the scheduler
//! to make the thread runnable again."

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::executor::{Handle, TaskId};

struct EventInner {
    /// Blocked tasks with their tickets, in arrival order.
    waiters: Vec<(TaskId, u64)>,
    /// The ticket the next wait draws.
    next_ticket: u64,
    /// Every ticket below this one has been signalled.
    woken_below: u64,
    signals: u64,
}

/// A signalable event; multiple tasks may wait on the same event.
///
/// # Examples
///
/// ```
/// use cnp_sim::{Event, Sim, SimDuration};
///
/// let sim = Sim::new(0);
/// let h = sim.handle();
/// let ev = Event::new(&h);
/// let (h2, ev2) = (h.clone(), ev.clone());
/// h.spawn("waiter", async move {
///     ev2.wait().await;
///     assert_eq!(h2.now().as_millis(), 7);
/// });
/// let (h3, ev3) = (h.clone(), ev.clone());
/// h.spawn("signaler", async move {
///     h3.sleep(SimDuration::from_millis(7)).await;
///     ev3.signal();
/// });
/// sim.run();
/// ```
#[derive(Clone)]
pub struct Event {
    handle: Handle,
    inner: Rc<RefCell<EventInner>>,
}

impl Event {
    /// Creates a new event bound to a simulation.
    pub fn new(handle: &Handle) -> Self {
        let inner = EventInner { waiters: Vec::new(), next_ticket: 0, woken_below: 0, signals: 0 };
        Event { handle: handle.clone(), inner: Rc::new(RefCell::new(inner)) }
    }

    /// Wakes every task currently waiting on this event.
    pub fn signal(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.signals += 1;
        inner.woken_below = inner.next_ticket;
        let mut k = self.handle.kernel().borrow_mut();
        for (task, _) in inner.waiters.drain(..) {
            k.make_runnable(task);
        }
    }

    /// Number of tasks currently blocked on the event.
    pub fn waiter_count(&self) -> usize {
        self.inner.borrow().waiters.len()
    }

    /// Total number of `signal` calls so far.
    pub fn signal_count(&self) -> u64 {
        self.inner.borrow().signals
    }

    /// True if this handle is the event's only one: no clone and no
    /// wait holds it, so nobody can wait on it or signal it but its
    /// holder, who may reuse it for a new purpose.
    pub fn is_unique(&self) -> bool {
        Rc::strong_count(&self.inner) == 1
    }

    /// Blocks the calling task until the event is next signalled.
    pub fn wait(&self) -> EventWait {
        EventWait { event: self.clone(), ticket: None }
    }
}

/// Future returned by [`Event::wait`]: its ticket, once it has one, is
/// its whole share of the event's state.
pub struct EventWait {
    event: Event,
    ticket: Option<u64>,
}

impl Future for EventWait {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut inner = self.event.inner.borrow_mut();
        match self.ticket {
            Some(ticket) if ticket < inner.woken_below => Poll::Ready(()),
            Some(_) => Poll::Pending,
            None => {
                let me = self.event.handle.kernel().borrow().current_task();
                let ticket = inner.next_ticket;
                inner.next_ticket += 1;
                inner.waiters.push((me, ticket));
                drop(inner);
                self.ticket = Some(ticket);
                Poll::Pending
            }
        }
    }
}

impl Drop for EventWait {
    fn drop(&mut self) {
        // Deregister if still waiting, so a later signal does not wake
        // the task for a wait it has cancelled.
        if let Some(ticket) = self.ticket {
            let mut inner = self.event.inner.borrow_mut();
            if ticket >= inner.woken_below {
                inner.waiters.retain(|&(_, t)| t != ticket);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;
    use std::cell::Cell;

    #[test]
    fn signal_wakes_all_waiters() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let ev = Event::new(&h);
        let woke = Rc::new(Cell::new(0u32));
        for _ in 0..5 {
            let ev = ev.clone();
            let woke = woke.clone();
            h.spawn("w", async move {
                ev.wait().await;
                woke.set(woke.get() + 1);
            });
        }
        let h2 = h.clone();
        let ev2 = ev.clone();
        h.spawn("s", async move {
            h2.sleep(SimDuration::from_millis(1)).await;
            assert_eq!(ev2.waiter_count(), 5);
            ev2.signal();
        });
        sim.run();
        assert_eq!(woke.get(), 5);
    }

    #[test]
    fn signal_without_waiters_is_lost() {
        // Events are not sticky: a signal with no waiters wakes nobody.
        let sim = Sim::new(0);
        let h = sim.handle();
        let ev = Event::new(&h);
        ev.signal();
        let ev2 = ev.clone();
        let h2 = h.clone();
        let woke = Rc::new(Cell::new(false));
        let woke2 = woke.clone();
        h.spawn("w", async move {
            let wait = ev2.wait();
            // Add a timeout companion task.
            let h3 = h2.clone();
            let ev3 = ev2.clone();
            h2.spawn("timeout", async move {
                h3.sleep(SimDuration::from_millis(5)).await;
                ev3.signal();
            });
            wait.await;
            woke2.set(true);
        });
        sim.run();
        assert!(woke.get());
        // One lost signal before the wait + the timeout task's signal.
        assert_eq!(ev.signal_count(), 2);
    }

    #[test]
    fn cancelled_waiter_deregisters() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let ev = Event::new(&h);
        let ev2 = ev.clone();
        let h2 = h.clone();
        h.spawn("w", async move {
            {
                let mut wait = ev2.wait();
                // Poll once to register, then drop without completing.
                futures_noop_poll(&mut wait);
                assert_eq!(ev2.waiter_count(), 1);
            }
            assert_eq!(ev2.waiter_count(), 0);
            h2.sleep(SimDuration::from_millis(1)).await;
        });
        sim.run();
    }

    #[test]
    fn a_dropped_wait_is_never_woken_and_leaves_the_signal_to_the_waiter_behind_it() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let ev = Event::new(&h);
        let parked_polls = Rc::new(Cell::new(0u32));
        let (ev1, h1, polls) = (ev.clone(), h.clone(), parked_polls.clone());
        h.spawn("quitter", async move {
            let mut wait = ev1.wait();
            futures_noop_poll(&mut wait);
            h1.sleep(SimDuration::from_millis(2)).await;
            drop(wait);
            // Parked past the signal: only its own timer may wake it.
            let mut park = h1.sleep(SimDuration::from_millis(8));
            std::future::poll_fn(|cx| {
                polls.set(polls.get() + 1);
                Pin::new(&mut park).poll(cx)
            })
            .await;
        });
        let woke_at = Rc::new(Cell::new(None));
        let (ev2, h2, woke) = (ev.clone(), h.clone(), woke_at.clone());
        h.spawn("behind", async move {
            h2.sleep(SimDuration::from_millis(1)).await;
            ev2.wait().await;
            woke.set(Some(h2.now().as_millis()));
        });
        let (ev3, h3) = (ev.clone(), h.clone());
        h.spawn("signaler", async move {
            h3.sleep(SimDuration::from_millis(5)).await;
            assert_eq!(ev3.waiter_count(), 1, "the dropped wait left the list");
            ev3.signal();
        });
        sim.run();
        assert_eq!(woke_at.get(), Some(5));
        assert_eq!(parked_polls.get(), 2, "first poll, then its timer; never the signal");
    }

    #[test]
    fn an_event_is_unique_while_no_clone_or_wait_holds_it() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let ev = Event::new(&h);
        h.spawn("w", async move {
            assert!(ev.is_unique());
            let clone = ev.clone();
            assert!(!ev.is_unique() && !clone.is_unique());
            drop(clone);
            let mut wait = ev.wait();
            futures_noop_poll(&mut wait);
            assert!(!ev.is_unique(), "a parked wait holds the event");
            drop(wait);
            assert!(ev.is_unique());
        });
        sim.run();
    }

    /// Polls a future once with a dummy waker (test helper).
    fn futures_noop_poll<F: Future + Unpin>(fut: &mut F) {
        let mut cx = Context::from_waker(std::task::Waker::noop());
        let _ = Pin::new(fut).poll(&mut cx);
    }
}
