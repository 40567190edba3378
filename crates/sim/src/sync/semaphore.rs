//! Counting semaphore with FIFO handoff fairness.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::executor::{Handle, TaskId};

/// A queued acquire: its task, what it wants, and its ticket. A
/// cancelled one stays in line until it reaches the front.
struct Waiter {
    task: TaskId,
    want: u32,
    ticket: u64,
    cancelled: bool,
}

struct SemInner {
    permits: u32,
    /// Queued acquires in ticket order.
    waiters: VecDeque<Waiter>,
    /// The ticket the next queued acquire draws.
    next_ticket: u64,
}

impl SemInner {
    /// Whether the queued acquire holding `ticket` has been granted: the
    /// queue only pops from the front, in ticket order, and a live
    /// acquire leaves it only by being granted.
    fn granted(&self, ticket: u64) -> bool {
        self.waiters.front().is_none_or(|w| w.ticket > ticket)
    }

    /// Hands permits to queued waiters in FIFO order while they fit.
    fn grant(&mut self, handle: &Handle) {
        while let Some(w) = self.waiters.front() {
            if w.cancelled {
                self.waiters.pop_front();
            } else if w.want <= self.permits {
                self.permits -= w.want;
                let task = w.task;
                self.waiters.pop_front();
                handle.kernel().borrow_mut().make_runnable(task);
            } else {
                break;
            }
        }
    }
}

/// A counting semaphore for simulated tasks.
///
/// Permits are handed to waiters in FIFO order (no barging), which the
/// paper's disk-queue and NVRAM components rely on for fairness.
#[derive(Clone)]
pub struct Semaphore {
    handle: Handle,
    inner: Rc<RefCell<SemInner>>,
}

impl Semaphore {
    /// Creates a semaphore with `permits` initial permits.
    pub fn new(handle: &Handle, permits: u32) -> Self {
        Semaphore {
            handle: handle.clone(),
            inner: Rc::new(RefCell::new(SemInner {
                permits,
                waiters: VecDeque::new(),
                next_ticket: 0,
            })),
        }
    }

    /// Acquires one permit, blocking until available.
    pub fn acquire(&self) -> Acquire {
        self.acquire_many(1)
    }

    /// Acquires `n` permits atomically, blocking until all are available.
    pub fn acquire_many(&self, n: u32) -> Acquire {
        Acquire { sem: self.clone(), want: n, stage: Stage::Fresh }
    }

    /// Tries to acquire one permit without blocking.
    pub fn try_acquire(&self) -> Option<Permit> {
        let mut inner = self.inner.borrow_mut();
        if inner.waiters.is_empty() && inner.permits >= 1 {
            inner.permits -= 1;
            Some(Permit { sem: self.clone(), count: 1 })
        } else {
            None
        }
    }

    /// Adds `n` permits, waking eligible waiters.
    pub fn release(&self, n: u32) {
        let mut inner = self.inner.borrow_mut();
        inner.permits += n;
        inner.grant(&self.handle);
    }

    /// Permits currently available.
    pub fn available(&self) -> u32 {
        self.inner.borrow().permits
    }
}

/// RAII permit; releases on drop.
pub struct Permit {
    sem: Semaphore,
    count: u32,
}

impl Permit {
    /// Number of permits held.
    pub fn count(&self) -> u32 {
        self.count
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        if self.count > 0 {
            self.sem.release(self.count);
        }
    }
}

/// Future returned by [`Semaphore::acquire`]/[`Semaphore::acquire_many`].
pub struct Acquire {
    sem: Semaphore,
    want: u32,
    stage: Stage,
}

/// Where an [`Acquire`] stands. A queued acquire holds only its
/// ticket; the semaphore's queue holds the rest.
enum Stage {
    /// Not polled yet.
    Fresh,
    /// In the waiter queue under this ticket.
    Queued(u64),
    /// The permit was handed out.
    Done,
}

impl Future for Acquire {
    type Output = Permit;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut inner = self.sem.inner.borrow_mut();
        match self.stage {
            Stage::Queued(ticket) if inner.granted(ticket) => {}
            Stage::Queued(_) | Stage::Done => return Poll::Pending,
            Stage::Fresh if inner.waiters.is_empty() && inner.permits >= self.want => {
                inner.permits -= self.want;
            }
            Stage::Fresh => {
                let task = self.sem.handle.kernel().borrow().current_task();
                let ticket = inner.next_ticket;
                inner.next_ticket += 1;
                inner.waiters.push_back(Waiter { task, want: self.want, ticket, cancelled: false });
                drop(inner);
                self.stage = Stage::Queued(ticket);
                return Poll::Pending;
            }
        }
        drop(inner);
        self.stage = Stage::Done;
        Poll::Ready(Permit { sem: self.sem.clone(), count: self.want })
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if let Stage::Queued(ticket) = self.stage {
            let mut inner = self.sem.inner.borrow_mut();
            if inner.granted(ticket) {
                // Granted but never observed: return the permits.
                drop(inner);
                self.sem.release(self.want);
            } else if let Ok(i) = inner.waiters.binary_search_by_key(&ticket, |w| w.ticket) {
                inner.waiters[i].cancelled = true;
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
    fn uncontended_acquire_is_immediate() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let sem = Semaphore::new(&h, 2);
        let sem2 = sem.clone();
        h.spawn("t", async move {
            let p1 = sem2.acquire().await;
            let p2 = sem2.acquire().await;
            assert_eq!(sem2.available(), 0);
            drop(p1);
            drop(p2);
            assert_eq!(sem2.available(), 2);
        });
        sim.run();
    }

    #[test]
    fn contended_acquire_blocks_until_release() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let sem = Semaphore::new(&h, 1);
        let order = Rc::new(RefCell::new(Vec::new()));
        let (s1, o1, h1) = (sem.clone(), order.clone(), h.clone());
        h.spawn("holder", async move {
            let p = s1.acquire().await;
            o1.borrow_mut().push("got-1");
            h1.sleep(SimDuration::from_millis(10)).await;
            o1.borrow_mut().push("drop-1");
            drop(p);
        });
        let (s2, o2, h2) = (sem.clone(), order.clone(), h.clone());
        h.spawn("blocked", async move {
            h2.sleep(SimDuration::from_millis(1)).await;
            let _p = s2.acquire().await;
            o2.borrow_mut().push("got-2");
        });
        sim.run();
        assert_eq!(*order.borrow(), vec!["got-1", "drop-1", "got-2"]);
    }

    #[test]
    fn fifo_fairness_no_barging() {
        let sim = Sim::new(12345);
        let h = sim.handle();
        let sem = Semaphore::new(&h, 1);
        let order = Rc::new(RefCell::new(Vec::new()));
        let (s0, h0) = (sem.clone(), h.clone());
        h.spawn("holder", async move {
            let _p = s0.acquire().await;
            h0.sleep(SimDuration::from_millis(100)).await;
        });
        for i in 0..6u64 {
            let (s, o, h2) = (sem.clone(), order.clone(), h.clone());
            h.spawn("waiter", async move {
                // Stagger arrivals so queue order is well-defined.
                h2.sleep(SimDuration::from_millis(i + 1)).await;
                let _p = s.acquire().await;
                o.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn acquire_many_waits_for_all() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let sem = Semaphore::new(&h, 3);
        let got = Rc::new(Cell::new(false));
        let (s1, h1) = (sem.clone(), h.clone());
        h.spawn("taker", async move {
            let _p = s1.acquire_many(2).await;
            h1.sleep(SimDuration::from_millis(5)).await;
        });
        let (s2, got2, h2) = (sem.clone(), got.clone(), h.clone());
        h.spawn("bulk", async move {
            h2.sleep(SimDuration::from_millis(1)).await;
            let p = s2.acquire_many(3).await;
            got2.set(true);
            assert_eq!(p.count(), 3);
        });
        sim.run();
        assert!(got.get());
        assert_eq!(sem.available(), 3);
    }

    #[test]
    fn cancelled_and_untaken_acquires_give_way_in_line() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let sem = Semaphore::new(&h, 1);
        let (s0, h0) = (sem.clone(), h.clone());
        h.spawn("holder", async move {
            let _p = s0.acquire().await;
            h0.sleep(SimDuration::from_millis(10)).await;
        });
        // Queued first, cancelled while the permit is still held.
        let (s1, h1) = (sem.clone(), h.clone());
        h.spawn("canceller", async move {
            h1.sleep(SimDuration::from_millis(1)).await;
            let mut acq = s1.acquire();
            let mut cx = Context::from_waker(std::task::Waker::noop());
            assert!(Pin::new(&mut acq).poll(&mut cx).is_pending());
            let again = Pin::new(&mut acq).poll(&mut cx);
            assert!(again.is_pending(), "first in line is not yet granted");
        });
        // Queued second, granted at 10 ms, dropped untaken at 20 ms.
        let (s2, h2) = (sem.clone(), h.clone());
        h.spawn("quitter", async move {
            h2.sleep(SimDuration::from_millis(2)).await;
            let mut acq = s2.acquire();
            let mut cx = Context::from_waker(std::task::Waker::noop());
            assert!(Pin::new(&mut acq).poll(&mut cx).is_pending());
            h2.sleep(SimDuration::from_millis(18)).await;
            assert_eq!(s2.available(), 0, "granted to the quitter");
            drop(acq);
        });
        let got_at = Rc::new(Cell::new(0));
        let (s3, h3, got) = (sem.clone(), h.clone(), got_at.clone());
        h.spawn("last", async move {
            h3.sleep(SimDuration::from_millis(3)).await;
            let _p = s3.acquire().await;
            got.set(h3.now().as_millis());
        });
        sim.run();
        assert_eq!(got_at.get(), 20);
        assert_eq!(sem.available(), 1);
    }

    #[test]
    fn try_acquire_respects_queue() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let sem = Semaphore::new(&h, 1);
        let sem2 = sem.clone();
        let h2 = h.clone();
        h.spawn("t", async move {
            let p = sem2.try_acquire().expect("free permit");
            assert!(sem2.try_acquire().is_none());
            drop(p);
            assert!(sem2.try_acquire().is_some());
            h2.sleep(SimDuration::from_millis(1)).await;
        });
        sim.run();
    }
}
