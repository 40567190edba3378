//! Exclusive resources with priority arbitration: the paper's
//! *connection* contention mechanism ("they also arbitrate if there is
//! more than one controller that wants to send data over the same
//! connection"). The highest priority wins and ties go to the earliest
//! arrival, so tasks calling [`Resource::acquire`] (priority 0) are
//! served first come, first served.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::executor::{Handle, TaskId};

/// A blocked acquirer: its task, priority and arrival ticket.
struct ResWaiter {
    task: TaskId,
    prio: u32,
    seq: u64,
}

struct ResInner {
    busy: bool,
    waiters: Vec<ResWaiter>,
    seq: u64,
    /// The ticket of a waiter handed the resource that has not yet
    /// polled to take it.
    granted: Option<u64>,
    acquisitions: u64,
    contentions: u64,
}

impl ResInner {
    /// Picks the winning waiter index: the highest priority, then the
    /// earliest arrival.
    ///
    /// SCSI arbitration awards the bus to the highest target id; map the
    /// id to the priority argument of [`Resource::acquire_prio`].
    fn winner(&self) -> Option<usize> {
        let live = self.waiters.iter().enumerate();
        live.max_by_key(|(_, w)| (w.prio, u64::MAX - w.seq)).map(|(i, _)| i)
    }
}

/// A single-owner resource (bus, connection) with arbitration statistics.
#[derive(Clone)]
pub struct Resource {
    handle: Handle,
    inner: Rc<RefCell<ResInner>>,
}

impl Resource {
    /// Creates a free resource.
    pub fn new(handle: &Handle) -> Self {
        Resource {
            handle: handle.clone(),
            inner: Rc::new(RefCell::new(ResInner {
                busy: false,
                waiters: Vec::new(),
                seq: 0,
                granted: None,
                acquisitions: 0,
                contentions: 0,
            })),
        }
    }

    /// Acquires the resource with the lowest priority, 0.
    pub fn acquire(&self) -> AcquireResource {
        self.acquire_prio(0)
    }

    /// Acquires the resource with an arbitration priority.
    pub fn acquire_prio(&self, prio: u32) -> AcquireResource {
        AcquireResource { res: self.clone(), prio, stage: Stage::Fresh }
    }

    /// True if currently held.
    pub fn is_busy(&self) -> bool {
        self.inner.borrow().busy
    }

    /// Total successful acquisitions.
    pub fn acquisitions(&self) -> u64 {
        self.inner.borrow().acquisitions
    }

    /// Number of acquisitions that had to wait (contention events).
    pub fn contentions(&self) -> u64 {
        self.inner.borrow().contentions
    }

    fn release(&self) {
        let wake = {
            let mut inner = self.inner.borrow_mut();
            inner.busy = false;
            inner.winner().map(|i| {
                let w = inner.waiters.remove(i);
                inner.busy = true;
                inner.acquisitions += 1;
                inner.granted = Some(w.seq);
                w.task
            })
        };
        if let Some(t) = wake {
            self.handle.kernel().borrow_mut().make_runnable(t);
        }
    }
}

/// RAII guard; releases the resource (and arbitrates) on drop.
pub struct ResourceGuard {
    res: Resource,
}

impl Drop for ResourceGuard {
    fn drop(&mut self) {
        self.res.release();
    }
}

/// Future returned by [`Resource::acquire`]/[`Resource::acquire_prio`].
pub struct AcquireResource {
    res: Resource,
    prio: u32,
    stage: Stage,
}

/// Where an [`AcquireResource`] stands; a queued one holds only its
/// ticket, and the resource's waiter list and grant hold the rest.
enum Stage {
    /// Not polled yet.
    Fresh,
    /// Waiting, or granted and not yet taken, under this ticket.
    Queued(u64),
    /// The guard was handed out.
    Done,
}

impl Future for AcquireResource {
    type Output = ResourceGuard;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut inner = self.res.inner.borrow_mut();
        match self.stage {
            Stage::Queued(seq) if inner.granted == Some(seq) => inner.granted = None,
            Stage::Queued(_) | Stage::Done => return Poll::Pending,
            Stage::Fresh if !inner.busy => {
                inner.busy = true;
                inner.acquisitions += 1;
            }
            Stage::Fresh => {
                inner.contentions += 1;
                inner.seq += 1;
                let seq = inner.seq;
                let task = self.res.handle.kernel().borrow().current_task();
                inner.waiters.push(ResWaiter { task, prio: self.prio, seq });
                drop(inner);
                self.stage = Stage::Queued(seq);
                return Poll::Pending;
            }
        }
        drop(inner);
        self.stage = Stage::Done;
        Poll::Ready(ResourceGuard { res: self.res.clone() })
    }
}

impl Drop for AcquireResource {
    fn drop(&mut self) {
        if let Stage::Queued(seq) = self.stage {
            let mut inner = self.res.inner.borrow_mut();
            if inner.granted == Some(seq) {
                // Granted but never taken: pass the resource on.
                inner.granted = None;
                drop(inner);
                self.res.release();
            } else {
                inner.waiters.retain(|w| w.seq != seq);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;

    /// Plain acquirers share priority 0, so the one rule serves them in
    /// arrival order.
    #[test]
    fn fifo_arbitration_orders_by_arrival() {
        let sim = Sim::new(77);
        let h = sim.handle();
        let bus = Resource::new(&h);
        let order = Rc::new(RefCell::new(Vec::new()));
        let (b0, h0) = (bus.clone(), h.clone());
        h.spawn("holder", async move {
            let _g = b0.acquire().await;
            h0.sleep(SimDuration::from_millis(50)).await;
        });
        for i in 0..4u64 {
            let (b, o, h2) = (bus.clone(), order.clone(), h.clone());
            h.spawn("w", async move {
                h2.sleep(SimDuration::from_millis(i + 1)).await;
                let _g = b.acquire().await;
                o.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
        assert_eq!(bus.acquisitions(), 5);
        assert_eq!(bus.contentions(), 4);
    }

    #[test]
    fn priority_arbitration_prefers_high_prio() {
        let sim = Sim::new(77);
        let h = sim.handle();
        let bus = Resource::new(&h);
        let order = Rc::new(RefCell::new(Vec::new()));
        let (b0, h0) = (bus.clone(), h.clone());
        h.spawn("holder", async move {
            let _g = b0.acquire_prio(7).await;
            h0.sleep(SimDuration::from_millis(50)).await;
        });
        // Arrive in prio order 1, 3, 2 — release order must be 3, 2, 1.
        for (i, prio) in [(0u64, 1u32), (1, 3), (2, 2)] {
            let (b, o, h2) = (bus.clone(), order.clone(), h.clone());
            h.spawn("w", async move {
                h2.sleep(SimDuration::from_millis(i + 1)).await;
                let g = b.acquire_prio(prio).await;
                o.borrow_mut().push(prio);
                // Hold briefly so remaining waiters re-arbitrate.
                h2.sleep(SimDuration::from_millis(1)).await;
                drop(g);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![3, 2, 1]);
    }

    #[test]
    fn priority_tie_broken_by_arrival() {
        let sim = Sim::new(77);
        let h = sim.handle();
        let bus = Resource::new(&h);
        let order = Rc::new(RefCell::new(Vec::new()));
        let (b0, h0) = (bus.clone(), h.clone());
        h.spawn("holder", async move {
            let _g = b0.acquire().await;
            h0.sleep(SimDuration::from_millis(50)).await;
        });
        for i in 0..3u64 {
            let (b, o, h2) = (bus.clone(), order.clone(), h.clone());
            h.spawn("w", async move {
                h2.sleep(SimDuration::from_millis(i + 1)).await;
                let g = b.acquire_prio(5).await;
                o.borrow_mut().push(i);
                h2.sleep(SimDuration::from_millis(1)).await;
                drop(g);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2]);
    }

    /// Polls a future once with a dummy waker (test helper).
    fn noop_poll<F: Future + Unpin>(fut: &mut F) -> Poll<F::Output> {
        let mut cx = Context::from_waker(std::task::Waker::noop());
        Pin::new(fut).poll(&mut cx)
    }

    #[test]
    fn a_granted_acquire_dropped_unpolled_passes_the_bus_by_priority_then_arrival() {
        let sim = Sim::new(77);
        let h = sim.handle();
        let bus = Resource::new(&h);
        let (b0, h0) = (bus.clone(), h.clone());
        h.spawn("holder", async move {
            let _g = b0.acquire().await;
            h0.sleep(SimDuration::from_millis(10)).await;
        });
        // Granted at 10 ms as the highest priority, dropped untaken at 20.
        let (b1, h1) = (bus.clone(), h.clone());
        h.spawn("quitter", async move {
            h1.sleep(SimDuration::from_millis(1)).await;
            let mut acq = b1.acquire_prio(9);
            assert!(noop_poll(&mut acq).is_pending());
            h1.sleep(SimDuration::from_millis(19)).await;
            assert!(b1.is_busy(), "granted to the quitter");
            drop(acq);
        });
        let order = Rc::new(RefCell::new(Vec::new()));
        for (name, arrive, prio) in [("p3", 2, 3), ("q7", 3, 7), ("r7", 4, 7), ("s3", 5, 3)] {
            let (b, o, h2) = (bus.clone(), order.clone(), h.clone());
            h.spawn("w", async move {
                h2.sleep(SimDuration::from_millis(arrive)).await;
                let g = b.acquire_prio(prio).await;
                o.borrow_mut().push((name, h2.now().as_millis()));
                h2.sleep(SimDuration::from_millis(1)).await;
                drop(g);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![("q7", 20), ("r7", 21), ("p3", 22), ("s3", 23)]);
        assert_eq!(bus.acquisitions(), 6);
    }

    #[test]
    fn a_cancelled_waiter_never_wins_arbitration() {
        let sim = Sim::new(77);
        let h = sim.handle();
        let bus = Resource::new(&h);
        let (b0, h0) = (bus.clone(), h.clone());
        h.spawn("holder", async move {
            let _g = b0.acquire().await;
            h0.sleep(SimDuration::from_millis(10)).await;
        });
        // First in line and highest priority, then gone.
        let (b1, h1) = (bus.clone(), h.clone());
        h.spawn("quitter", async move {
            h1.sleep(SimDuration::from_millis(1)).await;
            let mut acq = b1.acquire_prio(9);
            assert!(noop_poll(&mut acq).is_pending());
            h1.sleep(SimDuration::from_millis(1)).await;
        });
        let got_at = Rc::new(RefCell::new(None));
        let (b2, h2, got) = (bus.clone(), h.clone(), got_at.clone());
        h.spawn("waiter", async move {
            h2.sleep(SimDuration::from_millis(3)).await;
            let _g = b2.acquire_prio(1).await;
            *got.borrow_mut() = Some(h2.now().as_millis());
        });
        assert_eq!(sim.run(), crate::executor::RunResult::Completed);
        assert_eq!(*got_at.borrow(), Some(10));
        assert_eq!((bus.acquisitions(), bus.contentions()), (2, 2));
        assert!(!bus.is_busy());
    }

    #[test]
    fn uncontended_acquire_counts() {
        let sim = Sim::new(0);
        let h = sim.handle();
        let r = Resource::new(&h);
        let r2 = r.clone();
        h.spawn("t", async move {
            for _ in 0..3 {
                let _g = r2.acquire().await;
            }
        });
        sim.run();
        assert_eq!(r.acquisitions(), 3);
        assert_eq!(r.contentions(), 0);
        assert!(!r.is_busy());
    }
}
