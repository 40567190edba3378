//! Counting semaphore with FIFO handoff fairness.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::executor::{Handle, TaskId};

/// What a queued acquire and the semaphore tell each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AcqState {
    Waiting,
    Granted,
    Cancelled,
}

struct Waiter {
    task: TaskId,
    state: Rc<RefCell<AcqState>>,
    want: u32,
}

struct SemInner {
    permits: u32,
    waiters: VecDeque<Waiter>,
}

impl SemInner {
    /// Hands permits to queued waiters in FIFO order while they fit.
    fn grant(&mut self, handle: &Handle) {
        let mut to_wake = Vec::new();
        loop {
            match self.waiters.front() {
                Some(w) if *w.state.borrow() == AcqState::Cancelled => {
                    self.waiters.pop_front();
                }
                Some(w) if w.want <= self.permits => {
                    self.permits -= w.want;
                    let w = self.waiters.pop_front().expect("peeked");
                    *w.state.borrow_mut() = AcqState::Granted;
                    to_wake.push(w.task);
                }
                _ => break,
            }
        }
        if !to_wake.is_empty() {
            let mut k = handle.kernel().borrow_mut();
            for t in to_wake {
                k.make_runnable(t);
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
            inner: Rc::new(RefCell::new(SemInner { permits, waiters: VecDeque::new() })),
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
        {
            let mut inner = self.inner.borrow_mut();
            inner.permits += n;
        }
        let mut inner = self.inner.borrow_mut();
        // `grant` needs &mut SemInner plus the handle; split the borrow.
        let handle = self.handle.clone();
        inner.grant(&handle);
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

/// Where an [`Acquire`] stands. Only a queued acquire shares state with
/// the semaphore, so the uncontended path allocates nothing.
enum Stage {
    /// Not polled yet.
    Fresh,
    /// In the waiter queue.
    Queued(Rc<RefCell<AcqState>>),
    /// The permit was handed out.
    Done,
}

impl Future for Acquire {
    type Output = Permit;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        match &self.stage {
            Stage::Queued(state) if *state.borrow() == AcqState::Granted => {}
            Stage::Queued(_) | Stage::Done => return Poll::Pending,
            Stage::Fresh => {
                let mut inner = self.sem.inner.borrow_mut();
                if !inner.waiters.is_empty() || inner.permits < self.want {
                    let me = self.sem.handle.kernel().borrow().current_task();
                    let state = Rc::new(RefCell::new(AcqState::Waiting));
                    let waiter = Waiter { task: me, state: state.clone(), want: self.want };
                    inner.waiters.push_back(waiter);
                    drop(inner);
                    self.stage = Stage::Queued(state);
                    return Poll::Pending;
                }
                inner.permits -= self.want;
            }
        }
        self.stage = Stage::Done;
        Poll::Ready(Permit { sem: self.sem.clone(), count: self.want })
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if let Stage::Queued(state) = &self.stage {
            let s = *state.borrow();
            match s {
                AcqState::Waiting => {
                    *state.borrow_mut() = AcqState::Cancelled;
                }
                AcqState::Granted => {
                    // Granted but never observed: return the permits.
                    self.sem.release(self.want);
                }
                AcqState::Cancelled => {}
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
