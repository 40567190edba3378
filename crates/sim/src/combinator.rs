//! Deterministic fan-out combinators for simulated tasks.
//!
//! The executor is strictly single-threaded and cooperative, and every
//! synchronization primitive registers the *task* (not a waker chain),
//! so a future that polls several children from one task composes
//! naturally: any child that blocks registers the parent task, and the
//! parent re-polls its pending children when it is next made runnable.
//!
//! That is the kernel's one wake path (see the executor's wake
//! contract): children are polled with the task's no-op
//! `std::task::Waker`, so a child that parks only that `Waker` is never
//! woken, and the run ends in a deadlock.
//!
//! [`join_all`] drives a set of futures to completion and returns every
//! output in input order; [`for_each_limit`] keeps a bounded window in
//! flight and hands outputs over in *completion* order. Both poll
//! their pending children in insertion order, so — together with the
//! seeded scheduler that decides when the owning task runs — fan-out
//! stays a pure function of (configuration, seed).

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// Drives every future to completion; outputs are returned in the order
/// the futures were passed in.
///
/// The children live inline in one list, so a join allocates that list
/// and its output and nothing per child. That asks for `Unpin` children
/// (a `ReplyReceiver` is one); box an `async` block at the call site.
///
/// # Examples
///
/// ```
/// use cnp_sim::{join_all, Sim, SimDuration};
///
/// let sim = Sim::new(7);
/// let h = sim.handle();
/// let h2 = h.clone();
/// h.spawn("fan-out", async move {
///     let sleeps: Vec<_> = [30u64, 10, 20]
///         .into_iter()
///         .map(|ms| {
///             let h3 = h2.clone();
///             Box::pin(async move {
///                 h3.sleep(SimDuration::from_millis(ms)).await;
///                 ms
///             })
///         })
///         .collect();
///     // All three sleeps overlap: total virtual time is max, not sum.
///     let out = join_all(sleeps).await;
///     assert_eq!(out, vec![30, 10, 20]);
///     assert_eq!(h2.now().as_millis(), 30);
/// });
/// sim.run();
/// ```
pub fn join_all<I>(futures: I) -> JoinAll<<I as IntoIterator>::Item>
where
    I: IntoIterator,
    <I as IntoIterator>::Item: Future + Unpin,
{
    let children: Vec<_> = futures.into_iter().map(Child::Pending).collect();
    JoinAll { children }
}

enum Child<F: Future> {
    Pending(F),
    Done(Option<F::Output>),
}

/// Future returned by [`join_all`].
pub struct JoinAll<F: Future> {
    children: Vec<Child<F>>,
}

// The children are `Unpin` and an output is never pinned, so moving the
// `JoinAll` moves nothing that was pinned: safe impl, no unsafe involved.
impl<F: Future + Unpin> Unpin for JoinAll<F> {}

impl<F: Future + Unpin> Future for JoinAll<F> {
    type Output = Vec<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut all_done = true;
        for child in &mut this.children {
            if let Child::Pending(fut) = child {
                match Pin::new(fut).poll(cx) {
                    Poll::Ready(out) => *child = Child::Done(Some(out)),
                    Poll::Pending => all_done = false,
                }
            }
        }
        if !all_done {
            return Poll::Pending;
        }
        let out = this
            .children
            .iter_mut()
            .map(|c| match c {
                Child::Done(v) => v.take().expect("join_all polled after completion"),
                Child::Pending(_) => unreachable!("all_done checked"),
            })
            .collect();
        Poll::Ready(out)
    }
}

/// Runs every future produced by `work`, keeping at most `depth` in
/// flight, and hands each output to `each` in completion order.
///
/// Pending futures are polled in insertion order, and every completion
/// restarts the scan from the oldest (a test holds this to a plain
/// `FuturesUnordered`-style set). The window owns its slots: the first
/// lives in this future's own state, the others are boxed once and
/// re-armed with the next item as they complete, so a call allocates
/// for at most `min(depth, items)` slots and never per item, and
/// `depth == 1` is awaiting each future in sequence with no allocation
/// at all.
pub async fn for_each_limit<I, F>(depth: usize, work: I, mut each: impl FnMut(F::Output))
where
    I: IntoIterator<Item = F>,
    F: Future,
{
    let mut work = work.into_iter();
    let width = work.size_hint().1.map_or(depth, |items| items.min(depth)).max(1);
    let mut inline = std::pin::pin!(work.next());
    // The boxed slots in insertion order; the inline slot's future
    // comes before `boxed[inline_at]` in that order.
    let mut boxed: Vec<Pin<Box<F>>> = Vec::with_capacity(width - 1);
    let mut inline_at = 0;
    boxed.extend(work.by_ref().take(width - 1).map(Box::pin));
    std::future::poll_fn(|cx| 'scan: loop {
        for i in 0..=boxed.len() {
            if i == inline_at {
                if let Some(fut) = inline.as_mut().as_pin_mut() {
                    if let Poll::Ready(out) = fut.poll(cx) {
                        each(out);
                        inline.set(work.next());
                        inline_at = boxed.len();
                        continue 'scan;
                    }
                }
            }
            if i == boxed.len() {
                break;
            }
            if let Poll::Ready(out) = boxed[i].as_mut().poll(cx) {
                each(out);
                let mut slot = boxed.remove(i);
                if i < inline_at {
                    inline_at -= 1;
                }
                if let Some(next) = work.next() {
                    slot.set(next);
                    boxed.push(slot);
                }
                continue 'scan;
            }
        }
        let idle = inline.is_none() && boxed.is_empty();
        return if idle { Poll::Ready(()) } else { Poll::Pending };
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// The reference for [`for_each_limit`]'s poll order: a growable set
    /// of in-flight futures yielding outputs in completion order
    /// (`FuturesUnordered`-style). Pending children are polled in insertion
    /// order each time the owner runs, and ties are broken by insertion
    /// order.
    struct Unordered<F: Future + Unpin> {
        pending: Vec<F>,
    }

    impl<F: Future + Unpin> Unordered<F> {
        /// Creates an empty set.
        fn new() -> Self {
            Unordered { pending: Vec::new() }
        }

        /// Adds a future to the set.
        fn push(&mut self, fut: F) {
            self.pending.push(fut);
        }

        /// Resolves to the next completed future's output, or `None` when
        /// the set is empty.
        // Not `Iterator::next`: this is the awaitable `FuturesUnordered`-
        // style method, named for that familiarity.
        #[allow(clippy::should_implement_trait)]
        fn next(&mut self) -> Next<'_, F> {
            Next { set: self }
        }
    }

    /// Future returned by [`Unordered::next`].
    struct Next<'a, F: Future + Unpin> {
        set: &'a mut Unordered<F>,
    }

    impl<F: Future + Unpin> Future for Next<'_, F> {
        type Output = Option<F::Output>;

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let set = &mut self.get_mut().set;
            if set.pending.is_empty() {
                return Poll::Ready(None);
            }
            for i in 0..set.pending.len() {
                if let Poll::Ready(out) = Pin::new(&mut set.pending[i]).poll(cx) {
                    // `remove` keeps insertion order for the survivors, so
                    // the poll sequence stays deterministic.
                    set.pending.remove(i);
                    return Poll::Ready(Some(out));
                }
            }
            Poll::Pending
        }
    }

    #[test]
    fn join_all_overlaps_sleeps() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let h2 = h.clone();
        h.spawn("t", async move {
            let futs: Vec<_> = (1..=4u64)
                .map(|i| {
                    let h3 = h2.clone();
                    Box::pin(async move {
                        h3.sleep(SimDuration::from_millis(i * 10)).await;
                        i
                    })
                })
                .collect();
            let out = join_all(futs).await;
            assert_eq!(out, vec![1, 2, 3, 4]);
            // Concurrent: 40 ms (the max), not 100 ms (the sum).
            assert_eq!(h2.now().as_millis(), 40);
        });
        assert_eq!(sim.run(), crate::executor::RunResult::Completed);
    }

    #[test]
    fn join_all_empty_is_immediate() {
        let sim = Sim::new(1);
        let h = sim.handle();
        h.spawn("t", async move {
            let out: Vec<u8> = join_all(Vec::<std::future::Ready<u8>>::new()).await;
            assert!(out.is_empty());
        });
        sim.run();
    }

    #[test]
    fn unordered_yields_in_completion_order() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let h2 = h.clone();
        h.spawn("t", async move {
            let mut set = Unordered::new();
            for ms in [30u64, 10, 20] {
                let h3 = h2.clone();
                set.push(Box::pin(async move {
                    h3.sleep(SimDuration::from_millis(ms)).await;
                    ms
                }));
            }
            let mut got = Vec::new();
            while let Some(ms) = set.next().await {
                got.push(ms);
            }
            assert_eq!(got, vec![10, 20, 30]);
        });
        sim.run();
    }

    #[test]
    fn for_each_limit_bounds_inflight() {
        let sim = Sim::new(5);
        let h = sim.handle();
        let h2 = h.clone();
        let active = Rc::new(RefCell::new((0usize, 0usize))); // (current, peak)
        let a2 = active.clone();
        h.spawn("t", async move {
            let jobs = (0..10u64).map(|_| {
                let h3 = h2.clone();
                let a = a2.clone();
                async move {
                    {
                        let mut g = a.borrow_mut();
                        g.0 += 1;
                        g.1 = g.1.max(g.0);
                    }
                    h3.sleep(SimDuration::from_millis(5)).await;
                    a.borrow_mut().0 -= 1;
                }
            });
            let mut done = 0;
            for_each_limit(3, jobs, |()| done += 1).await;
            assert_eq!(done, 10);
        });
        sim.run();
        assert_eq!(active.borrow().0, 0);
        let peak = active.borrow().1;
        assert!(peak <= 3, "depth bound violated: peak {peak}");
        assert!(peak >= 2, "no overlap happened at all");
    }

    #[test]
    fn slots_are_polled_in_the_order_an_unordered_set_polls_them() {
        // The reference: box every item into an `Unordered`, refill it
        // one for one. Each job logs its first poll and its completion,
        // so a slot re-armed out of insertion order shows in the log.
        async fn reference<F: Future<Output = ()>>(depth: usize, work: impl Iterator<Item = F>) {
            let mut work = work;
            let mut inflight = Unordered::new();
            inflight.pending.extend(work.by_ref().take(depth).map(Box::pin));
            while let Some(()) = inflight.next().await {
                inflight.pending.extend(work.next().map(Box::pin));
            }
        }
        fn log_of(depth: usize, slots: bool) -> Vec<(u64, bool, u64)> {
            let sim = Sim::new(11);
            let h = sim.handle();
            let log = Rc::new(RefCell::new(Vec::new()));
            let (h2, log2) = (h.clone(), log.clone());
            h.spawn("t", async move {
                // Durations that finish out of order, in ties, and
                // several in one wake-up.
                let jobs = [7u64, 3, 3, 9, 1, 4, 4, 4, 2, 8, 1, 6].into_iter().enumerate().map(
                    |(i, ms)| {
                        let (h, log) = (h2.clone(), log2.clone());
                        async move {
                            log.borrow_mut().push((i as u64, false, h.now().as_millis()));
                            h.sleep(SimDuration::from_millis(ms)).await;
                            log.borrow_mut().push((i as u64, true, h.now().as_millis()));
                        }
                    },
                );
                if slots {
                    for_each_limit(depth, jobs, |()| {}).await;
                } else {
                    reference(depth, jobs).await;
                }
            });
            sim.run();
            let log = log.borrow().clone();
            log
        }
        for depth in [1, 2, 3, 5, 12, 20] {
            let want = log_of(depth, false);
            assert_eq!(want.len(), 24);
            assert_eq!(log_of(depth, true), want, "at depth {depth}");
        }
    }

    #[test]
    fn depth_one_is_serial() {
        let sim = Sim::new(5);
        let h = sim.handle();
        let h2 = h.clone();
        h.spawn("t", async move {
            let jobs = (0..4u64).map(|_| {
                let h3 = h2.clone();
                async move { h3.sleep(SimDuration::from_millis(10)).await }
            });
            for_each_limit(1, jobs, |()| {}).await;
            // Serial: the sum, not the max.
            assert_eq!(h2.now().as_millis(), 40);
        });
        sim.run();
    }

    #[test]
    fn same_seed_same_completion_order() {
        fn run(seed: u64) -> Vec<u64> {
            let sim = Sim::new(seed);
            let h = sim.handle();
            let out = Rc::new(RefCell::new(Vec::new()));
            let o2 = out.clone();
            let h2 = h.clone();
            h.spawn("t", async move {
                let mut set = Unordered::new();
                for i in 0..8u64 {
                    let h3 = h2.clone();
                    set.push(Box::pin(async move {
                        // All deadlines equal: completion order is decided
                        // by poll order, which must be deterministic.
                        h3.sleep(SimDuration::from_millis(5)).await;
                        i
                    }));
                }
                while let Some(i) = set.next().await {
                    o2.borrow_mut().push(i);
                }
            });
            sim.run();
            let v = out.borrow().clone();
            v
        }
        assert_eq!(run(9), run(9));
    }
}
