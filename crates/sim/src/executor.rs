//! The discrete-event executor: the paper's *thread scheduler* component.
//!
//! Each simulated thread is a Rust future driven by a single-threaded,
//! deterministic executor. The scheduler has one policy, the paper's
//! **random scheduling** ("It picks a random thread from the runnable
//! set"), drawn from the simulation's seed, and it owns the clock:
//! virtual time, which jumps straight to the next timer when every task
//! is blocked. The off-line simulator (Patsy) and the on-line system
//! (PFS, whose `pfs` binary stores real bytes in a host file) both run
//! on it.
//!
//! **The wake contract.** A task becomes runnable only through the
//! kernel's `make_runnable`: a primitive's grant or signal, a timer, a
//! join or a spawn. Every task is polled with [`Waker::noop`], so a
//! future that parks only the std `Waker` it was polled with is never
//! woken: the run ends in [`RunResult::Deadlock`], and
//! [`Sim::block_on`] panics naming the task.

use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::time::{SimDuration, SimTime};

/// Identifies a spawned simulation task (slot index + generation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId {
    index: u32,
    gen: u32,
}

impl TaskId {
    /// A stable `u64` key (slot + generation) for per-task routing
    /// tables such as the tracer's task → lane map.
    pub fn key(self) -> u64 {
        ((self.gen as u64) << 32) | self.index as u64
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}.{}", self.index, self.gen)
    }
}

/// Outcome of driving the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunResult {
    /// Every spawned task ran to completion.
    Completed,
    /// Tasks remain, but none is runnable and no timer is pending.
    Deadlock {
        /// Number of tasks blocked forever.
        blocked: usize,
    },
    /// The time limit given to [`Sim::run_until`] was reached.
    TimeLimit,
}

type TaskFuture = Pin<Box<dyn Future<Output = ()>>>;

struct TaskSlot {
    gen: u32,
    /// The task's future, the one allocation a spawn makes; it leaves
    /// the slot for the duration of a poll.
    future: Option<TaskFuture>,
    /// True while the task sits in the runnable queue (dedup flag).
    queued: bool,
    /// Tasks awaiting this one's [`JoinHandle`], woken in arrival order
    /// when it finishes.
    joiners: Vec<TaskId>,
}

#[derive(PartialEq, Eq)]
struct TimerEntry {
    deadline: SimTime,
    seq: u64,
    task: TaskId,
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest deadline.
        other.deadline.cmp(&self.deadline).then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

pub(crate) struct Kernel {
    now: SimTime,
    tasks: Vec<Option<TaskSlot>>,
    free: Vec<u32>,
    live: usize,
    runnable: Vec<TaskId>,
    timers: BinaryHeap<TimerEntry>,
    timer_seq: u64,
    rng: StdRng,
    current: Option<TaskId>,
    spawned_total: u64,
    steps: u64,
}

impl Kernel {
    /// The slot of task `id`, or `None` once it has finished (its slot
    /// is empty or holds a later generation).
    fn slot_mut(&mut self, id: TaskId) -> Option<&mut TaskSlot> {
        self.tasks.get_mut(id.index as usize)?.as_mut().filter(|s| s.gen == id.gen)
    }

    pub(crate) fn current_task(&self) -> TaskId {
        self.current.expect("not inside a simulation task")
    }

    /// Moves a task into the runnable set (idempotent; ignores dead ids).
    pub(crate) fn make_runnable(&mut self, id: TaskId) {
        if let Some(slot) = self.slot_mut(id) {
            if !slot.queued {
                slot.queued = true;
                self.runnable.push(id);
            }
        }
    }

    pub(crate) fn add_timer(&mut self, deadline: SimTime, task: TaskId) {
        self.timer_seq += 1;
        self.timers.push(TimerEntry { deadline, seq: self.timer_seq, task });
    }

    /// Picks a uniformly random runnable task, skipping the stale ids
    /// of tasks that finished while queued.
    fn pick(&mut self) -> Option<TaskId> {
        while !self.runnable.is_empty() {
            let idx = self.rng.gen_range(0..self.runnable.len());
            let id = self.runnable.swap_remove(idx);
            if let Some(slot) = self.slot_mut(id) {
                slot.queued = false;
                return Some(id);
            }
        }
        None
    }
}

/// A deterministic discrete-event simulation: the instantiated scheduler.
///
/// # Examples
///
/// ```
/// use cnp_sim::{Sim, SimDuration};
///
/// let sim = Sim::new(42);
/// let h = sim.handle();
/// let h2 = h.clone();
/// h.spawn("hello", async move {
///     h2.sleep(SimDuration::from_millis(5)).await;
///     assert_eq!(h2.now().as_millis(), 5);
/// });
/// sim.run();
/// ```
pub struct Sim {
    kernel: Rc<RefCell<Kernel>>,
}

/// A cloneable handle used by tasks and components to reach the scheduler.
#[derive(Clone)]
pub struct Handle {
    kernel: Rc<RefCell<Kernel>>,
}

impl Sim {
    /// Creates a virtual-time simulation with random scheduling and
    /// `seed`; runs with equal seeds replay identically.
    pub fn new(seed: u64) -> Self {
        let kernel = Kernel {
            now: SimTime::ZERO,
            tasks: Vec::new(),
            free: Vec::new(),
            live: 0,
            runnable: Vec::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            rng: StdRng::seed_from_u64(seed),
            current: None,
            spawned_total: 0,
            steps: 0,
        };
        Sim { kernel: Rc::new(RefCell::new(kernel)) }
    }

    /// Returns a handle for spawning tasks and reading the clock.
    pub fn handle(&self) -> Handle {
        Handle { kernel: self.kernel.clone() }
    }

    /// Runs until all tasks finish or the system deadlocks.
    pub fn run(&self) -> RunResult {
        self.run_until(SimTime::MAX)
    }

    /// Runs until `limit`, task completion, or deadlock, whichever is first.
    pub fn run_until(&self, limit: SimTime) -> RunResult {
        loop {
            // Phase 1 (kernel borrowed): find the next task to poll.
            let next = {
                let mut k = self.kernel.borrow_mut();
                if k.runnable.is_empty() {
                    // Expire due timers, advancing the clock if necessary.
                    match k.timers.peek().map(|t| t.deadline) {
                        Some(deadline) => {
                            if deadline > limit {
                                k.now = limit;
                                return RunResult::TimeLimit;
                            }
                            k.now = k.now.max(deadline);
                            while let Some(t) = k.timers.peek() {
                                if t.deadline > k.now {
                                    break;
                                }
                                let entry = k.timers.pop().expect("peeked");
                                k.make_runnable(entry.task);
                            }
                            continue;
                        }
                        None => {
                            if k.live == 0 {
                                return RunResult::Completed;
                            }
                            return RunResult::Deadlock { blocked: k.live };
                        }
                    }
                }
                let id = match k.pick() {
                    Some(id) => id,
                    None => continue,
                };
                let slot = k.tasks[id.index as usize].as_mut().expect("picked task alive");
                let fut = slot.future.take().expect("runnable task has future");
                k.current = Some(id);
                k.steps += 1;
                (id, fut)
            };
            // Phase 2 (kernel released): poll the future.
            let (id, mut fut) = next;
            let poll = fut.as_mut().poll(&mut Context::from_waker(Waker::noop()));
            // Phase 3 (kernel borrowed): record the outcome.
            let mut k = self.kernel.borrow_mut();
            k.current = None;
            let slot = &mut k.tasks[id.index as usize];
            match poll {
                Poll::Ready(()) => {
                    let done = slot.take().expect("finished task has slot");
                    k.free.push(id.index);
                    k.live -= 1;
                    drop(fut);
                    for w in done.joiners {
                        k.make_runnable(w);
                    }
                }
                Poll::Pending => {
                    slot.as_mut().expect("pending task has slot").future = Some(fut);
                }
            }
        }
    }

    /// How far a rig lets a simulation run: far beyond any workload, yet
    /// short of [`SimTime::MAX`], so periodic daemons that outlive their
    /// file system (a flush timer, say) end the run with
    /// [`RunResult::TimeLimit`] instead of ticking forever.
    pub const HORIZON: SimTime = SimTime::from_nanos(u64::MAX / 2);

    /// Spawns `fut` as task `name`, runs until every task has finished
    /// or [`Sim::HORIZON`] is reached, and returns the task's output —
    /// the one way a rig or a test runs a simulation to completion.
    /// Rigs with several top-level tasks spawn them and call
    /// `run_until(Sim::HORIZON)` themselves.
    ///
    /// # Panics
    ///
    /// Panics, naming the task, if it has not finished when the run
    /// stops (a deadlock, or a task still waiting at the horizon).
    pub fn block_on<T: 'static>(&self, name: &str, fut: impl Future<Output = T> + 'static) -> T {
        let out = Rc::new(RefCell::new(None));
        let slot = out.clone();
        self.handle().spawn(name, async move {
            *slot.borrow_mut() = Some(fut.await);
        });
        let stopped = self.run_until(Self::HORIZON);
        let value = out.borrow_mut().take();
        value
            .unwrap_or_else(|| panic!("task {name:?} did not finish: run stopped with {stopped:?}"))
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.kernel.borrow().now
    }

    /// Number of scheduler steps (task polls) executed so far.
    pub fn steps(&self) -> u64 {
        self.kernel.borrow().steps
    }

    /// Number of still-live (unfinished) tasks.
    pub fn live_tasks(&self) -> usize {
        self.kernel.borrow().live
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // Break `Rc` cycles: futures hold Handles that point back at the
        // kernel. Take them out first and drop them with no borrow held,
        // because their own destructors may touch sync primitives.
        let futures: Vec<TaskFuture> = {
            let mut k = self.kernel.borrow_mut();
            k.tasks.iter_mut().flatten().filter_map(|s| s.future.take()).collect()
        };
        drop(futures);
    }
}

/// Owner handle for a spawned task; awaiting it joins the task. The
/// joiners live in the task's slot, so the task is finished once its
/// slot no longer holds its generation.
pub struct JoinHandle {
    kernel: Rc<RefCell<Kernel>>,
    task: TaskId,
}

impl JoinHandle {
    /// True if the task has run to completion.
    pub fn is_finished(&self) -> bool {
        self.kernel.borrow_mut().slot_mut(self.task).is_none()
    }
}

impl Future for JoinHandle {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut k = self.kernel.borrow_mut();
        let current = k.current;
        let Some(slot) = k.slot_mut(self.task) else {
            return Poll::Ready(());
        };
        let me = current.expect("not inside a simulation task");
        if !slot.joiners.contains(&me) {
            slot.joiners.push(me);
        }
        Poll::Pending
    }
}

impl Handle {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.kernel.borrow().now
    }

    /// Spawns a new simulated thread and returns its join handle. The
    /// name labels the call site for its reader; the kernel keeps none.
    pub fn spawn<F>(&self, _name: &str, fut: F) -> JoinHandle
    where
        F: Future<Output = ()> + 'static,
    {
        let mut k = self.kernel.borrow_mut();
        let id = match k.free.pop() {
            Some(index) => TaskId { index, gen: k.spawned_total as u32 },
            None => TaskId { index: k.tasks.len() as u32, gen: 0 },
        };
        let slot = TaskSlot {
            gen: id.gen,
            future: Some(Box::pin(fut)),
            queued: false,
            joiners: Vec::new(),
        };
        match k.tasks.get_mut(id.index as usize) {
            Some(free) => *free = Some(slot),
            None => k.tasks.push(Some(slot)),
        }
        k.spawned_total += 1;
        k.live += 1;
        k.make_runnable(id);
        JoinHandle { kernel: self.kernel.clone(), task: id }
    }

    /// Sleeps for `d` of simulated time.
    pub fn sleep(&self, d: SimDuration) -> Sleep {
        let deadline = self.kernel.borrow().now + d;
        Sleep { kernel: self.kernel.clone(), deadline, registered: false }
    }

    /// Sleeps until the given instant (no-op if already past).
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep { kernel: self.kernel.clone(), deadline, registered: false }
    }

    /// Yields the processor, letting other runnable tasks go first.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { kernel: self.kernel.clone(), yielded: false }
    }

    /// Draws a uniform random `u64` from the simulation RNG.
    pub fn rand_u64(&self) -> u64 {
        self.kernel.borrow_mut().rng.next_u64()
    }

    /// Draws a uniform random value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn rand_range(&self, lo: u64, hi: u64) -> u64 {
        self.kernel.borrow_mut().rng.gen_range(lo..hi)
    }

    /// Forks an independent deterministic RNG stream off the kernel RNG.
    pub fn fork_rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.rand_u64())
    }

    /// Id of the task currently being polled.
    ///
    /// # Panics
    ///
    /// Panics when called from outside a simulation task.
    pub fn current_task(&self) -> TaskId {
        self.kernel.borrow().current_task()
    }

    /// The current task's stable key for the tracer's lane routing.
    ///
    /// # Panics
    ///
    /// Panics when called from outside a simulation task.
    pub fn task_key(&self) -> u64 {
        self.current_task().key()
    }

    /// Opens a virtual-time tracing span on the current task's lane
    /// (see [`cnp_obs::trace::set_task_lane`]); a no-op returning
    /// [`cnp_obs::trace::SpanToken::NONE`] unless a tracer is installed.
    pub fn trace_span(&self, name: &'static str) -> cnp_obs::trace::SpanToken {
        if !cnp_obs::trace::enabled() {
            return cnp_obs::trace::SpanToken::NONE;
        }
        cnp_obs::trace::span_enter(self.task_key(), name, self.now().as_nanos())
    }

    /// Closes a span opened with [`Handle::trace_span`] at virtual now.
    pub fn trace_exit(&self, tok: cnp_obs::trace::SpanToken) {
        if tok.is_none() {
            return;
        }
        cnp_obs::trace::span_exit(tok, self.now().as_nanos());
    }

    /// Emits an instant tracing event on the current task's lane.
    pub fn trace_instant(&self, name: &'static str) {
        if !cnp_obs::trace::enabled() {
            return;
        }
        cnp_obs::trace::instant(self.task_key(), name, self.now().as_nanos(), Vec::new());
    }

    pub(crate) fn kernel(&self) -> &Rc<RefCell<Kernel>> {
        &self.kernel
    }
}

impl fmt::Debug for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Handle").field("now", &self.now()).finish()
    }
}

/// Future returned by [`Handle::sleep`] and [`Handle::sleep_until`].
pub struct Sleep {
    kernel: Rc<RefCell<Kernel>>,
    deadline: SimTime,
    registered: bool,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut k = self.kernel.borrow_mut();
        if k.now >= self.deadline {
            return Poll::Ready(());
        }
        if !self.registered {
            let me = k.current_task();
            k.add_timer(self.deadline, me);
            drop(k);
            self.registered = true;
        }
        Poll::Pending
    }
}

/// Future returned by [`Handle::yield_now`].
pub struct YieldNow {
    kernel: Rc<RefCell<Kernel>>,
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        if self.yielded {
            return Poll::Ready(());
        }
        let mut k = self.kernel.borrow_mut();
        let me = k.current_task();
        k.make_runnable(me);
        drop(k);
        self.yielded = true;
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn empty_sim_completes() {
        let sim = Sim::new(1);
        assert_eq!(sim.run(), RunResult::Completed);
    }

    #[test]
    fn single_task_runs() {
        let sim = Sim::new(1);
        let hit = Rc::new(Cell::new(false));
        let hit2 = hit.clone();
        sim.handle().spawn("t", async move {
            hit2.set(true);
        });
        assert_eq!(sim.run(), RunResult::Completed);
        assert!(hit.get());
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let h2 = h.clone();
        h.spawn("sleeper", async move {
            h2.sleep(SimDuration::from_secs(3600)).await;
            assert_eq!(h2.now().as_millis(), 3_600_000);
        });
        let t0 = std::time::Instant::now();
        assert_eq!(sim.run(), RunResult::Completed);
        // One simulated hour must cost (almost) no wall time.
        assert!(t0.elapsed().as_millis() < 1000);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(3600));
    }

    #[test]
    fn timers_fire_in_order() {
        let sim = Sim::new(7);
        let h = sim.handle();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (name, delay) in [("c", 30u64), ("a", 10), ("b", 20)] {
            let h2 = h.clone();
            let order = order.clone();
            h.spawn(name, async move {
                h2.sleep(SimDuration::from_millis(delay)).await;
                order.borrow_mut().push(delay);
            });
        }
        assert_eq!(sim.run(), RunResult::Completed);
        assert_eq!(*order.borrow(), vec![10, 20, 30]);
    }

    #[test]
    fn join_handle_waits_for_completion() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let h2 = h.clone();
        let done = Rc::new(Cell::new(0u32));
        let done2 = done.clone();
        let done3 = done.clone();
        h.spawn("outer", async move {
            let h3 = h2.clone();
            let jh = h2.spawn("inner", async move {
                h3.sleep(SimDuration::from_millis(5)).await;
                done2.set(1);
            });
            jh.await;
            assert_eq!(done3.get(), 1);
            done3.set(2);
        });
        assert_eq!(sim.run(), RunResult::Completed);
        assert_eq!(done.get(), 2);
    }

    #[test]
    fn deadlock_detected() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let h2 = h.clone();
        h.spawn("waits-forever", async move {
            // Sleep registered at MAX never fires; no other timer exists.
            h2.sleep_until(SimTime::MAX).await;
        });
        match sim.run_until(SimTime::from_nanos(u64::MAX - 1)) {
            RunResult::TimeLimit => {}
            other => panic!("expected TimeLimit, got {other:?}"),
        }
    }

    #[test]
    fn blocked_tasks_reported_as_deadlock() {
        let sim = Sim::new(1);
        let h = sim.handle();
        // A JoinHandle for a task that never finishes (awaiting itself is
        // impossible, so use an event-free pending future).
        struct Forever;
        impl Future for Forever {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
                Poll::Pending
            }
        }
        h.spawn("hang", async move {
            Forever.await;
        });
        assert_eq!(sim.run(), RunResult::Deadlock { blocked: 1 });
    }

    #[test]
    fn run_until_limits_time() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let h2 = h.clone();
        h.spawn("long", async move {
            h2.sleep(SimDuration::from_secs(100)).await;
        });
        let r = sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        assert_eq!(r, RunResult::TimeLimit);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(10));
    }

    #[test]
    fn deterministic_replay_same_seed() {
        fn trace(seed: u64) -> Vec<u64> {
            let sim = Sim::new(seed);
            let h = sim.handle();
            let log = Rc::new(RefCell::new(Vec::new()));
            for i in 0..16u64 {
                let h2 = h.clone();
                let log = log.clone();
                h.spawn("worker", async move {
                    // All become runnable at once; the random scheduler
                    // decides the interleaving.
                    h2.yield_now().await;
                    log.borrow_mut().push(i);
                });
            }
            sim.run();
            let v = log.borrow().clone();
            v
        }
        assert_eq!(trace(99), trace(99));
        // Different seeds should (overwhelmingly) produce different orders.
        assert_ne!(trace(99), trace(100));
    }

    #[test]
    fn spawn_from_task_and_counters() {
        let sim = Sim::new(3);
        let h = sim.handle();
        let h2 = h.clone();
        h.spawn("parent", async move {
            for _ in 0..4 {
                let h3 = h2.clone();
                h2.spawn("child", async move {
                    h3.sleep(SimDuration::from_micros(1)).await;
                });
            }
        });
        assert_eq!(sim.run(), RunResult::Completed);
        assert_eq!(sim.live_tasks(), 0);
        assert!(sim.steps() >= 5);
    }

    /// Pending until its flag is set; parks nothing but the
    /// `std::task::Waker` it was polled with — no sim primitive.
    struct WakerOnly(Rc<RefCell<(bool, Option<Waker>)>>);

    impl Future for WakerOnly {
        type Output = ();
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            let mut slot = self.0.borrow_mut();
            if slot.0 {
                return Poll::Ready(());
            }
            slot.1 = Some(cx.waker().clone());
            Poll::Pending
        }
    }

    #[test]
    #[should_panic(expected = "task \"waker-only\" did not finish: run stopped with Deadlock")]
    fn a_future_woken_only_through_its_std_waker_deadlocks() {
        // The releaser sets the flag and wakes the parked task's std
        // `Waker`; that is no `make_runnable`, so the task never runs again.
        let sim = Sim::new(1);
        let h = sim.handle();
        let slot = Rc::new(RefCell::new((false, None::<Waker>)));
        let (h2, release) = (h.clone(), slot.clone());
        h.spawn("releaser", async move {
            h2.sleep(SimDuration::from_millis(1)).await;
            let waker = {
                let mut slot = release.borrow_mut();
                slot.0 = true;
                slot.1.take().expect("task parked its waker")
            };
            waker.wake();
        });
        sim.block_on("waker-only", crate::join_all([WakerOnly(slot)]));
    }

    #[test]
    fn a_join_handle_stays_finished_after_its_slot_is_reused() {
        let sim = Sim::new(5);
        let h = sim.handle();
        let first = h.spawn("first", async {});
        assert_eq!(sim.run(), RunResult::Completed);
        assert!(first.is_finished());
        // The next spawn takes the freed slot under a new generation.
        let (h2, reused) = (h.clone(), Rc::new(Cell::new(false)));
        let reused2 = reused.clone();
        let second = h.spawn("second", async move {
            h2.sleep(SimDuration::from_millis(4)).await;
        });
        assert!(first.is_finished() && !second.is_finished());
        let h3 = h.clone();
        h.spawn("joiner", async move {
            first.await;
            assert_eq!(h3.now(), SimTime::ZERO, "the finished join returned at once");
            reused2.set(true);
        });
        assert_eq!(sim.run(), RunResult::Completed);
        assert!(reused.get() && second.is_finished());
    }

    #[test]
    fn block_on_returns_the_task_output() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let got = sim.block_on("answer", async move {
            h.sleep(SimDuration::from_millis(3)).await;
            h.now().as_millis() * 14
        });
        assert_eq!(got, 42);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    #[should_panic(expected = "task \"stuck-harness\" did not finish: run stopped with Deadlock")]
    fn block_on_names_the_task_that_deadlocked() {
        let sim = Sim::new(1);
        let h = sim.handle();
        sim.block_on("stuck-harness", async move {
            // Nobody ever signals: the run stops with this task blocked.
            crate::Event::new(&h).wait().await;
        });
    }

    #[test]
    #[should_panic(expected = "task \"sleeper\" did not finish: run stopped with TimeLimit")]
    fn block_on_names_the_task_still_waiting_at_the_horizon() {
        let sim = Sim::new(1);
        let h = sim.handle();
        sim.block_on("sleeper", async move { h.sleep_until(SimTime::MAX).await });
    }

    /// `block_on` is the hand-rolled idiom it replaced, step for step:
    /// same spawn point, same stop rule, so the seeded schedule, the
    /// step count and the final clock are all equal.
    #[test]
    fn block_on_matches_the_hand_rolled_idiom_on_a_seeded_multi_task_sim() {
        async fn body(h: Handle) -> Vec<u64> {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut joins = Vec::new();
            for i in 0..12u64 {
                let (h2, log) = (h.clone(), log.clone());
                joins.push(h.spawn("worker", async move {
                    h2.yield_now().await;
                    h2.sleep(SimDuration::from_micros(h2.rand_range(1, 50))).await;
                    log.borrow_mut().push(i);
                }));
            }
            for j in joins {
                j.await;
            }
            let v = log.borrow().clone();
            v
        }
        // A daemon that outlives the body (waking about nine times in
        // all): both runs end at the horizon.
        fn daemon(h: &Handle) {
            let h2 = h.clone();
            h.spawn("daemon", async move {
                loop {
                    h2.sleep(SimDuration::from_secs(1_000_000_000)).await;
                }
            });
        }
        let by_hand = Sim::new(77);
        let h = by_hand.handle();
        daemon(&h);
        let out = Rc::new(RefCell::new(None));
        let out2 = out.clone();
        let h2 = h.clone();
        h.spawn("harness", async move {
            *out2.borrow_mut() = Some(body(h2).await);
        });
        assert_eq!(by_hand.run_until(SimTime::from_nanos(u64::MAX / 2)), RunResult::TimeLimit);
        let expected = out.borrow_mut().take().expect("hand-rolled harness finished");

        let sim = Sim::new(77);
        let h = sim.handle();
        daemon(&h);
        assert_eq!(sim.block_on("harness", body(h)), expected);
        assert_eq!((sim.steps(), sim.now()), (by_hand.steps(), by_hand.now()));
        assert_eq!(sim.now(), Sim::HORIZON);
    }
}
