//! The cell runner: independent seeded simulations across host threads.
//!
//! Every rig is a list of cells — a spec in, one [`crate::Sim`] built,
//! run and dropped, a result out — and a cell is a pure function of its
//! spec. So the list can fan out across OS threads without moving a
//! byte of any report: workers claim cells from a shared counter, only
//! specs and results cross threads, and the results come back in spec
//! order whatever order they finished in. Printing and folding happen
//! in the caller, after the merge.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `run` on every spec across `threads` host threads and returns
/// the outputs in spec order. Workers claim specs in list order, so a
/// caller that knows its costs lists the expensive specs first. The
/// calling thread is the first worker: with one thread (or none asked
/// for) no thread is spawned, the cells run in spec order, and
/// thread-local state such as an installed tracer sees every one.
///
/// # Panics
///
/// If a cell panics, no further cell is claimed, and once the running
/// ones have finished the panic is raised again on the calling thread,
/// prefixed with the cell's index in `specs`.
pub fn run_cells<S: Sync, O: Send>(
    specs: &[S],
    threads: usize,
    run: impl Fn(&S) -> O + Sync,
) -> Vec<O> {
    // A work counter: it publishes nothing but itself (the specs are
    // shared before the workers start, the results travel by `join`).
    let next = AtomicUsize::new(0);
    let panicked: Mutex<Option<(usize, String)>> = Mutex::new(None);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(spec) = specs.get(i) else { break };
            match catch_unwind(AssertUnwindSafe(|| run(spec))) {
                Ok(out) => done.push((i, out)),
                Err(payload) => {
                    next.store(specs.len(), Ordering::Relaxed);
                    let message = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("a non-string panic payload");
                    // Nothing panics while holding this lock.
                    let mut first = panicked.lock().expect("the panic slot is never poisoned");
                    first.get_or_insert((i, message.to_string()));
                    break;
                }
            }
        }
        done
    };
    let mut done: Vec<(usize, O)> = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..threads.min(specs.len())).map(|_| s.spawn(worker)).collect();
        let mut done = worker();
        for handle in spawned {
            done.extend(handle.join().expect("a worker catches its cells' panics"));
        }
        done
    });
    if let Some((i, message)) = panicked.into_inner().expect("the panic slot is never poisoned") {
        panic!("cell {i} of {} panicked: {message}", specs.len());
    }
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};
    use std::sync::Barrier;

    /// A cell as the rigs build them: its own seeded `Sim`, a few
    /// tasks, a number that depends on the seed and on nothing else.
    fn cell(seed: &u64) -> (u64, u64) {
        let sim = Sim::new(*seed);
        let h = sim.handle();
        let out = sim.block_on("cell", async move {
            for _ in 0..(h.rand_u64() % 8) {
                h.sleep(SimDuration::from_millis(1 + h.rand_u64() % 5)).await;
            }
            h.now().as_nanos()
        });
        (*seed, out)
    }

    #[test]
    fn outputs_come_back_in_spec_order_at_every_thread_count() {
        let specs: Vec<u64> = (0..23).collect();
        let serial: Vec<(u64, u64)> = specs.iter().map(cell).collect();
        for threads in [0, 1, 2, 4, 64] {
            assert_eq!(run_cells(&specs, threads, cell), serial, "{threads} threads");
        }
        assert_eq!(run_cells(&[] as &[u64], 4, cell), vec![]);
    }

    #[test]
    fn one_thread_runs_every_cell_on_the_calling_thread_in_spec_order() {
        let me = std::thread::current().id();
        let claimed = Mutex::new(Vec::new());
        let out = run_cells(&[3u64, 9, 1], 1, |&s| {
            assert_eq!(std::thread::current().id(), me);
            claimed.lock().unwrap().push(s);
            s * 2
        });
        assert_eq!(out, [6, 18, 2]);
        assert_eq!(*claimed.lock().unwrap(), [3, 9, 1]);
    }

    #[test]
    fn cells_overlap_across_threads() {
        // Each cell waits for the other: with fewer than two workers
        // running at once this would never return.
        let both = Barrier::new(2);
        let out = run_cells(&[1u8, 2], 2, |&s| {
            both.wait();
            s
        });
        assert_eq!(out, [1, 2]);
    }

    #[test]
    #[should_panic(expected = "cell 5 of 12 panicked: spec 5 is bad")]
    fn a_panicking_cell_is_named_by_index_and_does_not_hang() {
        let specs: Vec<u64> = (0..12).collect();
        run_cells(&specs, 4, |&s| {
            assert!(s != 5, "spec {s} is bad");
            cell(&s)
        });
    }

    #[test]
    #[should_panic(expected = "cell 0 of 3 panicked: on the calling thread")]
    fn a_panic_on_the_calling_thread_is_named_too() {
        run_cells(&[0u8, 1, 2], 1, |_| panic!("on the calling thread"));
    }
}
