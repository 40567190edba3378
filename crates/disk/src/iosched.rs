//! Disk-queue scheduling policies.
//!
//! "They can implement disk queue scheduling policies to optimize disk
//! I/O queue time (e.g. SCAN, C-SCAN, LOOK, C-LOOK)… Currently, only one
//! disk-driver exists. This driver implements a combined read-write queue
//! and schedules I/O requests through the C-LOOK scheduling policy." (§3)
//!
//! A policy inspects the pending queue and the current head position and
//! picks the index of the next request to dispatch. SCAN and LOOK share
//! pick order in this model (the queue-order difference between them is
//! the sweep to the physical edge, which only costs time, not order);
//! both are provided for completeness, and `sweep-qd` (A3) runs SCAN.

/// Metadata a scheduler sees for each pending request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingMeta {
    /// First logical block address of the request.
    pub lba: u64,
    /// Arrival sequence number (FIFO tiebreak).
    pub seq: u64,
}

/// Which way the arm is sweeping (for elevator-style policies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Direction {
    #[default]
    Up,
    Down,
}

/// A queue scheduling policy. Stateful (elevator direction).
pub trait QueueScheduler {
    /// Human-readable policy name.
    fn name(&self) -> &'static str;

    /// Picks the index of the next request to dispatch.
    ///
    /// `queue` is non-empty; `head_lba` is where the previous dispatch
    /// finished.
    fn pick(&mut self, queue: &[PendingMeta], head_lba: u64) -> usize;
}

/// First come, first served.
#[derive(Debug, Default, Clone)]
pub struct Fcfs;

impl QueueScheduler for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn pick(&mut self, queue: &[PendingMeta], _head_lba: u64) -> usize {
        queue
            .iter()
            .enumerate()
            .min_by_key(|(_, m)| m.seq)
            .map(|(i, _)| i)
            .expect("non-empty queue")
    }
}

/// Shortest seek time first (by LBA distance).
#[derive(Debug, Default, Clone)]
pub struct Sstf;

impl QueueScheduler for Sstf {
    fn name(&self) -> &'static str {
        "sstf"
    }

    fn pick(&mut self, queue: &[PendingMeta], head_lba: u64) -> usize {
        queue
            .iter()
            .enumerate()
            .min_by_key(|(_, m)| (m.lba.abs_diff(head_lba), m.seq))
            .map(|(i, _)| i)
            .expect("non-empty queue")
    }
}

/// Elevator: serve in the sweep direction, reverse when nothing remains
/// ahead (LOOK behaviour; see module docs for the SCAN relationship).
#[derive(Debug, Default, Clone)]
pub struct Look {
    dir: Direction,
}

impl Look {
    fn pick_elevator(&mut self, queue: &[PendingMeta], head_lba: u64) -> usize {
        for _ in 0..2 {
            let best = match self.dir {
                Direction::Up => queue
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| m.lba >= head_lba)
                    .min_by_key(|(_, m)| (m.lba, m.seq)),
                Direction::Down => queue
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| m.lba <= head_lba)
                    .max_by_key(|(_, m)| (m.lba, u64::MAX - m.seq)),
            };
            if let Some((i, _)) = best {
                return i;
            }
            self.dir = match self.dir {
                Direction::Up => Direction::Down,
                Direction::Down => Direction::Up,
            };
        }
        // All requests equal to head and filters missed: take the first.
        0
    }
}

impl QueueScheduler for Look {
    fn name(&self) -> &'static str {
        "look"
    }

    fn pick(&mut self, queue: &[PendingMeta], head_lba: u64) -> usize {
        self.pick_elevator(queue, head_lba)
    }
}

/// SCAN: identical pick order to LOOK in this model.
#[derive(Debug, Default, Clone)]
pub struct Scan {
    inner: Look,
}

impl QueueScheduler for Scan {
    fn name(&self) -> &'static str {
        "scan"
    }

    fn pick(&mut self, queue: &[PendingMeta], head_lba: u64) -> usize {
        self.inner.pick_elevator(queue, head_lba)
    }
}

/// C-LOOK: serve ascending; when nothing is ahead, wrap to the lowest
/// pending LBA (the paper's production policy).
#[derive(Debug, Default, Clone)]
pub struct CLook;

impl QueueScheduler for CLook {
    fn name(&self) -> &'static str {
        "c-look"
    }

    fn pick(&mut self, queue: &[PendingMeta], head_lba: u64) -> usize {
        let ahead = queue
            .iter()
            .enumerate()
            .filter(|(_, m)| m.lba >= head_lba)
            .min_by_key(|(_, m)| (m.lba, m.seq));
        match ahead {
            Some((i, _)) => i,
            None => queue
                .iter()
                .enumerate()
                .min_by_key(|(_, m)| (m.lba, m.seq))
                .map(|(i, _)| i)
                .expect("non-empty queue"),
        }
    }
}

/// C-SCAN: identical pick order to C-LOOK in this model.
#[derive(Debug, Default, Clone)]
pub struct CScan {
    inner: CLook,
}

impl QueueScheduler for CScan {
    fn name(&self) -> &'static str {
        "c-scan"
    }

    fn pick(&mut self, queue: &[PendingMeta], head_lba: u64) -> usize {
        self.inner.pick(queue, head_lba)
    }
}

/// Builds a scheduler by name (for CLI/experiment configuration).
pub fn scheduler_by_name(name: &str) -> Option<Box<dyn QueueScheduler>> {
    match name {
        "fcfs" => Some(Box::new(Fcfs)),
        "sstf" => Some(Box::new(Sstf)),
        "scan" => Some(Box::new(Scan::default())),
        "look" => Some(Box::new(Look::default())),
        "c-scan" | "cscan" => Some(Box::new(CScan::default())),
        "c-look" | "clook" => Some(Box::new(CLook)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue(lbas: &[u64]) -> Vec<PendingMeta> {
        lbas.iter().enumerate().map(|(i, &lba)| PendingMeta { lba, seq: i as u64 }).collect()
    }

    /// Drains a queue through a policy, returning the service order.
    fn drain(policy: &mut dyn QueueScheduler, lbas: &[u64], start: u64) -> Vec<u64> {
        let mut q = queue(lbas);
        let mut head = start;
        let mut order = Vec::new();
        while !q.is_empty() {
            let i = policy.pick(&q, head);
            let m = q.remove(i);
            head = m.lba;
            order.push(m.lba);
        }
        order
    }

    #[test]
    fn fcfs_is_arrival_order() {
        let mut p = Fcfs;
        assert_eq!(drain(&mut p, &[50, 10, 90, 30], 0), vec![50, 10, 90, 30]);
    }

    #[test]
    fn sstf_picks_nearest() {
        let mut p = Sstf;
        assert_eq!(drain(&mut p, &[50, 10, 90, 30], 35), vec![30, 50, 10, 90]);
    }

    #[test]
    fn clook_ascends_then_wraps() {
        let mut p = CLook;
        assert_eq!(drain(&mut p, &[50, 10, 90, 30], 40), vec![50, 90, 10, 30]);
    }

    #[test]
    fn clook_pure_ascending_when_head_below_all() {
        let mut p = CLook;
        assert_eq!(drain(&mut p, &[50, 10, 90, 30], 0), vec![10, 30, 50, 90]);
    }

    #[test]
    fn look_sweeps_up_then_down() {
        let mut p = Look::default();
        assert_eq!(drain(&mut p, &[50, 10, 90, 30], 40), vec![50, 90, 30, 10]);
    }

    #[test]
    fn scan_matches_look_order() {
        let mut a = Look::default();
        let mut b = Scan::default();
        let lbas = [5u64, 95, 40, 60, 20, 80];
        assert_eq!(drain(&mut a, &lbas, 50), drain(&mut b, &lbas, 50));
    }

    #[test]
    fn cscan_matches_clook_order() {
        let mut a = CLook;
        let mut b = CScan::default();
        let lbas = [5u64, 95, 40, 60, 20, 80];
        assert_eq!(drain(&mut a, &lbas, 50), drain(&mut b, &lbas, 50));
    }

    #[test]
    fn all_policies_serve_everything_once() {
        for name in ["fcfs", "sstf", "scan", "look", "c-scan", "c-look"] {
            let mut p = scheduler_by_name(name).unwrap();
            let lbas = [13u64, 2, 77, 41, 99, 8, 55];
            let mut order = drain(p.as_mut(), &lbas, 30);
            order.sort();
            let mut want = lbas.to_vec();
            want.sort();
            assert_eq!(order, want, "policy {name} lost or duplicated requests");
        }
    }

    #[test]
    fn ties_broken_by_arrival() {
        let mut p = Sstf;
        let q = queue(&[40, 40, 40]);
        assert_eq!(p.pick(&q, 40), 0);
    }

    #[test]
    fn unknown_name_rejected() {
        assert!(scheduler_by_name("zone-clock").is_none());
    }
}
