//! Seeded derivation of deterministic fault schedules.
//!
//! A [`cnp_disk::FaultPlan`] is pure data; this module is the only
//! place randomness enters, and it is always an explicit seed, so a
//! fault scenario replays bit-identically — the property every other
//! experiment in the framework already has.

use cnp_disk::FaultPlan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builder for deterministic [`FaultPlan`]s.
///
/// ```
/// use cnp_fault::FaultPlanBuilder;
///
/// let plan = FaultPlanBuilder::new(42)
///     .power_cut_at_op(100)
///     .torn_write_sectors(4)
///     .random_latent_sectors(8, 1_000_000)
///     .build();
/// assert_eq!(plan.power_cut_at_op, Some(100));
/// assert_eq!(plan.latent_ranges.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    plan: FaultPlan,
    rng: StdRng,
}

impl FaultPlanBuilder {
    /// Starts an empty plan; `seed` drives every `random_*` method.
    pub fn new(seed: u64) -> Self {
        FaultPlanBuilder { plan: FaultPlan::default(), rng: StdRng::seed_from_u64(seed) }
    }

    /// Power-cut the disk when it serves its `op`-th request (0-based).
    pub fn power_cut_at_op(mut self, op: u64) -> Self {
        self.plan.power_cut_at_op = Some(op);
        self
    }

    /// When the power cut lands on a write, let this many sectors of it
    /// become durable first (a torn write).
    pub fn torn_write_sectors(mut self, sectors: u32) -> Self {
        self.plan.torn_write_sectors = sectors;
        self
    }

    /// After the cut, lets the first writes the disk serves retire
    /// durably — unacknowledged (see `FaultPlan::cut_retire_ops` for
    /// the order). Its length is drawn
    /// uniformly from `[0, max_ops]`, deterministically from the seed:
    /// every crash replay samples a different (but replayable)
    /// interleaving of the outstanding set.
    pub fn random_cut_retire(mut self, max_ops: u64) -> Self {
        self.plan.cut_retire_ops = self.rng.gen_range(0..=max_ops);
        self
    }

    /// Scatters `count` single latent sectors (reads fail until the
    /// sector is rewritten) uniformly over `[0, capacity_sectors)`,
    /// deterministically from the seed.
    pub fn random_latent_sectors(mut self, count: usize, capacity_sectors: u64) -> Self {
        for _ in 0..count {
            let s = self.rng.gen_range(0..capacity_sectors.max(1));
            self.plan.latent_ranges.push((s, s + 1));
        }
        self
    }

    /// Finishes the plan.
    pub fn build(self) -> FaultPlan {
        self.plan
    }
}

/// `cuts` evenly spaced interior cut points over a workload of
/// `total_ops` operations (never 0, never `total_ops`).
pub fn cut_points(total_ops: u64, cuts: u32) -> Vec<u64> {
    let cuts = cuts.max(1) as u64;
    (1..=cuts).map(|i| (i * total_ops / (cuts + 1)).max(1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes_fields() {
        let plan = FaultPlanBuilder::new(7)
            .power_cut_at_op(10)
            .torn_write_sectors(2)
            .random_cut_retire(0)
            .random_latent_sectors(1, 1)
            .build();
        assert_eq!(plan.power_cut_at_op, Some(10));
        assert_eq!(plan.torn_write_sectors, 2);
        assert_eq!(plan.cut_retire_ops, 0);
        assert_eq!(plan.latent_ranges, vec![(0, 1)]);
    }

    #[test]
    fn random_cut_retire_is_seeded_and_bounded() {
        let a = FaultPlanBuilder::new(5).random_cut_retire(16).build();
        let b = FaultPlanBuilder::new(5).random_cut_retire(16).build();
        assert_eq!(a.cut_retire_ops, b.cut_retire_ops);
        assert!(a.cut_retire_ops <= 16);
    }

    #[test]
    fn random_parts_are_seed_deterministic() {
        let a = FaultPlanBuilder::new(11).random_latent_sectors(16, 1 << 20).build();
        let b = FaultPlanBuilder::new(11).random_latent_sectors(16, 1 << 20).build();
        let c = FaultPlanBuilder::new(12).random_latent_sectors(16, 1 << 20).build();
        assert_eq!(a.latent_ranges, b.latent_ranges);
        assert_ne!(a.latent_ranges, c.latent_ranges);
    }

    #[test]
    fn cut_points_are_interior_and_sorted() {
        let pts = cut_points(1000, 16);
        assert_eq!(pts.len(), 16);
        assert!(pts.windows(2).all(|w| w[0] <= w[1]));
        assert!(pts.iter().all(|&p| (1..1000).contains(&p)));
    }
}
