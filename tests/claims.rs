//! The claims ledger's recorded verdicts (EXPERIMENTS.md
//! "Paper-vs-measured status"): each claim a rig judges, at a scale
//! small enough for tier-1, with the verdict it had when recorded. A
//! `Holds` row must keep holding and a `Refuted` or `Vacuous` row must
//! stay that way, so a model fix or an accidental change of shape fails
//! here either way; the change that moves a verdict updates its row and
//! the ledger. The claims that hold also have a test of their own, named
//! for what they say.

use cut_and_paste::patsy::rigs::Verdict::{self, *};
use cut_and_paste::patsy::rigs::{Rig, Row, RIGS};

/// (rig, scale, seed, claim id, verdict), each (rig, scale, seed)'s rows
/// adjacent.
const LEDGER: [(&str, f64, u64, &str, Verdict); 11] = [
    ("fig2", 0.01, 365, "mean-order", Refuted),
    ("fig2", 0.01, 365, "absorption", Holds),
    ("fig2", 0.01, 365, "rotation-step", Refuted),
    ("fig5", 0.001, 365, "ups-fastest", Holds),
    ("fig5", 0.001, 365, "nvram-2x", Refuted),
    ("ablate-diskmodel", 0.01, 365, "naive-diverges", Holds),
    ("ablate-diskmodel", 0.005, 365, "naive-diverges", Holds),
    ("ablate-diskcache", 0.01, 365, "disk-cache-helps", Holds),
    ("ablate-nvram", 0.001, 365, "nvram-stall-knee", Holds),
    ("ablate-nvram", 0.001, 365, "nvram-mean-flat", Refuted),
    ("ablate-cleaner", 0.01, 365, "cleaner-policy", Vacuous),
];

#[test]
fn every_recorded_verdict_stands() {
    let mut moved = Vec::new();
    for group in LEDGER.chunk_by(|a, b| (a.0, a.1, a.2) == (b.0, b.1, b.2)) {
        let (name, scale, seed, ..) = group[0];
        let rig = Rig::by_name(name).expect("a rig");
        let rows = rig.run(scale, seed, 1, 2);
        for &(_, _, _, id, want) in group {
            let claim = rig.claims.iter().find(|c| c.id == id).expect("a claim of the rig");
            let (got, measured) = (claim.judge)(&rows);
            if got != want {
                moved.push(format!("{name} {scale} {id}: {want:?} -> {got:?} ({measured})"));
            }
        }
    }
    assert!(moved.is_empty(), "verdicts moved:\n{}", moved.join("\n"));
}

/// A claim added to a rig is recorded here too.
#[test]
fn every_claim_has_a_recorded_verdict() {
    for rig in &RIGS {
        for claim in rig.claims {
            assert!(LEDGER.iter().any(|row| row.3 == claim.id), "{} {}", rig.name, claim.id);
        }
    }
}

/// Runs `rig` at `scale` (seed 365, queue depth 1), asserts its claim
/// `id` holds, and returns the rows it was judged on.
fn assert_holds(rig: &str, scale: f64, id: &str) -> Vec<Row> {
    let rig = Rig::by_name(rig).expect("a rig");
    let rows = rig.run(scale, 365, 1, 2);
    let claim = rig.claims.iter().find(|c| c.id == id).expect("a claim of the rig");
    let (got, measured) = (claim.judge)(&rows);
    assert_eq!(got, Holds, "{} {scale} {id}: {}: {measured}", rig.name, claim.words);
    rows
}

/// `ablate-nvram`: a bigger NVRAM stalls its writers less, and from 8 MB
/// on trace 1b never fills it — past the knee more buys nothing.
#[test]
fn nvram_stalls_fall_with_size_and_vanish_at_the_knee() {
    let rows = assert_holds("ablate-nvram", 0.001, "nvram-stall-knee");
    assert_eq!(rows[3].0, "  8 MB", "the claim reads the knee at row 3");
}

/// `ablate-diskmodel`: a fixed-cost disk is not a stand-in for the
/// detailed model (Ruemmler & Wilkes).
#[test]
fn the_naive_disk_model_diverges_from_the_detailed_one() {
    assert_holds("ablate-diskmodel", 0.01, "naive-diverges");
}

/// `ablate-diskcache`: immediate-report and read-ahead pay for
/// themselves.
#[test]
fn the_disk_cache_lowers_mean_latency() {
    let rows = assert_holds("ablate-diskcache", 0.01, "disk-cache-helps");
    assert_eq!((rows[0].0, rows[1].0), ("disk cache on ", "disk cache off"));
}

/// §5.1's write-saving quantity: the longer a policy may hold dirty
/// data, the more of it dies in the cache.
#[test]
fn write_absorption_orders_ups_over_nvram_over_write_delay() {
    assert_holds("fig2", 0.01, "absorption");
}
