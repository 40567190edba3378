//! The first claims the repository records about its own results,
//! asserted on the rows the rigs return (the tables `patsy` prints are
//! formatted from the same rows). Shapes only — orderings, a knee, a
//! ratio with slack — never digits. Claims the model currently refutes
//! (ROADMAP item 1) are not here.

use cut_and_paste::patsy::ablate::{diskmodel_divergence, Ablation};
use cut_and_paste::patsy::figures::run_figure_cdf;
use cut_and_paste::patsy::Policy;

fn ablation(name: &str, scale: f64) -> Vec<cut_and_paste::patsy::ablate::Row> {
    Ablation::by_name(name).expect("a known ablation").run(scale, 365, 2)
}

/// `ablate-nvram`'s note: a bigger NVRAM stalls its writers less, and
/// from 8 MB on trace 1b never fills it — past the knee more buys
/// nothing.
#[test]
fn nvram_stalls_fall_with_size_and_vanish_at_the_knee() {
    let rows = ablation("nvram", 0.001);
    let stalls: Vec<u64> = rows.iter().map(|(_, r)| r.nvram_stalls).collect();
    assert_eq!(rows[3].0, "  8 MB");
    assert!(stalls.windows(2).all(|w| w[0] >= w[1]), "non-increasing in size: {stalls:?}");
    assert!(stalls[0] > 0, "the smallest NVRAM must stall: {stalls:?}");
    assert_eq!(stalls[3..], [0, 0, 0], "no stall from 8 MB on");
}

/// `ablate-diskmodel`: a fixed-cost disk is not a stand-in for the
/// detailed model (Ruemmler & Wilkes).
#[test]
fn the_naive_disk_model_diverges_from_the_detailed_one() {
    let divergence = diskmodel_divergence(&ablation("diskmodel", 0.01));
    assert!(divergence > 0.10, "naive vs detailed: {:.1}%", divergence * 100.0);
}

/// `ablate-diskcache`: immediate-report and read-ahead pay for
/// themselves.
#[test]
fn the_disk_cache_lowers_mean_latency() {
    let rows = ablation("diskcache", 0.01);
    let (on, off) = (rows[0].1.report.mean_ms(), rows[1].1.report.mean_ms());
    assert_eq!((rows[0].0, rows[1].0), ("on", "off"));
    assert!(on < off, "disk cache on {on:.3} ms, off {off:.3} ms");
}

/// §5.1's write-saving quantity: the longer a policy may hold dirty
/// data, the more of it dies in the cache.
#[test]
fn write_absorption_orders_ups_over_nvram_over_write_delay() {
    let rows = run_figure_cdf("1a", 0.01, 365, 1, 2);
    let absorbed = |policy: Policy| {
        rows.iter().find(|r| r.policy == policy).expect("a row per policy").absorption
    };
    let (ups, nvram, delay) =
        (absorbed(Policy::Ups), absorbed(Policy::NvramWhole), absorbed(Policy::WriteDelay));
    assert!(ups > nvram && nvram > delay, "ups {ups:.3} > nvram-whole {nvram:.3} > {delay:.3}");
}
