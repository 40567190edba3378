//! `cnp-benchmark compare <a> <b>`: two sets of output records, one row
//! per (workload, metric), each judged by its own bound.
//!
//! A file holds the standard output of any number of runs; only the
//! record lines (JSON objects with a `workload` key) are read. Side `a`
//! is the baseline.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::spec::{Better, Kind, END_TO_END, PER_LAYER, PROBE_BOUND};
use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound and the two sides
    /// overlap: the data cannot tell.
    Unresolved,
    /// The two sides did different amounts of work.
    Refused,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Refused => "refused",
        }
    }
}

/// How much better `b`'s median is than `a`'s, as a share of `a`'s
/// (negative: worse).
fn improvement(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Higher => (b - a) / a.abs(),
        Better::Lower => (a - b) / a.abs(),
    }
}

fn iqr_share(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Judges one (workload, metric) pair. `bound` is the share of the
/// baseline's median by which the metric may worsen; `None` marks an
/// exact metric (a count or a virtual-time value), where any difference
/// is a change.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let gain = improvement(median(a), median(b), better);
    let Some(bound) = bound else {
        return match gain {
            g if g > 0.0 => Verdict::Better,
            g if g < 0.0 => Verdict::Worse,
            _ if median(a) != median(b) => Verdict::Worse, // moved off an exact zero
            _ => Verdict::Same,
        };
    };
    if iqr_share(a).max(iqr_share(b)) > bound {
        // Too noisy for the bound: only a clean separation counts.
        let all_better = a.iter().all(|&x| b.iter().all(|&y| improvement(x, y, better) > 0.0));
        let all_worse = a.iter().all(|&x| b.iter().all(|&y| improvement(x, y, better) < 0.0));
        return if all_better {
            Verdict::Better
        } else if all_worse && gain < -bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One side's records, pooled over seeds the way the benchmark's
/// driver pools them.
#[derive(Default)]
struct Side {
    /// (workload, seed) -> work units per rep.
    units: BTreeMap<(String, u64), f64>,
    /// (workload, metric) -> one value per run.
    values: BTreeMap<(String, String), Vec<f64>>,
}

fn load(path: &str) -> Result<Side, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut side = Side::default();
    for (n, line) in body.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with("{\"workload\"") {
            continue;
        }
        let rec = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let field =
            |k: &str| rec.get(k).ok_or_else(|| format!("{path}:{}: record lacks {k}", n + 1));
        let workload = field("workload")?.as_str().ok_or("workload is not a string")?.to_string();
        let units = field("units")?.as_f64().ok_or("units is not a number")?;
        let seed = field("seed")?.as_f64().ok_or("seed is not a number")? as u64;
        side.units.insert((workload.clone(), seed), units);
        for (name, m) in field("metrics")?.as_obj().ok_or("metrics is not an object")? {
            let v = m.get("value").and_then(Value::as_f64).ok_or("metric without a value")?;
            side.values.entry((workload.clone(), name.clone())).or_default().push(v);
        }
    }
    if side.values.is_empty() {
        return Err(format!("{path}: no benchmark records found"));
    }
    Ok(side)
}

/// How a metric is judged: its direction, its bound (`None`: exact),
/// and whether a `Worse` verdict fails the comparison. Host probes are
/// diagnostics without a bound in `BENCHMARK.json`: they are judged by
/// [`PROBE_BOUND`] and reported, but only end-to-end and exact rows gate.
/// `None` for names that are not compared (unknown, or validity rows).
fn rule(name: &str) -> Option<(Better, Option<f64>, bool)> {
    if let Some(e) = END_TO_END.iter().find(|e| e.name == name) {
        return Some((e.better, Some(e.bound), true));
    }
    let p = PER_LAYER.iter().find(|p| p.name == name)?;
    match p.kind {
        Kind::Probe | Kind::Host => Some((p.better, Some(PROBE_BOUND), false)),
        Kind::Count | Kind::Span => Some((p.better, None, true)),
        Kind::Validity => None,
    }
}

/// Compares two record files and prints the table. Exit code 1 when a
/// gating row is worse or a row is refused.
pub fn compare(a_path: &str, b_path: &str) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    println!(
        "{:<16} {:<32} {:>3} {:>16} {:>3} {:>16} {:>8}  verdict",
        "workload", "metric", "n", "a median", "n", "b median", "change"
    );
    let mut bad = 0;
    for ((workload, name), av) in &a.values {
        let Some(bv) = b.values.get(&(workload.clone(), name.clone())) else { continue };
        let Some((better, bound, gates)) = rule(name) else { continue };
        let (ma, mb) = (median(av), median(bv));
        if ma == 0.0 && mb == 0.0 {
            continue; // not applicable to this workload
        }
        // A changed workload is not a speed-up: per-unit and per-second
        // figures of different amounts of work do not compare.
        let same_work = a
            .units
            .iter()
            .filter(|((w, _), _)| w == workload)
            .all(|(key, units)| b.units.get(key).is_none_or(|other| other == units));
        let per_unit = name == "work_per_host_s" || name.ends_with("_per_unit");
        let verdict =
            if per_unit && !same_work { Verdict::Refused } else { judge(av, bv, better, bound) };
        let fails = verdict == Verdict::Refused || (gates && verdict == Verdict::Worse);
        bad += usize::from(fails);
        println!(
            "{workload:<16} {name:<32} {:>3} {ma:>16.6} {:>3} {mb:>16.6} {:>+7.1}%  {}{}",
            av.len(),
            bv.len(),
            improvement(ma, mb, better) * 100.0,
            if fails { verdict.name().to_uppercase() } else { verdict.name().to_string() },
            if verdict == Verdict::Refused {
                " (work-unit counts differ at a shared seed)"
            } else {
                ""
            },
        );
    }
    println!(
        "change is b against a, positive = better; upper case fails the comparison (end-to-end \
         and exact rows gate, host probes only inform); {bad} failing row(s)"
    );
    i32::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    #[test]
    fn bounded_metrics_move_only_past_their_bound() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(judge(&a, &[95.0, 96.0, 94.0], Higher, Some(0.10)), Verdict::Same);
        assert_eq!(judge(&a, &[85.0, 86.0, 84.0], Higher, Some(0.10)), Verdict::Worse);
        assert_eq!(judge(&a, &[115.0, 116.0, 114.0], Higher, Some(0.10)), Verdict::Better);
        // The same numbers read the other way for a lower-is-better metric.
        assert_eq!(judge(&a, &[85.0, 86.0, 84.0], Lower, Some(0.10)), Verdict::Better);
        assert_eq!(judge(&a, &[115.0, 116.0, 114.0], Lower, Some(0.10)), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_cleanly_separated() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(&noisy, &[85.0, 105.0, 125.0], Higher, Some(0.05)), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &[130.0, 150.0, 140.0], Higher, Some(0.05)), Verdict::Better);
        assert_eq!(judge(&noisy, &[50.0, 70.0, 60.0], Higher, Some(0.05)), Verdict::Worse);
    }

    #[test]
    fn exact_metrics_tolerate_no_difference() {
        assert_eq!(judge(&[56586.841478], &[56586.841478], Higher, None), Verdict::Same);
        assert_eq!(judge(&[56586.841478], &[56586.841477], Higher, None), Verdict::Worse);
        assert_eq!(judge(&[0.0], &[3.0], Lower, None), Verdict::Worse);
        assert_eq!(judge(&[0.934214], &[0.9], Lower, None), Verdict::Better);
    }

    fn record(workload: &str, units: u64, metric: &str, value: f64) -> String {
        format!(
            "noise before\n{{\"workload\":\"{workload}\",\"seed\":42,\"units\":{units},\"metrics\":\
             {{\"{metric}\":{{\"value\":{value},\"unit\":\"x\"}}}}}}\n{{\"correct\":true}}\n"
        )
    }

    #[test]
    fn throughput_of_different_work_is_refused() {
        let dir =
            std::env::temp_dir().join(format!("cnp-benchmark-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, body: String| {
            let p = dir.join(name);
            std::fs::write(&p, body).unwrap();
            p.to_str().unwrap().to_string()
        };
        let a = write("a.json", record("zipf-256", 12544, "work_per_host_s", 7000.0));
        let same = write("same.json", record("zipf-256", 12544, "work_per_host_s", 7100.0));
        let fewer = write("fewer.json", record("zipf-256", 6000, "work_per_host_s", 9000.0));
        assert_eq!(compare(&a, &same), 0);
        assert_eq!(compare(&a, &fewer), 1, "a smaller workload must not pass as a speed-up");
        assert_eq!(compare(&a, dir.join("missing.json").to_str().unwrap()), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
