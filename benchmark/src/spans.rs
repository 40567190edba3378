//! Folds the tracer's Chrome export into per-family virtual self time.
//!
//! The tracer's event buffer is crate-private, so the harness reads
//! what any user can: `chrome::to_chrome_json`, one event object per
//! line. A span's self time is its duration minus the part of that
//! interval its same-lane child spans cover; a family is the span
//! name's prefix before the colon (`op`, `lock`, `cache`, `flush`,
//! `layout`, `io`).

use std::collections::BTreeMap;

use crate::json::{self, Value};

/// One family's totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FamilyTime {
    /// Complete (`"ph":"X"`) events.
    pub spans: u64,
    /// Sum of durations (virtual ns).
    pub total_ns: u64,
    /// Sum of self times (virtual ns).
    pub self_ns: u64,
}

/// A trace folded by family, plus how many events of any phase it held.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Folded {
    pub families: BTreeMap<String, FamilyTime>,
    /// Span and instant events (metadata rows excluded).
    pub events: u64,
}

impl Folded {
    pub fn family(&self, name: &str) -> FamilyTime {
        self.families.get(name).copied().unwrap_or_default()
    }
}

struct Span {
    family: String,
    start: u64,
    end: u64,
}

/// Fixed-point microseconds (`12.345`) to nanoseconds.
fn us_to_ns(v: &Value) -> Option<u64> {
    let us = v.as_f64()?;
    (us >= 0.0).then(|| (us * 1000.0).round() as u64)
}

/// Folds a Chrome trace-event array as `to_chrome_json` writes it.
pub fn fold_chrome_json(trace: &str) -> Result<Folded, String> {
    let mut lanes: BTreeMap<(u64, u64), Vec<Span>> = BTreeMap::new();
    let mut out = Folded::default();
    for line in trace.lines() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with('{') {
            continue;
        }
        let ev = json::parse(line)?;
        let ph = ev.get("ph").and_then(Value::as_str).ok_or("event without ph")?;
        if ph == "M" {
            continue;
        }
        out.events += 1;
        if ph != "X" {
            continue;
        }
        let field = |k: &str| ev.get(k).ok_or_else(|| format!("complete event without {k}"));
        let name = field("name")?.as_str().ok_or("name is not a string")?;
        let start = us_to_ns(field("ts")?).ok_or("bad ts")?;
        let dur = us_to_ns(field("dur")?).ok_or("bad dur")?;
        let lane = (
            field("pid")?.as_f64().ok_or("bad pid")? as u64,
            field("tid")?.as_f64().ok_or("bad tid")? as u64,
        );
        let family = name.split(':').next().unwrap_or(name).to_string();
        lanes.entry(lane).or_default().push(Span { family, start, end: start + dur });
    }
    for spans in lanes.values_mut() {
        // Parents before their children: earlier start first, and at
        // equal starts the longer span is the outer one.
        spans.sort_by(|a, b| a.start.cmp(&b.start).then(b.end.cmp(&a.end)));
        // Open spans, innermost last: (index, end of the union of its
        // children's intervals so far, ns of it covered by children).
        let mut open: Vec<(usize, u64, u64)> = Vec::new();
        let close = |(i, _, covered): (usize, u64, u64), out: &mut Folded| {
            let s: &Span = &spans[i];
            let f = out.families.entry(s.family.clone()).or_default();
            f.spans += 1;
            f.total_ns += s.end - s.start;
            f.self_ns += (s.end - s.start) - covered;
        };
        for (i, s) in spans.iter().enumerate() {
            // The parent is the innermost open span that contains this
            // one entirely; overlapping siblings (qd > 1 I/Os on a disk
            // lane) do not nest.
            while let Some(&top) = open.last() {
                if spans[top.0].end >= s.end && spans[top.0].start <= s.start {
                    break;
                }
                close(open.pop().expect("non-empty"), &mut out);
            }
            if let Some(parent) = open.last_mut() {
                let from = s.start.max(parent.1);
                parent.2 += s.end.saturating_sub(from);
                parent.1 = parent.1.max(s.end);
            }
            open.push((i, s.start, 0));
        }
        while let Some(top) = open.pop() {
            close(top, &mut out);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_obs::chrome::to_chrome_json;
    use cnp_obs::trace::{self, Tracer};

    #[test]
    fn self_time_subtracts_the_union_of_same_lane_children() {
        // Hand-built trace, client lane 0 (task 1):
        //   op:write      [1000, 11000)           dur 10000
        //     lock:ns     [2000,  4000)           dur  2000
        //     cache:load  [5000,  9000)           dur  4000
        //       io? no - io lives on the disk lane and must not nest here
        //     cache:miss  instant at 5000
        //   op:read       [20000, 21000)          dur  1000, no children
        // disk lane: two overlapping siblings
        //   io:write      [5500, 8500) and [6000, 9500)
        let t = Tracer::new();
        let g = trace::install(&t);
        let lane = trace::client_lane(0);
        let disk = trace::disk_lane("d0");
        trace::set_task_lane(1, lane);
        let op = trace::span_enter(1, "op:write", 1_000);
        let lk = trace::span_enter(1, "lock:ns", 2_000);
        trace::span_exit(lk, 4_000);
        trace::instant(1, "cache:miss", 5_000, vec![]);
        let ld = trace::span_enter(1, "cache:load", 5_000);
        trace::complete_on(disk, "io:write", 5_500, 8_500, vec![]);
        trace::complete_on(disk, "io:write", 6_000, 9_500, vec![]);
        trace::span_exit(ld, 9_000);
        trace::span_exit(op, 11_000);
        let rd = trace::span_enter(1, "op:read", 20_000);
        trace::span_exit(rd, 21_000);
        drop(g);

        let f = fold_chrome_json(&to_chrome_json(&t)).unwrap();
        assert_eq!(f.events, 7, "six spans and one instant");
        assert_eq!(
            f.family("op"),
            FamilyTime { spans: 2, total_ns: 11_000, self_ns: 10_000 - 2_000 - 4_000 + 1_000 }
        );
        assert_eq!(f.family("lock"), FamilyTime { spans: 1, total_ns: 2_000, self_ns: 2_000 });
        assert_eq!(f.family("cache"), FamilyTime { spans: 1, total_ns: 4_000, self_ns: 4_000 });
        // Overlapping siblings keep their whole durations as self time.
        assert_eq!(f.family("io"), FamilyTime { spans: 2, total_ns: 6_500, self_ns: 6_500 });
        assert_eq!(f.family("flush"), FamilyTime::default());
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Parent [0, 100); children [10, 60) and [40, 80) overlap by 20:
        // the union covers 70, so self time is 30.
        let t = Tracer::new();
        let g = trace::install(&t);
        let lane = trace::engine_lane("flush");
        trace::complete_on(lane, "flush:batch", 0, 100, vec![]);
        trace::complete_on(lane, "layout:write", 10, 60, vec![]);
        trace::complete_on(lane, "layout:write", 40, 80, vec![]);
        drop(g);
        let f = fold_chrome_json(&to_chrome_json(&t)).unwrap();
        assert_eq!(f.family("flush").self_ns, 30);
        assert_eq!(f.family("layout"), FamilyTime { spans: 2, total_ns: 90, self_ns: 90 });
    }

    #[test]
    fn an_empty_or_foreign_document_folds_to_nothing_or_an_error() {
        assert_eq!(fold_chrome_json("[\n]\n").unwrap(), Folded::default());
        assert!(fold_chrome_json("[\n{\"ph\":\"X\",\"name\":\"op:x\"}\n]\n").is_err());
    }
}
