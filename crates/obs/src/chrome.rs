//! Chrome `trace_event` JSON export: the format `chrome://tracing` and
//! Perfetto load as a flamegraph.
//!
//! Spans become `"ph": "X"` complete events, instants become
//! `"ph": "i"`, and every lane gets `process_name`/`thread_name`
//! metadata so the viewer shows one row per client and one per disk.
//! Timestamps are the tracer's virtual nanoseconds rendered as
//! microseconds with fixed three-decimal precision (integer
//! arithmetic), so the emitted bytes are a pure function of the event
//! stream — two seeded runs serialize byte-identically.

use crate::json::json_escape;
use crate::trace::{Event, Field, Tracer};

/// Renders `ns` nanoseconds as fixed-point microseconds ("12.345").
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn field_json(f: &Field) -> String {
    match f {
        Field::U64(v) => format!("{v}"),
        Field::I64(v) => format!("{v}"),
        Field::F64(v) => format!("{v:.6}"),
        Field::Str(s) => format!("\"{}\"", json_escape(s)),
        Field::Bool(b) => format!("{b}"),
    }
}

fn args_json(fields: &[(&'static str, Field)]) -> String {
    if fields.is_empty() {
        return "{}".to_string();
    }
    let mut s = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{}\":{}", json_escape(k), field_json(v)));
    }
    s.push('}');
    s
}

/// Serializes a tracer's events as a Chrome trace-event JSON array.
///
/// Events are ordered by (start time, lane, recording order) — a
/// stable sort over the deterministic event stream, so identical runs
/// produce identical bytes.
pub fn to_chrome_json(t: &Tracer) -> String {
    let inner = t.inner.borrow();
    let mut lines: Vec<String> = Vec::new();

    // Metadata: one process row per lane kind, one thread row per lane.
    let mut pids: Vec<u32> = inner.lanes.iter().map(|l| l.kind.pid()).collect();
    pids.sort_unstable();
    pids.dedup();
    for pid in &pids {
        let label = inner
            .lanes
            .iter()
            .find(|l| l.kind.pid() == *pid)
            .map(|l| l.kind.process_label())
            .unwrap_or("?");
        lines.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{label}\"}}}}"
        ));
    }
    let mut lane_rows: Vec<(u32, u32, &str)> =
        inner.lanes.iter().map(|l| (l.kind.pid(), l.tid, l.name.as_str())).collect();
    lane_rows.sort_unstable();
    for (pid, tid, name) in lane_rows {
        lines.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
    }

    // Events, stably ordered.
    let mut order: Vec<usize> = (0..inner.events.len()).collect();
    order.sort_by_key(|&i| (inner.events[i].start_ns(), inner.events[i].lane(), i));
    for i in order {
        let ev = &inner.events[i];
        match ev {
            Event::Complete { lane, name, start_ns, dur_ns, fields } => {
                let l = &inner.lanes[*lane as usize];
                lines.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\
                     \"dur\":{},\"args\":{}}}",
                    json_escape(name),
                    l.kind.pid(),
                    l.tid,
                    us(*start_ns),
                    us(*dur_ns),
                    args_json(fields)
                ));
            }
            Event::Instant { lane, name, ts_ns, fields } => {
                let l = &inner.lanes[*lane as usize];
                lines.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"pid\":{},\"tid\":{},\"ts\":{},\
                     \"s\":\"t\",\"args\":{}}}",
                    json_escape(name),
                    l.kind.pid(),
                    l.tid,
                    us(*ts_ns),
                    args_json(fields)
                ));
            }
        }
    }

    let mut s = String::from("[\n");
    for (i, line) in lines.iter().enumerate() {
        s.push_str(line);
        s.push_str(if i + 1 < lines.len() { ",\n" } else { "\n" });
    }
    s.push_str("]\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{self, Field};

    #[test]
    fn export_is_valid_shape_and_stable() {
        let t = Tracer::new();
        let g = trace::install(&t);
        let lane = trace::client_lane(0);
        let disk = trace::disk_lane("d0");
        trace::set_task_lane(1, lane);
        let tok = trace::span_enter(1, "op:write", 10_500);
        trace::span_field(tok, "bytes", Field::U64(4096));
        trace::complete_on(disk, "io:write", 11_000, 14_250, vec![("lba", Field::U64(64))]);
        trace::instant(1, "cache:miss", 12_000, vec![]);
        trace::span_exit(tok, 20_000);
        drop(g);
        let a = to_chrome_json(&t);
        let b = to_chrome_json(&t);
        assert_eq!(a, b);
        assert!(a.starts_with("[\n"));
        assert!(a.ends_with("]\n"));
        assert!(a.contains("\"ph\":\"M\""));
        assert!(a.contains("\"name\":\"op:write\""));
        assert!(a.contains("\"ts\":10.500"));
        assert!(a.contains("\"dur\":9.500"));
        assert!(a.contains("\"dur\":3.250"));
        assert!(a.contains("\"thread_name\""));
        // No trailing comma before the closing bracket.
        assert!(!a.contains(",\n]"));
    }

    #[test]
    fn events_sort_by_start_time() {
        let t = Tracer::new();
        let g = trace::install(&t);
        let lane = trace::engine_lane("flush");
        trace::complete_on(lane, "late", 5_000, 6_000, vec![]);
        trace::complete_on(lane, "early", 1_000, 2_000, vec![]);
        drop(g);
        let s = to_chrome_json(&t);
        assert!(s.find("early").unwrap() < s.find("late").unwrap());
    }
}
