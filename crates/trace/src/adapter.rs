//! Workload → trace-record adapter.
//!
//! A closed-loop workload (`cnp-workload`) is a set of per-client
//! streams of *(think time, operation)* pairs: each client thinks, then
//! issues the next operation when the previous one completed. A trace
//! is the open-loop projection of the same program: think times
//! accumulate into per-client timestamps and the streams merge into one
//! time-sorted record list. The projection loses the closed-loop
//! back-pressure (a trace client dispatches at its recorded time even
//! if the system is slow) but gains the whole existing replay
//! machinery: codecs, `replay` op budgets, and acknowledgement
//! tracking all apply unchanged.

use crate::record::{TraceOp, TraceRecord};

/// Converts per-client closed-loop streams of `(think_ns, op)` into an
/// open-loop trace. Within one client, operation order is preserved and
/// timestamps are the cumulative think times; across clients, records
/// merge sorted by `(time, client)` — the order `replay` splits them
/// back out in. Lossless for the operations themselves, so codec
/// round-trips of the result compare equal.
pub fn records_from_streams(streams: &[(u32, Vec<(u64, TraceOp)>)]) -> Vec<TraceRecord> {
    let mut out = Vec::with_capacity(streams.iter().map(|(_, ops)| ops.len()).sum());
    for (client, ops) in streams {
        let mut t = 0u64;
        for (think_ns, op) in ops {
            t = t.saturating_add(*think_ns);
            out.push(TraceRecord { time_ns: t, client: *client, op: op.clone() });
        }
    }
    // Stable sort: equal (time, client) pairs keep program order.
    out.sort_by_key(|r| (r.time_ns, r.client));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn think_times_accumulate_per_client() {
        let streams = vec![
            (
                0u32,
                vec![
                    (5u64, TraceOp::Mkdir { path: "/a".into() }),
                    (10, TraceOp::Stat { path: "/a".into() }),
                ],
            ),
            (1u32, vec![(7u64, TraceOp::Stat { path: "/a".into() })]),
        ];
        let recs = records_from_streams(&streams);
        assert_eq!(recs.len(), 3);
        assert_eq!((recs[0].time_ns, recs[0].client), (5, 0));
        assert_eq!((recs[1].time_ns, recs[1].client), (7, 1));
        assert_eq!((recs[2].time_ns, recs[2].client), (15, 0));
    }

    #[test]
    fn program_order_survives_zero_think_times() {
        let ops = vec![
            (0u64, TraceOp::Open { path: "/f".into() }),
            (0, TraceOp::Write { path: "/f".into(), offset: 0, len: 1 }),
            (0, TraceOp::Close { path: "/f".into() }),
        ];
        let recs = records_from_streams(&[(3, ops.clone())]);
        let got: Vec<&TraceOp> = recs.iter().map(|r| &r.op).collect();
        let want: Vec<&TraceOp> = ops.iter().map(|(_, op)| op).collect();
        assert_eq!(got, want, "equal timestamps must keep program order");
    }
}
