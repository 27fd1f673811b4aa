//! Folding the spans the engines already emit (`fpsa_obs` in
//! `Mode::Full`) into per-request timelines and per-layer busy time.
//!
//! Span vocabulary, as the engines record it:
//! * `ServeEngine` (cat `serve`) and `FleetEngine` (cat `fleet`): a
//!   `request` root with `queue`, `execute` (arg `batch` / `run`: the
//!   executed batch size) and `respond` children;
//! * `ShardedEngine` (cat `shard`): a `request` root with one `stage` child
//!   per pipeline stage (args `stage`, `batch`).
//!
//! Children share their root's correlation id, and root ids are allocated
//! in submit order, so with one submitting thread the k-th root of a phase
//! is the k-th submitted request.

use fpsa_obs::{Event, Phase};
use std::collections::BTreeMap;

/// One request's spans, in tracer µs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Request {
    /// `request` span.
    pub begin: Option<u64>,
    /// End of the `request` span.
    pub end: Option<u64>,
    /// `queue` span (serve, fleet).
    pub queue: (Option<u64>, Option<u64>),
    /// `execute` span (serve, fleet).
    pub execute: (Option<u64>, Option<u64>),
    /// `respond` span (serve, fleet).
    pub respond: (Option<u64>, Option<u64>),
    /// Executed batch size from the `execute` span.
    pub batch: i64,
    /// `stage` spans (sharded): (stage, begin, end, batch).
    pub stages: Vec<(usize, u64, Option<u64>, i64)>,
}

fn dur(span: (Option<u64>, Option<u64>)) -> Option<f64> {
    match span {
        (Some(b), Some(e)) => Some(e.saturating_sub(b) as f64),
        _ => None,
    }
}

fn arg(event: &Event, key: &str) -> Option<i64> {
    event
        .args()
        .iter()
        .find(|(k, _)| *k == key)
        .map(|&(_, v)| v)
}

impl Request {
    /// Whether the root span opened and closed.
    pub fn complete(&self) -> bool {
        self.begin.is_some() && self.end.is_some()
    }

    /// Time spent waiting before the first execution, µs: the `queue` span,
    /// or (sharded) root begin to the first stage.
    pub fn queue_us(&self) -> Option<f64> {
        dur(self.queue).or_else(|| {
            let first = self.stages.first()?;
            Some(first.1.saturating_sub(self.begin?) as f64)
        })
    }

    /// Execution time, µs: the `execute` span, or the sum of stage spans.
    pub fn execute_us(&self) -> f64 {
        dur(self.execute).unwrap_or_else(|| {
            self.stages
                .iter()
                .filter_map(|&(_, b, e, _)| e.map(|e| e.saturating_sub(b) as f64))
                .sum()
        })
    }

    /// `respond` span, µs (0 for sharded requests, which have none).
    pub fn respond_us(&self) -> f64 {
        dur(self.respond).unwrap_or(0.0)
    }
}

/// A phase's spans, folded.
#[derive(Debug, Clone, Default)]
pub struct Folded {
    /// Requests in root-id (= submit) order.
    pub requests: Vec<Request>,
    /// Execution busy time summed over batches (Σ span / batch), µs.
    pub exec_busy_us: f64,
    /// Per-stage busy time (sharded), µs.
    pub stage_busy_us: Vec<f64>,
}

/// Fold `events` (any order of categories; only `serve`, `fleet` and
/// `shard` spans count).
pub fn fold(events: &[Event]) -> Folded {
    let mut by_id: BTreeMap<u64, Request> = BTreeMap::new();
    for event in events {
        if !matches!(event.cat, "serve" | "fleet" | "shard") || event.id == 0 {
            continue;
        }
        let req = by_id.entry(event.id).or_default();
        let ts = event.ts_us;
        match (event.phase, event.name) {
            (Phase::SpanBegin, "request") => req.begin = Some(ts),
            (Phase::SpanEnd, "request") => req.end = Some(ts),
            (Phase::SpanBegin, "queue") => req.queue.0 = Some(ts),
            (Phase::SpanEnd, "queue") => req.queue.1 = Some(ts),
            (Phase::SpanBegin, "execute") => {
                req.execute.0 = Some(ts);
                req.batch = arg(event, "batch")
                    .or_else(|| arg(event, "run"))
                    .unwrap_or(1);
            }
            (Phase::SpanEnd, "execute") => req.execute.1 = Some(ts),
            (Phase::SpanBegin, "respond") => req.respond.0 = Some(ts),
            (Phase::SpanEnd, "respond") => req.respond.1 = Some(ts),
            (Phase::SpanBegin, "stage") => {
                let stage = arg(event, "stage").unwrap_or(0).max(0) as usize;
                let batch = arg(event, "batch").unwrap_or(1);
                req.stages.push((stage, ts, None, batch));
            }
            (Phase::SpanEnd, "stage") => {
                if let Some(open) = req.stages.iter_mut().rev().find(|s| s.2.is_none()) {
                    open.2 = Some(ts);
                }
            }
            _ => {}
        }
    }
    let mut folded = Folded::default();
    for req in by_id.into_values() {
        if req.begin.is_none() {
            continue;
        }
        if let Some(d) = dur(req.execute) {
            folded.exec_busy_us += d / req.batch.max(1) as f64;
        }
        for &(stage, b, e, batch) in &req.stages {
            if let Some(e) = e {
                let share = e.saturating_sub(b) as f64 / batch.max(1) as f64;
                if folded.stage_busy_us.len() <= stage {
                    folded.stage_busy_us.resize(stage + 1, 0.0);
                }
                folded.stage_busy_us[stage] += share;
                folded.exec_busy_us += share;
            }
        }
        folded.requests.push(req);
    }
    folded
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpsa_obs::{SpanId, Tracer};

    #[test]
    fn serve_spans_fold_into_one_timeline_per_request() {
        let t = Tracer::new();
        t.set_mode(fpsa_obs::Mode::Full);
        for k in 0..2u64 {
            let base = k * 100;
            let root = t.enter("request", "serve", base, SpanId::NONE);
            let q = t.enter("queue", "serve", base, root.id);
            t.exit(&q, base + 10);
            let x = t.enter_with("execute", "serve", base + 10, root.id, &[("batch", 2)]);
            t.exit(&x, base + 30);
            let r = t.enter("respond", "serve", base + 31, root.id);
            t.exit(&r, base + 33);
            t.exit(&root, base + 34);
        }
        let folded = fold(&t.events());
        assert_eq!(folded.requests.len(), 2);
        let req = &folded.requests[1];
        assert_eq!(req.queue_us(), Some(10.0));
        assert_eq!(req.execute_us(), 20.0);
        assert_eq!(req.respond_us(), 2.0);
        assert_eq!((req.begin, req.end), (Some(100), Some(134)));
        // Two requests of a batch of 2, 20 µs each: 20 µs busy in total.
        assert_eq!(folded.exec_busy_us, 20.0);
    }

    #[test]
    fn sharded_stage_spans_give_queue_and_per_stage_busy_time() {
        let t = Tracer::new();
        t.set_mode(fpsa_obs::Mode::Full);
        let root = t.enter("request", "shard", 0, SpanId::NONE);
        let s0 = t.enter_with("stage", "shard", 5, root.id, &[("stage", 0), ("batch", 1)]);
        t.exit(&s0, 15);
        let s1 = t.enter_with("stage", "shard", 20, root.id, &[("stage", 1), ("batch", 1)]);
        t.exit(&s1, 40);
        t.exit(&root, 41);
        let folded = fold(&t.events());
        let req = &folded.requests[0];
        assert_eq!(req.queue_us(), Some(5.0));
        assert_eq!(req.execute_us(), 30.0);
        assert_eq!(folded.stage_busy_us, vec![10.0, 20.0]);
    }
}
