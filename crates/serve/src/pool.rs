//! The serving core: one worker pool that every engine is a configuration
//! of.
//!
//! A [`Pool`] owns a row of *units* — one per fabric or pipeline stage.
//! Each unit is a [`WeightedFairBatcher`] behind a mutex, a condvar and a
//! shutdown flag, plus `replicas` worker threads and the per-lane
//! [`ServeStats`] of the requests it finished. What differs between the
//! engines is only how the units are wired:
//!
//! * [`crate::ServeEngine`] — one unit, every request on lane 0 (the WFQ's
//!   single-tenant case is exactly the plain [`crate::DynamicBatcher`]);
//! * [`crate::ShardedEngine`] — N *chained* units: a unit that is not the
//!   last relays every successful batch to the next one, whose window is 0,
//!   and shutdown drains them front to back;
//! * `fpsa_fleet::FleetEngine` — N *routed* units: a request goes to the
//!   hosting unit with the shortest queue, lanes are tenants, and a claimed
//!   batch executes as contiguous same-model runs.
//!
//! Everything else is shared: admission (input-length, unknown-model and
//! shutdown rejection), the worker loop (claim → execute → record → answer
//! → close spans), front-to-back drain, and one recording site that
//! updates the unit's `ServeStats` and the `<tier>.*` registry counters
//! together. Stats live in the unit that finished the request, under that
//! unit's lock, so no request touches a pool-wide lock; [`Pool::lanes`]
//! merges them on demand.

use crate::batcher::BatchPolicy;
use crate::engine::{Response, ServeError, ServeStats, Ticket};
use crate::wfq::WeightedFairBatcher;
use fpsa_obs::{Counter, Registry, Span, SpanId, Tracer};
use fpsa_sim::exec::ExecArena;
use std::fmt;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Which engine a pool serves as. The tier names the span category and the
/// registry counters (`serve.completed`, `shard.rejected`, …), fixes the
/// shape of each request's span chain, and decides how units are wired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// `request → queue → execute{batch} → respond`; one unit.
    Serve,
    /// `request` plus one `stage{stage, batch}` span per hop; chained units.
    Shard,
    /// `request{tenant, model, fabric} → queue → execute{fabric, run} →
    /// respond`; routed units.
    Fleet,
}

impl Tier {
    /// The span category / counter prefix, and the queue-depth track.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            Tier::Serve => ("serve", "serve.queue_depth"),
            Tier::Shard => ("shard", "shard.queue_depth"),
            Tier::Fleet => ("fleet", "fleet.queue_depth"),
        }
    }
}

/// What a pool executes: the models it can route and the runs it runs.
pub trait Backend: Send + Sync + 'static {
    /// `model`'s input width (`None` = unchecked) and the units hosting it
    /// (empty = any unit).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] when the backend serves no such model.
    fn route(&self, model: u16) -> Result<(Option<usize>, &[usize]), ServeError>;

    /// Execute one same-model run on `unit`, filling `outputs` in order.
    ///
    /// # Errors
    ///
    /// The failure every member of the run is answered with.
    fn execute(
        &self,
        unit: usize,
        model: u16,
        inputs: &[Vec<f32>],
        arena: &mut ExecArena,
        outputs: &mut Vec<Vec<f32>>,
    ) -> Result<(), ServeError>;
}

/// One lane's lifetime counters inside a unit (or merged across units).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// The engine-contract counters.
    pub stats: ServeStats,
    /// Requests rejected with [`ServeError::Shed`] (within `stats.rejected`).
    pub shed: u64,
}

/// A request waiting in (or travelling between) units.
struct Pending {
    model: u16,
    /// The client's input, rewritten to each stage's output along a chain.
    input: Vec<f32>,
    submitted_us: u64,
    tx: mpsc::Sender<Response>,
    /// Root trace span ([`Span::DISABLED`] when tracing was off).
    span: Span,
    /// Open `queue` child span, closed at the first claim.
    queue_span: Span,
}

struct UnitState {
    queue: WeightedFairBatcher<Pending>,
    shutdown: bool,
    lanes: Vec<LaneStats>,
}

impl UnitState {
    fn lane(&mut self, lane: u16) -> &mut LaneStats {
        let index = usize::from(lane);
        if self.lanes.len() <= index {
            self.lanes.resize(index + 1, LaneStats::default());
        }
        &mut self.lanes[index]
    }
}

struct Unit {
    state: Mutex<UnitState>,
    work: Condvar,
}

impl Unit {
    fn lock(&self) -> MutexGuard<'_, UnitState> {
        self.state.lock().expect("unit lock")
    }
}

/// Global-registry handles, registered once at start so the hot path pays
/// one relaxed RMW per event, never the registry's name-table lock.
struct Counters {
    submitted: Counter,
    completed: Counter,
    failed: Counter,
    rejected: Counter,
    shed: Counter,
}

struct Shared<B> {
    backend: B,
    tier: Tier,
    units: Vec<Unit>,
    started: Instant,
    counters: Counters,
}

/// The worker-pool core (see the module docs). Dropping it shuts it down.
pub struct Pool<B: Backend> {
    shared: Arc<Shared<B>>,
    /// Worker handles per unit, so shutdown can drain front to back.
    workers: Vec<Vec<thread::JoinHandle<()>>>,
}

impl<B: Backend> fmt::Debug for Pool<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pool")
            .field("tier", &self.shared.tier)
            .field("units", &self.shared.units.len())
            .field("workers", &self.workers.iter().map(Vec::len).sum::<usize>())
            .finish()
    }
}

impl<B: Backend> Pool<B> {
    /// Start `units` units of `replicas` workers each over `backend`.
    /// Every unit batches under `policy` and the `(lane, weight)` shares,
    /// except the relay units of a [`Tier::Shard`] chain, whose window is 0.
    pub fn start(
        backend: B,
        tier: Tier,
        units: usize,
        replicas: usize,
        policy: BatchPolicy,
        weights: &[(u16, u64)],
    ) -> Pool<B> {
        let units = (0..units.max(1))
            .map(|unit| {
                let relay = unit > 0 && tier == Tier::Shard;
                let window_us = if relay { 0 } else { policy.window_us };
                let mut queue =
                    WeightedFairBatcher::new(BatchPolicy::new(policy.max_batch, window_us));
                for &(lane, weight) in weights {
                    queue.set_weight(lane, weight);
                }
                Unit {
                    state: Mutex::new(UnitState {
                        queue,
                        shutdown: false,
                        lanes: Vec::new(),
                    }),
                    work: Condvar::new(),
                }
            })
            .collect();
        let name = tier.names().0;
        let counter = |event: &str| Registry::global().counter(&format!("{name}.{event}"));
        let counters = Counters {
            submitted: counter("submitted"),
            completed: counter("completed"),
            failed: counter("failed"),
            rejected: counter("rejected"),
            shed: counter("shed"),
        };
        let started = Instant::now();
        let shared = Arc::new(Shared {
            backend,
            tier,
            units,
            started,
            counters,
        });
        let workers = (0..shared.units.len())
            .map(|unit| {
                (0..replicas.max(1))
                    .map(|replica| {
                        let shared = Arc::clone(&shared);
                        thread::Builder::new()
                            .name(format!("fpsa-{name}-{unit}-{replica}"))
                            .spawn(move || shared.work(unit))
                            .expect("serving worker threads spawn")
                    })
                    .collect()
            })
            .collect();
        Pool { shared, workers }
    }

    /// The backend the pool executes on.
    pub fn backend(&self) -> &B {
        &self.shared.backend
    }

    /// Number of units.
    pub fn units(&self) -> usize {
        self.shared.units.len()
    }

    /// Enqueue one request for `model` on `lane`; never blocks on the
    /// model. Unknown models, bad input lengths and post-shutdown
    /// submissions resolve the ticket at once with the typed error.
    pub fn submit(&self, lane: u16, model: u16, input: Vec<f32>) -> Ticket {
        let shared = &*self.shared;
        let hosts = match shared.backend.route(model) {
            Ok((Some(want), _)) if input.len() != want => {
                let got = input.len();
                return self.reject(lane, model, ServeError::InputLength { got, want });
            }
            Ok((_, hosts)) => hosts,
            Err(err) => return self.reject(lane, model, err),
        };
        // Shortest queue among the hosts, ties to the lowest index. The
        // read is a heuristic — racing submitters may pick the same unit —
        // but admission per unit is still serialized by its lock.
        let depth = |unit: usize| (shared.units[unit].lock().queue.len(), unit);
        let target = match hosts {
            [only] => Some(*only),
            [] => (0..shared.units.len()).min_by_key(|&u| depth(u)),
            _ => hosts.iter().copied().min_by_key(|&u| depth(u)),
        }
        .unwrap_or(0);
        // Spans open outside the unit lock, so tracing never extends the
        // critical section (one relaxed load when tracing is off).
        let tracer = Tracer::global();
        let (span, queue_span) = shared.open(tracer, lane, model, Some(target));
        let unit = &shared.units[target];
        let (tx, ticket) = Ticket::channel();
        {
            let mut state = unit.lock();
            if state.shutdown {
                drop(state);
                return shared.refuse(target, lane, (span, queue_span), ServeError::ShutDown);
            }
            // Stamped under the lock, so each lane's timestamps are
            // monotone and its oldest entry is always its front.
            let now = shared.now_us();
            let request = Pending {
                model,
                input,
                submitted_us: now,
                tx,
                span,
                queue_span,
            };
            state.queue.push(lane, request, now);
            // Counted under the lock a worker needs to claim (and record)
            // the request, so `completed <= submitted` in every snapshot.
            let depth = state.queue.len();
            let stats = &mut state.lane(lane).stats;
            stats.submitted += 1;
            stats.record_queue_depth(depth);
            Registry::global().inc(shared.counters.submitted);
            let (cat, track) = shared.tier.names();
            tracer.counter(track, cat, now, depth as i64);
        }
        unit.work.notify_one();
        ticket
    }

    /// Resolve a request with `err` without queueing it, counting the
    /// rejection (and a shed, for [`ServeError::Shed`]) on `lane`.
    pub fn reject(&self, lane: u16, model: u16, err: ServeError) -> Ticket {
        let spans = self.shared.open(Tracer::global(), lane, model, None);
        self.shared.refuse(0, lane, spans, err)
    }

    /// Every lane's counters, merged across units and dense by lane.
    /// Units are read back to front: a request is counted submitted at its
    /// entry unit before any later unit can count it finished, so reading
    /// the exit first keeps `completed <= submitted` in the snapshot.
    pub fn lanes(&self) -> Vec<LaneStats> {
        let mut merged: Vec<LaneStats> = Vec::new();
        for unit in self.shared.units.iter().rev() {
            let state = unit.lock();
            if merged.len() < state.lanes.len() {
                merged.resize(state.lanes.len(), LaneStats::default());
            }
            for (into, lane) in merged.iter_mut().zip(&state.lanes) {
                into.stats.merge(&lane.stats);
                into.shed += lane.shed;
            }
        }
        merged
    }

    /// All lanes together.
    pub fn stats(&self) -> ServeStats {
        let mut total = ServeStats::default();
        for lane in self.lanes() {
            total.merge(&lane.stats);
        }
        total
    }

    /// Requests `lane` has queued across `units`.
    pub fn backlog(&self, lane: u16, units: &[usize]) -> usize {
        units
            .iter()
            .map(|&u| self.shared.units[u].lock().queue.tenant_len(lane))
            .sum()
    }

    /// Stop admitting, then drain and join the units front to back: a
    /// unit is marked shut down only once every unit before it has exited,
    /// so batches relayed along a chain are never dropped. Idempotent.
    pub fn shutdown(&mut self) {
        for (unit, handles) in self.shared.units.iter().zip(&mut self.workers) {
            unit.lock().shutdown = true;
            unit.work.notify_all();
            for handle in handles.drain(..) {
                let _ = handle.join();
            }
        }
    }
}

impl<B: Backend> Drop for Pool<B> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<B: Backend> Shared<B> {
    /// Microseconds since the pool started (every unit's clock).
    fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Open a request's root span and, where the tier has one, its `queue`
    /// child.
    fn open(&self, tracer: &Tracer, lane: u16, model: u16, unit: Option<usize>) -> (Span, Span) {
        if !tracer.enabled() {
            return (Span::DISABLED, Span::DISABLED);
        }
        let ts = tracer.now_us();
        let cat = self.tier.names().0;
        let span = match self.tier {
            Tier::Fleet => {
                let args = [("tenant", i64::from(lane)), ("model", i64::from(model))];
                let span = tracer.enter_with("request", cat, ts, SpanId::NONE, &args);
                if let Some(unit) = unit {
                    tracer.record(&span, "fabric", unit as i64, ts);
                }
                span
            }
            Tier::Serve | Tier::Shard => tracer.enter("request", cat, ts, SpanId::NONE),
        };
        let queue_span = match self.tier {
            Tier::Shard => Span::DISABLED,
            Tier::Serve | Tier::Fleet => tracer.enter("queue", cat, ts, span.id),
        };
        (span, queue_span)
    }

    /// Count a rejection on `unit`'s `lane`, close the request's spans with
    /// the reason, and resolve its ticket with `err`.
    fn refuse(
        &self,
        unit: usize,
        lane: u16,
        (span, queue): (Span, Span),
        err: ServeError,
    ) -> Ticket {
        {
            let mut state = self.units[unit].lock();
            let lane = state.lane(lane);
            lane.stats.rejected += 1;
            Registry::global().inc(self.counters.rejected);
            if matches!(err, ServeError::Shed { .. }) {
                lane.shed += 1;
                Registry::global().inc(self.counters.shed);
            }
        }
        let tracer = Tracer::global();
        if !span.id.is_none() {
            let reason = match err {
                ServeError::ShutDown => "shutdown",
                ServeError::Shed { .. } => "shed",
                _ => "rejected",
            };
            let ts = tracer.now_us();
            tracer.record(&span, reason, 1, ts);
            tracer.exit(&queue, ts);
            tracer.exit(&span, ts);
        }
        Ticket::resolved(Err(err))
    }

    /// Block until `unit` has a batch (or has drained out at shutdown).
    /// Wakes on new work and on the oldest lane's deadline; after a pop,
    /// hands any leftover queue to another worker — that hand-off is what
    /// pipelines consecutive batches across replicas.
    fn next_batch(&self, unit: usize) -> Option<(u16, Vec<Pending>)> {
        let unit = &self.units[unit];
        let mut state = unit.lock();
        loop {
            let now = self.now_us();
            if let Some(popped) = state.queue.pop_ready(now) {
                if !state.queue.is_empty() {
                    unit.work.notify_one();
                }
                return Some(popped);
            }
            if state.shutdown {
                // Drain without waiting out the window; None ends the worker.
                return state.queue.pop_now();
            }
            state = match state.queue.next_deadline_us() {
                Some(deadline) => {
                    let wait = Duration::from_micros(deadline.saturating_sub(now).max(1));
                    unit.work.wait_timeout(state, wait).expect("unit lock").0
                }
                None => unit.work.wait(state).expect("unit lock"),
            };
        }
    }

    /// One worker of `unit`: claim a batch, execute it run by run outside
    /// the lock on this worker's arena, then relay it down the chain or
    /// record and answer it; repeat until the unit drains out.
    fn work(&self, unit: usize) {
        let tracer = Tracer::global();
        let relays = self.tier == Tier::Shard && unit + 1 < self.units.len();
        let cat = self.tier.names().0;
        let mut arena = ExecArena::new();
        let mut inputs: Vec<Vec<f32>> = Vec::new();
        let mut outputs: Vec<Vec<f32>> = Vec::new();
        let mut exec_spans: Vec<Span> = Vec::new();
        while let Some((lane, mut batch)) = self.next_batch(unit) {
            if tracer.enabled() {
                let ts = tracer.now_us();
                for req in &mut batch {
                    tracer.exit(&req.queue_span, ts);
                    req.queue_span = Span::DISABLED;
                }
            }
            let mut relay = false;
            let mut start = 0;
            while start < batch.len() {
                // A lane is FIFO across models; a run is the longest prefix
                // of one model, executed as one executor batch.
                let model = batch[start].model;
                let len = batch[start..]
                    .iter()
                    .take_while(|r| r.model == model)
                    .count();
                let whole = len == batch.len();
                let run = &mut batch[start..start + len];
                start += len;
                inputs.clear();
                inputs.extend(run.iter_mut().map(|req| std::mem::take(&mut req.input)));
                exec_spans.clear();
                if tracer.enabled() {
                    let ts = tracer.now_us();
                    let (unit, len) = (unit as i64, len as i64);
                    let (name, args, n) = match self.tier {
                        Tier::Serve => ("execute", [("batch", len), ("", 0)], 1),
                        Tier::Shard => ("stage", [("stage", unit), ("batch", len)], 2),
                        Tier::Fleet => ("execute", [("fabric", unit), ("run", len)], 2),
                    };
                    let enter =
                        |req: &Pending| tracer.enter_with(name, cat, ts, req.span.id, &args[..n]);
                    exec_spans.extend(run.iter().map(enter));
                }
                let result = self
                    .backend
                    .execute(unit, model, &inputs, &mut arena, &mut outputs);
                let done_us = self.now_us();
                if !exec_spans.is_empty() {
                    let ts = tracer.now_us();
                    for span in &exec_spans {
                        tracer.exit(span, ts);
                    }
                }
                if relays && result.is_ok() {
                    // A chain carries one model, so this run is the whole
                    // batch; its outputs are the next stage's inputs.
                    debug_assert!(whole, "a relayed batch is a single run");
                    for (req, out) in run.iter_mut().zip(outputs.iter_mut()) {
                        req.input = std::mem::take(out);
                    }
                    relay = true;
                } else {
                    self.finish(unit, lane, run, &result, &mut outputs, done_us);
                }
            }
            if relay {
                let next = &self.units[unit + 1];
                let mut state = next.lock();
                let now = self.now_us();
                for req in batch {
                    state.queue.push(lane, req, now);
                }
                drop(state);
                next.work.notify_one();
            }
        }
    }

    /// The one recording site: count a finished run in the unit's lane
    /// stats and the registry — before answering its tickets, so a client
    /// that just received its output always observes itself in the stats —
    /// then answer every ticket and close the request spans.
    fn finish(
        &self,
        unit: usize,
        lane: u16,
        run: &[Pending],
        result: &Result<(), ServeError>,
        outputs: &mut [Vec<f32>],
        done_us: u64,
    ) {
        let ok = result.is_ok();
        {
            let mut state = self.units[unit].lock();
            let stats = &mut state.lane(lane).stats;
            stats.record_batch(run.len(), ok);
            if ok {
                for req in run {
                    stats.record_latency(done_us.saturating_sub(req.submitted_us));
                }
            }
        }
        let c = &self.counters;
        let counter = if ok { c.completed } else { c.failed };
        Registry::global().add(counter, run.len() as u64);
        let tracer = Tracer::global();
        let cat = self.tier.names().0;
        for (i, req) in run.iter().enumerate() {
            let response = match result {
                Ok(()) => {
                    let latency = done_us.saturating_sub(req.submitted_us);
                    Ok((std::mem::take(&mut outputs[i]), latency))
                }
                // Inputs are validated at submission, so this is an internal
                // failure; every member of the run learns about it.
                Err(e) => Err(e.clone()),
            };
            if req.span.id.is_none() {
                let _ = req.tx.send(response);
                continue;
            }
            let respond = match (self.tier, &response) {
                (Tier::Serve | Tier::Fleet, Ok(_)) => {
                    tracer.enter("respond", cat, tracer.now_us(), req.span.id)
                }
                _ => Span::DISABLED,
            };
            let mark = match &response {
                Ok((_, latency)) => ("latency_us", *latency as i64),
                Err(_) => ("exec_error", 1),
            };
            let _ = req.tx.send(response);
            let ts = tracer.now_us();
            tracer.record(&req.span, mark.0, mark.1, ts);
            tracer.exit(&respond, ts);
            tracer.exit(&req.span, ts);
        }
    }
}
