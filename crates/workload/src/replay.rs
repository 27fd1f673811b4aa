//! Replaying a recorded trace against the *real* serving engines.
//!
//! This is the measured half of the workload story: the virtual clock in
//! [`crate::sim`] answers "what do these arrivals deserve" deterministically,
//! while [`TraceReplayer`] pushes the very same events through a live
//! [`ServeEngine`]/[`ShardedEngine`] (or, routed by tenant and model, a
//! fleet) worker pool and reports what actually happened on the wall
//! clock. Every replay runs one of two loops — one client thread, or
//! several burst-paced ones — over a routed target; single-model targets
//! are adapted onto them by ignoring the tenant and model columns.
//! Outputs are **bit-identical** across replays, replica counts and client
//! thread counts — every request's input vector is regenerated from the
//! trace seed by index ([`Trace::input_for`]) and the executors themselves
//! are deterministic — so acceptance tests can pin `f32`-exact agreement
//! while timing stays advisory.

use crate::trace::Trace;
use fpsa_serve::{ServeEngine, ServeStats, ShardedEngine, Ticket};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Anything a single-model trace can be replayed against: the serving and
/// sharded engines, or a test double. One request in, one ticket out,
/// engine-contract counters on demand.
pub trait ReplayTarget {
    /// Enqueue one request; the ticket resolves when a worker finishes it.
    fn submit(&self, input: Vec<f32>) -> Ticket;
    /// A snapshot of the target's lifetime counters.
    fn stats(&self) -> ServeStats;
}

impl ReplayTarget for ServeEngine {
    fn submit(&self, input: Vec<f32>) -> Ticket {
        ServeEngine::submit(self, input)
    }
    fn stats(&self) -> ServeStats {
        ServeEngine::stats(self)
    }
}

impl ReplayTarget for ShardedEngine {
    fn submit(&self, input: Vec<f32>) -> Ticket {
        ShardedEngine::submit(self, input)
    }
    fn stats(&self) -> ServeStats {
        ShardedEngine::stats(self)
    }
}

/// A replay target that routes by the trace's tenant and model columns —
/// the fleet tier, where one front door serves a whole model zoo and
/// requests carry their tenant for weighted-fair admission. Single-model
/// targets are the degenerate case (`ReplayTarget` ignores both columns).
pub trait RoutedReplayTarget {
    /// Enqueue one request for `model` on behalf of `tenant`.
    fn submit_routed(&self, tenant: u16, model: u16, input: Vec<f32>) -> Ticket;
    /// A snapshot of the target's aggregate lifetime counters.
    fn stats(&self) -> ServeStats;
}

/// How the replayer spaces submissions on the wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pacing {
    /// Submit every event back-to-back: the throughput shape. This is the
    /// old drivers' "burst" loop.
    Burst,
    /// Sleep until each event's recorded offset before submitting: the
    /// latency shape. Generalises the old drivers' fixed-gap "dribble"
    /// loop — the gaps now come from the scenario's arrival process.
    Trace,
}

/// What one real-engine replay produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Every request's logits, in trace order. Bit-identical across
    /// replays of the same trace whatever the replica or client count.
    pub outputs: Vec<Vec<f32>>,
    /// Worker-stamped queue-to-completion latency per request, trace
    /// order. Wall-clock: advisory, never pinned.
    pub latencies_us: Vec<u64>,
    /// Wall time from first submission to last completion, microseconds.
    pub wall_us: u64,
    /// The target's counters after the replay (includes any earlier use).
    pub stats: ServeStats,
}

impl ReplayOutcome {
    /// Requests per wall-clock second over the whole replay.
    pub fn throughput_rps(&self) -> f64 {
        self.outputs.len() as f64 / (self.wall_us.max(1) as f64 / 1_000_000.0)
    }
}

/// Drives a recorded [`Trace`] through a [`ReplayTarget`], regenerating
/// each request's input from the trace seed.
pub struct TraceReplayer<'a> {
    trace: &'a Trace,
    input_len: usize,
    pacing: Pacing,
}

impl<'a> TraceReplayer<'a> {
    /// A replayer for `trace` whose requests carry `input_len` features
    /// (pass the executor's bound input width). Defaults to [`Pacing::Burst`].
    pub fn new(trace: &'a Trace, input_len: usize) -> TraceReplayer<'a> {
        TraceReplayer {
            trace,
            input_len,
            pacing: Pacing::Burst,
        }
    }

    /// Select how submissions are spaced on the wall clock.
    pub fn with_pacing(mut self, pacing: Pacing) -> TraceReplayer<'a> {
        self.pacing = pacing;
        self
    }

    /// Replay every event from one client thread, in trace order.
    pub fn replay<T: ReplayTarget>(&self, target: &T) -> ReplayOutcome {
        self.play(&Single(target), &|_| self.input_len)
    }

    /// Replay through `clients` concurrent submitter threads (events dealt
    /// round-robin, each client submitting its share in trace order), then
    /// reassemble outputs back into trace order. Exercises the engines'
    /// cross-thread admission path; outputs still match [`Self::replay`]
    /// bit for bit. Burst-paced regardless of the configured pacing.
    pub fn replay_concurrent<T: ReplayTarget + Sync>(
        &self,
        target: &T,
        clients: usize,
    ) -> ReplayOutcome {
        self.play_concurrent(&Single(target), &|_| self.input_len, clients)
    }

    /// Replay every event through a routed target, honouring each event's
    /// tenant and model columns. `input_lens[model]` gives each model's
    /// input width (models index the trace's mix order, same as the
    /// registry's dense ids). One client thread, trace order, paced like
    /// [`Self::replay`].
    ///
    /// # Panics
    ///
    /// When an event's model has no entry in `input_lens` — the trace and
    /// the fleet registry disagree, which is a harness bug, not a serving
    /// condition.
    pub fn replay_routed<T: RoutedReplayTarget>(
        &self,
        target: &T,
        input_lens: &[usize],
    ) -> ReplayOutcome {
        self.play(target, &|model| input_lens[usize::from(model)])
    }

    /// [`Self::replay_routed`] through `clients` concurrent submitter
    /// threads (events dealt round-robin, reassembled into trace order),
    /// exercising the routed target's cross-thread admission path. Outputs
    /// still match the single-client replay bit for bit. Burst-paced
    /// regardless of the configured pacing.
    ///
    /// # Panics
    ///
    /// As [`Self::replay_routed`], when a model is missing an input width.
    pub fn replay_routed_concurrent<T: RoutedReplayTarget + Sync>(
        &self,
        target: &T,
        input_lens: &[usize],
        clients: usize,
    ) -> ReplayOutcome {
        self.play_concurrent(target, &|model| input_lens[usize::from(model)], clients)
    }

    /// Submit event `index` with an input of its model's width.
    fn submit<T: RoutedReplayTarget>(
        &self,
        target: &T,
        input_len: &dyn Fn(u16) -> usize,
        index: usize,
    ) -> Ticket {
        let event = &self.trace.events[index];
        let input = self.trace.input_for(index, input_len(event.model));
        target.submit_routed(event.tenant, event.model, input)
    }

    /// The single-client loop: submit in trace order (paced if asked),
    /// then redeem every ticket.
    fn play<T: RoutedReplayTarget>(
        &self,
        target: &T,
        input_len: &dyn Fn(u16) -> usize,
    ) -> ReplayOutcome {
        let start = Instant::now();
        let first_at = self.trace.events.first().map_or(0, |e| e.at_us);
        let tickets: Vec<Ticket> = (0..self.trace.len())
            .map(|index| {
                if self.pacing == Pacing::Trace {
                    let offset_us = self.trace.events[index].at_us - first_at;
                    let elapsed_us = start.elapsed().as_micros() as u64;
                    if offset_us > elapsed_us {
                        std::thread::sleep(Duration::from_micros(offset_us - elapsed_us));
                    }
                }
                self.submit(target, input_len, index)
            })
            .collect();
        outcome(start, tickets.into_iter().enumerate().map(redeem), target)
    }

    /// The concurrent loop: `clients` burst-paced submitter threads, events
    /// dealt round-robin, results reassembled into trace order.
    fn play_concurrent<T: RoutedReplayTarget + Sync>(
        &self,
        target: &T,
        input_len: &(dyn Fn(u16) -> usize + Sync),
        clients: usize,
    ) -> ReplayOutcome {
        let clients = clients.max(1);
        let start = Instant::now();
        let mut slots: Vec<Option<(Vec<f32>, u64)>> = vec![None; self.trace.len()];
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|client| {
                    scope.spawn(move || {
                        let owned: Vec<usize> =
                            (client..self.trace.len()).step_by(clients).collect();
                        let tickets: Vec<Ticket> = owned
                            .iter()
                            .map(|&index| self.submit(target, input_len, index))
                            .collect();
                        let resolved = owned.into_iter().zip(tickets);
                        resolved
                            .map(|(i, t)| (i, redeem((i, t))))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                for (index, timed) in handle.join().expect("replay client panicked") {
                    slots[index] = Some(timed);
                }
            }
        });
        let resolved = slots
            .into_iter()
            .map(|slot| slot.expect("every trace event replayed"));
        outcome(start, resolved, target)
    }
}

/// A single-model target seen as a routed one: tenant and model ignored.
struct Single<'t, T>(&'t T);

impl<T: ReplayTarget> RoutedReplayTarget for Single<'_, T> {
    fn submit_routed(&self, _tenant: u16, _model: u16, input: Vec<f32>) -> Ticket {
        self.0.submit(input)
    }
    fn stats(&self) -> ServeStats {
        self.0.stats()
    }
}

/// Block for one replayed request's output and latency.
///
/// # Panics
///
/// When the request failed: a replayed trace holds only valid requests.
fn redeem((index, ticket): (usize, Ticket)) -> (Vec<f32>, u64) {
    ticket
        .wait_timed()
        .unwrap_or_else(|e| panic!("replay request {index} failed: {e}"))
}

/// Collect the resolved requests in trace order, then stop the wall clock
/// and snapshot the target's counters.
fn outcome<T: RoutedReplayTarget>(
    start: Instant,
    resolved: impl Iterator<Item = (Vec<f32>, u64)>,
    target: &T,
) -> ReplayOutcome {
    let (outputs, latencies_us) = resolved.unzip();
    ReplayOutcome {
        outputs,
        latencies_us,
        wall_us: start.elapsed().as_micros() as u64,
        stats: target.stats(),
    }
}
