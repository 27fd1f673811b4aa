//! Telemetry parity between the serving engine and the sharded engine.
//!
//! Both engines record through the serving core's one recording site, so
//! each must feed its `<tier>.submitted/completed/rejected` registry
//! counters in lockstep with its own `stats()`, sample its
//! `<tier>.queue_depth` tracer counter on admission, and leave a closed
//! `request` span behind for a rejected request. One test, its own binary:
//! the registry and the tracer are process-wide state.

use fpsa_core::Compiler;
use fpsa_nn::params::mlp_graph;
use fpsa_nn::GraphParameters;
use fpsa_obs::{Event, Mode, Phase, Registry, Tracer};
use fpsa_serve::{ServeConfig, ServeEngine, ServeStats, ShardedEngine, Ticket};
use fpsa_sim::{Executor, Precision};

fn executor(name: &str, sizes: &[usize]) -> Executor {
    let graph = mlp_graph(name, sizes);
    let params = GraphParameters::seeded(&graph, 5);
    let compiled = Compiler::fpsa().compile(&graph).expect("mlp compiles");
    compiled
        .executor(&graph, &params, &Precision::Float)
        .expect("mlp binds")
}

fn counter(name: &str) -> u64 {
    Registry::global()
        .snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

/// `<tier>.submitted/completed/rejected`, read from the global registry.
fn tier_counters(tier: &str) -> [u64; 3] {
    ["submitted", "completed", "rejected"].map(|event| counter(&format!("{tier}.{event}")))
}

/// Ten requests, every third with a bad input length; all tickets redeemed.
fn drive(submit: impl Fn(Vec<f32>) -> Ticket) {
    let tickets: Vec<(bool, Ticket)> = (0..10)
        .map(|i| {
            let valid = i % 3 != 0;
            let len = if valid { 16 } else { 5 };
            (valid, submit(vec![0.1 * i as f32; len]))
        })
        .collect();
    for (valid, ticket) in tickets {
        assert_eq!(ticket.wait().is_ok(), valid);
    }
}

/// Whether some `request` span under `cat` was marked `rejected` and
/// closed.
fn has_rejected_span(events: &[Event], cat: &str) -> bool {
    let closed = |id: u64| {
        events
            .iter()
            .any(|e| e.phase == Phase::SpanEnd && e.id == id && e.name == "request")
    };
    events.iter().any(|e| {
        e.cat == cat
            && e.name == "request"
            && e.phase == Phase::Instant
            && e.args[..usize::from(e.nargs)]
                .iter()
                .any(|&(k, _)| k == "rejected")
            && closed(e.id)
    })
}

#[test]
fn both_engines_feed_their_tier_counters_in_lockstep_with_stats() {
    let tracer = Tracer::global();
    tracer.clear();
    tracer.set_mode(Mode::Full);

    let check = |tier: &str, before: [u64; 3], stats: ServeStats| {
        let after = tier_counters(tier);
        let delta = [0, 1, 2].map(|i| after[i] - before[i]);
        assert_eq!(
            delta,
            [stats.submitted, stats.completed, stats.rejected],
            "{tier}.* counters diverged from stats()"
        );
        assert_eq!(stats.submitted, 6, "{tier}: valid requests admitted");
        assert_eq!(stats.rejected, 4, "{tier}: bad lengths rejected");
    };

    let before = tier_counters("serve");
    let engine = ServeEngine::start(executor("ctr-mlp", &[16, 8, 4]), ServeConfig::default());
    drive(|x| engine.submit(x));
    check("serve", before, engine.shutdown());

    let before = tier_counters("shard");
    let stages = vec![
        executor("ctr-front", &[16, 8]),
        executor("ctr-back", &[8, 4]),
    ];
    let sharded = ShardedEngine::start(stages, ServeConfig::default());
    drive(|x| sharded.submit(x));
    check("shard", before, sharded.shutdown());

    let events = tracer.events();
    tracer.set_mode(Mode::Off);
    tracer.clear();
    for (tier, depth) in [
        ("serve", "serve.queue_depth"),
        ("shard", "shard.queue_depth"),
    ] {
        assert!(
            events
                .iter()
                .any(|e| e.phase == Phase::Counter && e.name == depth),
            "{tier} admission samples {depth}"
        );
        assert!(
            has_rejected_span(&events, tier),
            "{tier} leaves a span for a rejected request"
        );
    }
}
