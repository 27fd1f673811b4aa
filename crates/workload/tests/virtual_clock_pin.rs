//! Exact pins on the virtual clock.
//!
//! The other workload suites check the twin for self-consistency (runs
//! agree with each other, phase sampling lands within tolerance). This one
//! pins the numbers themselves: for every checked-in scenario, the
//! submitted/completed/batch counts, the makespan and the p50/p99 latency
//! the deterministic replay produces. Any change to how the twin schedules
//! — batch formation, worker assignment, routing, admission order — moves
//! at least one of them, so a scheduling change cannot slip through as
//! "still within tolerance".

use fpsa_workload::{simulate, simulate_fleet, FleetPolicy, Scenario, TraceRecorder};
use std::path::PathBuf;

/// `(submitted, completed, batches, makespan_us, p50_us, p99_us)`.
type Pin = (u64, u64, u64, u64, u64, u64);

fn scenario(relative: &str) -> Scenario {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(relative);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Scenario::parse(&text).unwrap_or_else(|e| panic!("{relative} does not parse: {e}"))
}

fn observed(stats: &fpsa_serve::ServeStats, makespan_us: u64) -> Pin {
    (
        stats.submitted,
        stats.completed,
        stats.batches,
        makespan_us,
        stats.p50_latency_us(),
        stats.p99_latency_us(),
    )
}

#[test]
fn every_checked_in_scenario_replays_to_its_pinned_numbers() {
    let pins: [(&str, Pin); 4] = [
        (
            "adversarial-herd.scenario",
            (30_000, 30_000, 3_961, 1_858_774, 255, 255),
        ),
        (
            "bursty-coalesce.scenario",
            (40_000, 40_000, 2_500, 1_999_420, 220, 220),
        ),
        (
            "diurnal-mix.scenario",
            (120_000, 120_000, 20_305, 10_856_045, 511, 511),
        ),
        (
            "steady-poisson.scenario",
            (50_000, 50_000, 33_308, 20_104_093, 255, 330),
        ),
    ];
    for (file, pin) in pins {
        let scenario = scenario(file);
        let trace = TraceRecorder::new(&scenario)
            .record()
            .expect("valid scenario");
        let replay = simulate(&trace, scenario.policy, scenario.service);
        assert_eq!(observed(&replay.stats, replay.makespan_us), pin, "{file}");
    }
}

#[test]
fn the_fleet_zoo_replays_to_its_pinned_numbers() {
    let scenario = scenario("fleet/fleet-zoo.scenario");
    let trace = TraceRecorder::new(&scenario)
        .record()
        .expect("valid scenario");
    // The fleet experiment's layout: both fabrics host both models, and the
    // tenant weights are the scenario's tenant mix weights.
    let policy = FleetPolicy {
        per_fabric: scenario.policy,
        hosted: vec![vec![0, 1], vec![0, 1]],
        tenant_weights: vec![(0, 1), (1, 3)],
    };
    let replay = simulate_fleet(&trace, &policy, scenario.service);
    let aggregate = &replay.aggregate;
    assert_eq!(
        observed(&aggregate.stats, aggregate.makespan_us),
        (30_000, 30_000, 6_877, 600_237, 1_023, 1_023)
    );
    // Per-tenant counters carry no makespan of their own.
    let tenants: Vec<Pin> = replay.per_tenant.iter().map(|t| observed(t, 0)).collect();
    assert_eq!(
        tenants,
        vec![
            (7_388, 7_388, 2_861, 0, 511, 1_023),
            (22_612, 22_612, 4_016, 0, 1_023, 1_023),
        ]
    );
}
