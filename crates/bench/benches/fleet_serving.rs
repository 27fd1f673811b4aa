//! The fleet-serving comparison: co-located multi-tenant fleet vs
//! dedicated single-model engines on the checked-in mixed-zoo trace, and
//! the CI-pinned `BENCH_fleet.json`.
//!
//! For `scenarios/fleet/fleet-zoo.scenario` (hot/cold model skew, two
//! tenant classes, a deliberately saturating arrival rate) the driver in
//! `fpsa_fleet::experiments::fleet` spends the same number of fabrics two
//! ways — every model co-located on every fabric with room, vs one model
//! per fabric — and compares them on the deterministic virtual clock. The
//! `fleet` CI job parses the artifact and pins `virtual_speedup > 1` and
//! `bit_identical == true`; wall-clock throughputs of the real engines are
//! recorded as advisory context, never pinned.

use criterion::{criterion_group, criterion_main, Criterion};
use fpsa_bench::{print_experiment, save_bench_artifact};
use fpsa_fleet::experiments::fleet::{checked_in_zoo, measure_dedicated, run, FleetComparison};
use fpsa_obs::export::json_str;
use fpsa_workload::{simulate_fleet, FleetPolicy, TraceRecorder};
use std::fmt::Write as _;

fn to_table(c: &FleetComparison, dedicated_measured_rps: f64) -> String {
    let mut t = String::from("| metric | co-located fleet | dedicated fabrics |\n|---|---|---|\n");
    let _ = writeln!(
        t,
        "| virtual throughput (req/s) | {:.0} | {:.0} |",
        c.fleet_virtual_rps, c.dedicated_virtual_rps
    );
    let _ = writeln!(
        t,
        "| virtual makespan (ms) | {:.1} | {:.1} |",
        c.fleet_makespan_us as f64 / 1_000.0,
        c.dedicated_makespan_us as f64 / 1_000.0
    );
    let _ = writeln!(
        t,
        "| measured throughput (req/s, advisory) | {:.0} | {:.0} |",
        c.fleet_measured_rps, dedicated_measured_rps
    );
    let _ = writeln!(t, "| virtual speedup | {:.2}x | — |", c.virtual_speedup);
    let _ = writeln!(
        t,
        "| placements over {} fabrics | {} | {} |",
        c.fabrics,
        c.placements,
        c.models.len()
    );
    let _ = writeln!(
        t,
        "| bit-identical to direct execution | {} | — |",
        if c.bit_identical { "yes" } else { "NO" }
    );
    t
}

/// Hand-rendered JSON (the vendored serde facade cannot produce strict
/// JSON), parsed and pinned by the `fleet` CI job.
fn to_json(c: &FleetComparison, dedicated_measured_rps: f64) -> String {
    let mut j = String::from("{\n");
    let _ = writeln!(j, "  \"scenario\": {},", json_str(&c.scenario));
    let _ = writeln!(j, "  \"requests\": {},", c.requests);
    let _ = writeln!(j, "  \"trace_fingerprint\": \"{:016x}\",", c.fingerprint);
    let _ = writeln!(j, "  \"fabrics\": {},", c.fabrics);
    let models = c
        .models
        .iter()
        .map(|m| json_str(m))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(j, "  \"models\": [{models}],");
    let _ = writeln!(j, "  \"tenants\": {},", c.tenants);
    let _ = writeln!(j, "  \"placements\": {},", c.placements);
    let _ = writeln!(j, "  \"fleet_virtual_rps\": {:.3},", c.fleet_virtual_rps);
    let _ = writeln!(
        j,
        "  \"dedicated_virtual_rps\": {:.3},",
        c.dedicated_virtual_rps
    );
    let _ = writeln!(j, "  \"virtual_speedup\": {:.5},", c.virtual_speedup);
    let _ = writeln!(j, "  \"fleet_makespan_us\": {},", c.fleet_makespan_us);
    let _ = writeln!(
        j,
        "  \"dedicated_makespan_us\": {},",
        c.dedicated_makespan_us
    );
    let p99s = c
        .tenant_virtual_p99_us
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(j, "  \"tenant_virtual_p99_us\": [{p99s}],");
    let _ = writeln!(j, "  \"fleet_measured_rps\": {:.1},", c.fleet_measured_rps);
    let _ = writeln!(
        j,
        "  \"dedicated_measured_rps\": {dedicated_measured_rps:.1},"
    );
    let _ = writeln!(j, "  \"bind_hits\": {},", c.bind_hits);
    let _ = writeln!(j, "  \"bind_misses\": {},", c.bind_misses);
    let _ = writeln!(j, "  \"sheds\": {},", c.sheds);
    let _ = writeln!(j, "  \"bit_identical\": {}", c.bit_identical);
    j.push_str("}\n");
    j
}

fn bench(c: &mut Criterion) {
    let scenario = checked_in_zoo();
    let comparison = run(&scenario, scenario.models.len());
    let dedicated_measured_rps = measure_dedicated(&scenario);
    assert!(
        comparison.bit_identical,
        "fleet outputs diverged from direct execution"
    );

    print_experiment(
        "Fleet serving: co-located zoo vs dedicated single-model fabrics",
        &to_table(&comparison, dedicated_measured_rps),
    );
    save_bench_artifact(
        "BENCH_fleet.json",
        &to_json(&comparison, dedicated_measured_rps),
    );

    // Criterion timing: the fleet virtual replay of the full zoo trace —
    // the deterministic half everything above is pinned on.
    let trace = TraceRecorder::new(&scenario)
        .record()
        .expect("scenario is valid");
    let policy = FleetPolicy {
        per_fabric: scenario.policy,
        hosted: vec![(0..scenario.models.len() as u16).collect(); scenario.models.len()],
        tenant_weights: (0..scenario.tenants.len() as u16).map(|t| (t, 1)).collect(),
    };
    let mut group = c.benchmark_group("fleet_serving");
    group.sample_size(10);
    group.bench_function("fleet_zoo_virtual_sim", |b| {
        b.iter(|| simulate_fleet(&trace, &policy, scenario.service))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
