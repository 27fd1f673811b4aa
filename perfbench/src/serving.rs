//! The serving layers: deploying a workload's models behind its engine,
//! probing the bound executors, and playing the burst / light / heavy
//! phases against the engine.

use crate::compile::{Artifacts, CompileSet, Job, ShardJob, DUPLICATIONS};
use crate::fold::{self, Folded};
use crate::gen::{self, Arrival, Burst, Mix, Outcome, Played, Rng, Target};
use crate::report::{Metrics, ATTRIBUTION};
use crate::stats::{self, Timing, QUIET_SHARE};
use fpsa_core::validate::sample_inputs;
use fpsa_core::{CompileCache, Compiler};
use fpsa_device::variation::{CellVariation, WeightScheme};
use fpsa_fleet::experiments::fleet::{fabric_capacity, tenant_weights, zoo_graph};
use fpsa_fleet::{FleetConfig, FleetEngine, FleetPlacement, ModelRegistry};
use fpsa_nn::zoo;
use fpsa_nn::{ComputationalGraph, GraphParameters, QuantizationPlan};
use fpsa_obs::{Mode, Tracer};
use fpsa_serve::{ServeConfig, ServeEngine, ShardedEngine, Ticket};
use fpsa_shard::{FabricBudget, ShardCompiler};
use fpsa_sim::{ExecArena, Executor, Precision};
use fpsa_workload::Scenario;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct pre-built inputs per model.
const POOL: usize = 256;
/// Requests a closed-loop burst keeps in flight.
const WINDOW: usize = 64;
/// PE budget the sharded workload splits MLP-500-100 under (2 stages).
const SHARD_PES: usize = 16;
/// Requests a traced phase may hold in the trace buffer.
const TRACED_REQUESTS: f64 = 30_000.0;

/// Which engine serves what.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// One model on a `ServeEngine`; `noisy` binds `Precision::Noisy`
    /// instead of `Float`.
    Dedicated {
        /// Builds the served model's graph.
        model: fn() -> ComputationalGraph,
        /// Noisy instead of Float precision.
        noisy: bool,
    },
    /// `scenarios/fleet/fleet-zoo.scenario` on a `FleetEngine`.
    Fleet,
    /// MLP-500-100, Integer precision, auto-sharded on a `ShardedEngine`.
    ShardedInt,
}

/// A serving workload's fixed definition.
#[derive(Debug, Clone, Copy)]
pub struct ServingSpec {
    /// What is served.
    pub kind: Kind,
    /// Light open-loop rate, requests/s (≈15% of this commit's capacity).
    pub light_rps: f64,
    /// Heavy open-loop rate, requests/s (≈45% of this commit's capacity).
    pub heavy_rps: f64,
    /// Latency limit for goodput, µs (≈2× this commit's light p99).
    pub limit_us: f64,
}

struct Model {
    name: String,
    graph: ComputationalGraph,
    params: GraphParameters,
    precision: Precision,
}

/// Everything built before any timer starts.
pub struct Prepared {
    kind: Kind,
    models: Vec<Model>,
    pools: Vec<Vec<Vec<f32>>>,
    expected: Vec<Vec<Vec<f32>>>,
    calibration: Vec<Vec<f32>>,
    mix: Mix,
    tenants: Vec<String>,
    tenant_weights: Vec<(u16, u64)>,
    policy: ServeConfig,
}

fn read_scenario(path: &str) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Scenario::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn policy_of(scenario: &Scenario) -> ServeConfig {
    ServeConfig {
        replicas: scenario.policy.replicas,
        max_batch: scenario.policy.max_batch,
        batch_window_us: scenario.policy.window_us,
    }
}

fn plan_for(model: &Model, calibration: &[Vec<f32>]) -> Result<QuantizationPlan, String> {
    QuantizationPlan::calibrate(&model.graph, &model.params, calibration)
        .map_err(|e| format!("{}: calibration: {e}", model.name))
}

impl Prepared {
    /// Build models, parameters, input pools and the direct-execution
    /// outputs every response is checked against. `seed` drives all of it.
    pub fn new(kind: Kind, seed: u64) -> Result<Prepared, String> {
        let steady = read_scenario("scenarios/steady-poisson.scenario")?;
        let mut tenants = vec!["default".to_string()];
        let mut weights = Vec::new();
        let mut mix = Mix::single(POOL);
        let mut policy = policy_of(&steady);
        let models: Vec<Model> = match kind {
            Kind::Dedicated { model, noisy } => {
                let graph = model();
                let precision = if noisy {
                    Precision::Noisy {
                        scheme: WeightScheme::fpsa_add(),
                        variation: CellVariation::measured(),
                        seed: Rng::derive(seed, 11),
                    }
                } else {
                    Precision::Float
                };
                vec![Model {
                    name: graph.name.clone(),
                    params: GraphParameters::seeded(&graph, Rng::derive(seed, 10)),
                    graph,
                    precision,
                }]
            }
            Kind::ShardedInt => {
                policy = ServeConfig {
                    replicas: 1,
                    ..policy
                };
                let graph = zoo::mlp_500_100();
                vec![Model {
                    name: "MLP-500-100".into(),
                    params: GraphParameters::seeded(&graph, Rng::derive(seed, 10)),
                    graph,
                    precision: Precision::Float,
                }]
            }
            Kind::Fleet => {
                let scenario = read_scenario("scenarios/fleet/fleet-zoo.scenario")?;
                policy = policy_of(&scenario);
                weights = tenant_weights(&scenario);
                tenants = scenario.tenants.iter().map(|t| t.name.clone()).collect();
                mix = Mix {
                    pool: POOL,
                    models: scenario.models.iter().map(|m| m.weight).collect(),
                    tenants: scenario.tenants.iter().map(|t| t.weight).collect(),
                };
                scenario
                    .models
                    .iter()
                    .enumerate()
                    .map(|(i, entry)| {
                        let graph = zoo_graph(&entry.name)
                            .ok_or_else(|| format!("unknown fleet model {}", entry.name))?;
                        Ok(Model {
                            name: entry.name.clone(),
                            params: GraphParameters::seeded(
                                &graph,
                                Rng::derive(seed, 100 + i as u64),
                            ),
                            graph,
                            precision: Precision::Float,
                        })
                    })
                    .collect::<Result<_, String>>()?
            }
        };
        let pools: Vec<Vec<Vec<f32>>> = models
            .iter()
            .enumerate()
            .map(|(i, m)| sample_inputs(&m.graph, POOL, Rng::derive(seed, 200 + i as u64)))
            .collect();
        let calibration = pools[0][..32].to_vec();
        let mut prepared = Prepared {
            kind,
            models,
            pools,
            expected: Vec::new(),
            calibration,
            mix,
            tenants,
            tenant_weights: weights,
            policy,
        };
        prepared.expected = prepared.direct_outputs()?;
        Ok(prepared)
    }

    /// Direct `Executor::run` on every pooled input. The sharded workload is
    /// checked against the *unsharded* Integer executor.
    fn direct_outputs(&self) -> Result<Vec<Vec<Vec<f32>>>, String> {
        self.models
            .iter()
            .zip(&self.pools)
            .map(|(model, pool)| {
                let exec = self.bind_direct(model)?.0;
                pool.iter()
                    .map(|x| exec.run(x).map_err(|e| format!("{}: {e}", model.name)))
                    .collect()
            })
            .collect()
    }

    fn precision(&self, model: &Model) -> Result<Precision, String> {
        match self.kind {
            Kind::ShardedInt => Ok(Precision::Integer(plan_for(model, &self.calibration)?)),
            _ => Ok(model.precision.clone()),
        }
    }

    /// Compile `model` on one fabric and bind it; returns the executor and
    /// the bind time in ms.
    fn bind_direct(&self, model: &Model) -> Result<(Executor, f64), String> {
        let compiled = Compiler::fpsa()
            .compile(&model.graph)
            .map_err(|e| format!("{}: {e}", model.name))?;
        let precision = self.precision(model)?;
        let start = Instant::now();
        let exec = compiled
            .executor(&model.graph, &model.params, &precision)
            .map_err(|e| format!("{}: bind: {e}", model.name))?;
        Ok((exec, start.elapsed().as_secs_f64() * 1e3))
    }

    /// The workload's models compiled as deployment compiles them (routed)
    /// and with the analytic wire model instead of P&R — single-fabric
    /// models at every degree of `DUPLICATIONS`, so a pass is substantial.
    pub fn compile_sets(&self) -> (CompileSet, CompileSet) {
        let mut routed = CompileSet::default();
        let mut analytic = CompileSet::default();
        for model in &self.models {
            if matches!(self.kind, Kind::ShardedInt) {
                routed.shards.push(ShardJob::new(
                    model.graph.clone(),
                    Compiler::fpsa(),
                    SHARD_PES,
                ));
                analytic.shards.push(ShardJob::new(
                    model.graph.clone(),
                    Compiler::fpsa().without_place_and_route(),
                    SHARD_PES,
                ));
            } else {
                for duplication in DUPLICATIONS {
                    let compiler = Compiler::fpsa().with_duplication(duplication);
                    routed.jobs.push(Job {
                        graph: model.graph.clone(),
                        compiler: compiler.clone(),
                    });
                    analytic.jobs.push(Job {
                        graph: model.graph.clone(),
                        compiler: compiler.without_place_and_route(),
                    });
                }
            }
        }
        (routed, analytic)
    }

    /// Tenant names, dense by tenant id.
    pub fn tenants(&self) -> &[String] {
        &self.tenants
    }
}

/// A running engine.
pub enum Engine {
    /// Single-fabric dynamic-batching engine.
    Serve(ServeEngine),
    /// Pipeline-parallel engine.
    Sharded(ShardedEngine),
    /// Multi-model, multi-tenant fleet.
    Fleet(FleetEngine),
}

/// Engine counters the phases difference.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    executed: u64,
    batches: u64,
    bind_hits: u64,
    bind_misses: u64,
    sheds: u64,
}

/// A deployed workload: the engine plus what requests are checked against.
pub struct Deployment<'p> {
    prepared: &'p Prepared,
    engine: Engine,
    /// Worker threads executing batches, and how many of them serve each
    /// pipeline stage.
    workers: usize,
    per_stage: usize,
}

impl Deployment<'_> {
    fn counts(&self) -> Counts {
        let serve = |s: fpsa_serve::ServeStats| Counts {
            executed: s.completed + s.failed,
            batches: s.batches,
            ..Counts::default()
        };
        match &self.engine {
            Engine::Serve(e) => serve(e.stats()),
            Engine::Sharded(e) => serve(e.stats()),
            Engine::Fleet(e) => {
                let s = e.stats();
                Counts {
                    bind_hits: s.bind_cache.hits,
                    bind_misses: s.bind_cache.misses,
                    sheds: s.sheds.iter().sum(),
                    ..serve(s.aggregate)
                }
            }
        }
    }

    /// Stop the engine and join its workers.
    pub fn shutdown(self) {
        match self.engine {
            Engine::Serve(e) => drop(e.shutdown()),
            Engine::Sharded(e) => drop(e.shutdown()),
            Engine::Fleet(e) => drop(e.shutdown()),
        }
    }
}

impl Target for Deployment<'_> {
    fn input(&self, arrival: &Arrival) -> Vec<f32> {
        self.prepared.pools[usize::from(arrival.model)][arrival.input as usize].clone()
    }

    fn submit(&self, arrival: &Arrival, input: Vec<f32>) -> Ticket {
        match &self.engine {
            Engine::Serve(e) => e.submit(input),
            Engine::Sharded(e) => e.submit(input),
            Engine::Fleet(e) => e.submit(arrival.tenant, arrival.model, input),
        }
    }

    fn expected(&self, arrival: &Arrival) -> &[f32] {
        &self.prepared.expected[usize::from(arrival.model)][arrival.input as usize]
    }
}

/// One timed deployment.
pub struct Deployed<'p> {
    /// The running deployment.
    pub deployment: Deployment<'p>,
    /// Compile + calibration + bind + engine start, seconds.
    pub setup_s: f64,
    /// The compiled artifacts (checked equal across deployments).
    pub artifacts: Artifacts,
}

/// Deploy `prepared` from scratch: cold compile (no shared cache),
/// calibration, bind and engine start, all timed.
pub fn deploy(prepared: &Prepared) -> Result<Deployed<'_>, String> {
    let start = Instant::now();
    let policy = prepared.policy;
    let (engine, artifacts, workers, per_stage) = match prepared.kind {
        Kind::Dedicated { .. } => {
            let model = &prepared.models[0];
            let compiled = Compiler::fpsa()
                .compile(&model.graph)
                .map_err(|e| format!("{}: {e}", model.name))?;
            let exec = compiled
                .executor(&model.graph, &model.params, &model.precision)
                .map_err(|e| format!("{}: bind: {e}", model.name))?;
            let artifacts = Artifacts {
                models: vec![compiled],
                sharded: Vec::new(),
            };
            let engine = Engine::Serve(ServeEngine::start(exec, policy));
            (engine, artifacts, policy.replicas, policy.replicas)
        }
        Kind::ShardedInt => {
            let model = &prepared.models[0];
            let precision = prepared.precision(model)?;
            let sharded = ShardCompiler::fpsa(FabricBudget::with_pes(SHARD_PES))
                .compile_auto(&model.graph)
                .map_err(|e| format!("{}: {e}", model.name))?;
            let engine = sharded
                .serve(&model.params, &precision, policy)
                .map_err(|e| format!("{}: bind: {e}", model.name))?;
            let workers = engine.stage_count() * policy.replicas;
            let artifacts = Artifacts {
                models: Vec::new(),
                sharded: vec![sharded],
            };
            (Engine::Sharded(engine), artifacts, workers, policy.replicas)
        }
        Kind::Fleet => {
            let mut registry =
                ModelRegistry::with_cache(Compiler::fpsa(), Arc::new(CompileCache::new(8)));
            for model in &prepared.models {
                registry
                    .register(
                        model.name.clone(),
                        model.graph.clone(),
                        model.params.clone(),
                        model.precision.clone(),
                    )
                    .map_err(|e| format!("{}: {e}", model.name))?;
            }
            let artifacts = Artifacts {
                models: registry
                    .models()
                    .iter()
                    .map(|m| (*m.compiled).clone())
                    .collect(),
                sharded: Vec::new(),
            };
            let placement = FleetPlacement::pack(&registry, 2, fabric_capacity())
                .map_err(|e| format!("fleet placement: {e}"))?;
            let mut config = FleetConfig::default()
                .with_replicas(policy.replicas)
                .with_batching(policy.max_batch, policy.batch_window_us);
            for &(tenant, weight) in &prepared.tenant_weights {
                config = config.with_tenant_weight(tenant, weight);
            }
            let workers = placement.fabrics() * policy.replicas;
            let engine = Engine::Fleet(FleetEngine::start(registry, placement, config));
            (engine, artifacts, workers, policy.replicas)
        }
    };
    Ok(Deployed {
        deployment: Deployment {
            prepared,
            engine,
            workers,
            per_stage,
        },
        setup_s: start.elapsed().as_secs_f64(),
        artifacts,
    })
}

/// Median per-sample time of `exec` on `inputs` batches, µs, over about
/// 40 ms of repetitions.
fn per_sample_us(exec: &Executor, inputs: &[Vec<f32>]) -> Result<(f64, Vec<Vec<f32>>), String> {
    let mut arena = ExecArena::default();
    let mut outputs = Vec::new();
    exec.run_batch_into(inputs, &mut arena, &mut outputs)
        .map_err(|e| e.to_string())?;
    let budget = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5
        || (budget.elapsed() < Duration::from_millis(40) && samples.len() < 2000)
    {
        let t = Instant::now();
        exec.run_batch_into(inputs, &mut arena, &mut outputs)
            .map_err(|e| e.to_string())?;
        samples.push(t.elapsed().as_secs_f64() * 1e6 / inputs.len() as f64);
    }
    Ok((stats::median(&samples), outputs))
}

/// The exec layer, measured on the workload's own bound executors through
/// `Executor::run_batch_into` (the `CostProbe` protocol): bind time, and
/// per-sample cost at batch 1 and 8 — request-mix weighted for the fleet,
/// summed over stages for the pipeline.
pub fn probe_exec(prepared: &Prepared, metrics: &mut Metrics) -> Result<(), String> {
    let total: f64 = prepared.mix.models.iter().sum();
    for (i, model) in prepared.models.iter().enumerate() {
        let share = prepared.mix.models[i] / total;
        let pool = &prepared.pools[i];
        let execs: Vec<Executor> = if matches!(prepared.kind, Kind::ShardedInt) {
            let sharded = ShardCompiler::fpsa(FabricBudget::with_pes(SHARD_PES))
                .compile_auto(&model.graph)
                .map_err(|e| e.to_string())?;
            let precision = prepared.precision(model)?;
            let t = Instant::now();
            let execs = sharded
                .executor(&model.params, &precision)
                .map_err(|e| e.to_string())?
                .into_stages();
            metrics.add("exec.bind_ms", t.elapsed().as_secs_f64() * 1e3);
            execs
        } else {
            let (exec, bind_ms) = prepared.bind_direct(model)?;
            metrics.add("exec.bind_ms", bind_ms);
            vec![exec]
        };
        for (batch, name) in [(1, "exec.us_per_sample.b1"), (8, "exec.us_per_sample.b8")] {
            let mut inputs = pool[..batch].to_vec();
            for exec in &execs {
                let (us, outputs) = per_sample_us(exec, &inputs)?;
                metrics.add(name, share * us);
                inputs = outputs;
            }
        }
    }
    Ok(())
}

/// How a serving run splits its time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhasePlan {
    /// Unmeasured warm-up burst (binds, arenas), seconds.
    pub warm_s: f64,
    /// Capacity burst, seconds.
    pub burst_s: f64,
    /// Light open-loop phase, seconds.
    pub light_s: f64,
    /// Heavy open-loop phase, seconds.
    pub heavy_s: f64,
}

/// Requests and failures a serving run saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests submitted.
    pub attempted: u64,
    /// Requests answered with a typed error.
    pub failed: u64,
    /// Requests answered with a wrong output.
    pub mismatches: u64,
}

impl Tally {
    fn add(&mut self, played: &Played) {
        self.attempted += played.records.len() as u64;
        self.failed += played.failed() as u64;
        self.mismatches += played.mismatches() as u64;
    }

    /// Requests answered (correctly or not) over requests attempted:
    /// refusals and failures count against it.
    pub fn ok_ratio(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    fn add_burst(&mut self, burst: &Burst) {
        self.attempted += burst.attempted;
        self.failed += burst.failed;
        self.mismatches += burst.mismatches;
    }
}

/// Latencies of completed requests in µs.
fn latencies(played: &Played) -> Vec<f64> {
    played
        .records
        .iter()
        .filter(|r| r.outcome == Outcome::Ok)
        .map(gen::Record::latency_us)
        .collect()
}

fn batch_mean(before: Counts, after: Counts) -> f64 {
    let batches = after.batches.saturating_sub(before.batches);
    if batches == 0 {
        0.0
    } else {
        after.executed.saturating_sub(before.executed) as f64 / batches as f64
    }
}

fn play_burst(dep: &Deployment<'_>, seed: u64, seconds: f64) -> Burst {
    let requests = gen::burst(seed, 4096, &dep.prepared.mix);
    gen::play_burst(dep, &requests, WINDOW, seconds)
}

/// One open-loop phase's requests, pooled over a run's cycles.
#[derive(Debug, Default)]
struct PhaseAcc {
    /// Per cycle: latencies (µs, due to observed) of completed requests.
    cycles: Vec<Vec<f64>>,
    /// Generator lag of every request, µs.
    lags: Vec<f64>,
    /// Per cycle: share of offered requests completed within the
    /// workload's latency limit (failures count as misses).
    within: Vec<f64>,
    /// Requests offered.
    offered: usize,
    /// Scheduled seconds played.
    seconds: f64,
}

impl PhaseAcc {
    fn add(&mut self, played: &Played, limit_us: f64, seconds: f64) {
        self.cycles.push(latencies(played));
        self.lags
            .extend(played.records.iter().map(gen::Record::lag_us));
        let within = played
            .records
            .iter()
            .filter(|r| r.outcome == Outcome::Ok && r.latency_us() <= limit_us)
            .count();
        self.within
            .push(within as f64 / played.records.len().max(1) as f64);
        self.offered += played.records.len();
        self.seconds += seconds;
    }

    /// The `q`-quantile latency of the quietest cycles, and how many
    /// requests it pooled: cycles are taken in order of their own
    /// `q`-quantile until at least `QUIET_SHARE` of them (two at least),
    /// and enough requests for ten to lie beyond the quantile, are pooled.
    /// Host interference comes and goes on a scale of seconds; a cycle it
    /// hit shows a higher quantile, and leaving those cycles out keeps the
    /// figure steady while a slower program still moves every cycle.
    fn quiet(&self, q: f64) -> (f64, usize) {
        let mut ranked: Vec<(f64, &Vec<f64>)> = self
            .cycles
            .iter()
            .map(|c| (stats::quantile_of(c, q), c))
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        let least = ((ranked.len() as f64 * QUIET_SHARE).ceil() as usize).max(2);
        let needed = (10.0 / (1.0 - q)).ceil() as usize;
        let mut pooled = Vec::new();
        for (taken, (_, cycle)) in ranked.iter().enumerate() {
            if taken >= least && pooled.len() >= needed {
                break;
            }
            pooled.extend(cycle.iter().copied());
        }
        (stats::quantile_of(&pooled, q), pooled.len())
    }
}

/// The end-to-end serving measurements of a run, accumulated over cycles.
#[derive(Debug, Default)]
pub struct ServeAcc {
    /// Correct completions per second of each cycle's burst.
    bursts: Vec<f64>,
    light: PhaseAcc,
    heavy: PhaseAcc,
    /// Requests and failures.
    pub tally: Tally,
}

/// One untraced cycle on a fresh deployment: a short warm-up, a capacity
/// burst, then the light and heavy open-loop phases.
pub fn run_cycle(
    dep: &Deployment<'_>,
    spec: &ServingSpec,
    seed: u64,
    cycle: u64,
    plan: PhasePlan,
    acc: &mut ServeAcc,
) {
    let stream = |phase: u64| Rng::derive(seed, 1000 * (cycle + 1) + phase);
    acc.tally
        .add_burst(&play_burst(dep, stream(0), plan.warm_s));
    let burst = play_burst(dep, stream(1), plan.burst_s);
    acc.tally.add_burst(&burst);
    acc.bursts.push(burst.rate());
    for (phase, rate, seconds, id) in [
        (&mut acc.light, spec.light_rps, plan.light_s, 2),
        (&mut acc.heavy, spec.heavy_rps, plan.heavy_s, 3),
    ] {
        let schedule = gen::poisson(stream(id), rate, seconds, &dep.prepared.mix);
        let played = gen::play_open(dep, &schedule);
        acc.tally.add(&played);
        phase.add(&played, spec.limit_us, seconds);
    }
}

fn lag_summary(name: &str, lags: &[f64], report: &mut Vec<String>) -> (f64, f64) {
    let late = lags.iter().filter(|&&l| l > gen::LATE_US).count() as f64 / lags.len().max(1) as f64;
    let lag = Timing::of(lags);
    report.push(format!(
        "  gen {name}: lag {} late={late:.4}",
        lag.describe("us")
    ));
    (lag.p99, late)
}

/// Turn a run's cycles into the end-to-end serving metrics.
pub fn finish_cycles(
    acc: &ServeAcc,
    spec: &ServingSpec,
    metrics: &mut Metrics,
    report: &mut Vec<String>,
) {
    let capacity = stats::quantile_of(&acc.bursts, 1.0 - QUIET_SHARE);
    metrics.set("capacity_rps", capacity);
    report.push(format!(
        "  capacity {capacity:.0} rps: quiet-side quantile of {} cycle bursts (median {:.0})",
        acc.bursts.len(),
        stats::median(&acc.bursts)
    ));
    for (name, phase, rate) in [
        ("light", &acc.light, spec.light_rps),
        ("heavy", &acc.heavy, spec.heavy_rps),
    ] {
        let all: Vec<f64> = phase.cycles.iter().flatten().copied().collect();
        let (p50, n50) = phase.quiet(0.5);
        let (p90, n90) = phase.quiet(0.9);
        let (p99, n99) = phase.quiet(0.99);
        metrics.set(format!("{name}_p50_us"), p50);
        if name == "heavy" {
            metrics.set("heavy_p90_us", p90);
        }
        report.push(format!(
            "  {name} @ {rate} rps over {} cycles: latency from due {}; quiet cycles p50={p50:.1}us (n={n50}) p90={p90:.1}us (n={n90}) p99={p99:.1}us (n={n99})",
            phase.cycles.len(),
            Timing::of(&all).describe("us"),
        ));
        lag_summary(name, &phase.lags, report);
    }
    let offered_rps = acc.heavy.offered as f64 / acc.heavy.seconds.max(1e-9);
    let within = stats::quantile_of(&acc.heavy.within, 1.0 - QUIET_SHARE);
    let good = offered_rps * within;
    metrics.set("heavy_goodput_rps", good);
    report.push(format!(
        "  heavy goodput {good:.1} rps: {offered_rps:.1} rps offered x {within:.4} within {} us in a quiet cycle (all cycles {:.4})",
        spec.limit_us,
        stats::mean(&acc.heavy.within)
    ));
}

/// Maps client instants onto the tracer's µs clock.
struct TraceClock {
    at: Instant,
    tracer_us: f64,
}

impl TraceClock {
    fn now() -> TraceClock {
        let at = Instant::now();
        TraceClock {
            at,
            tracer_us: Tracer::global().now_us() as f64,
        }
    }

    /// Tracer µs of `origin + ns`.
    fn at(&self, origin: Instant, ns: u64) -> f64 {
        let offset = origin.saturating_duration_since(self.at).as_secs_f64() * 1e6;
        self.tracer_us + offset + ns as f64 / 1e3
    }
}

/// Play `schedule` with `Mode::Full` tracing and fold the phase's spans.
fn traced(
    dep: &Deployment<'_>,
    schedule: &[Arrival],
) -> (Played, Folded, TraceClock, Vec<fpsa_obs::Event>) {
    let tracer = Tracer::global();
    tracer.clear();
    let clock = TraceClock::now();
    let played = gen::play_open(dep, schedule);
    // Workers close a request's root span just after answering it.
    std::thread::sleep(Duration::from_millis(20));
    let events = tracer.events();
    tracer.clear();
    (played, fold::fold(&events), clock, events)
}

/// Mean per-request latency split along the request's timeline (see
/// `ATTRIBUTION`); requests whose spans are missing count wholly as
/// unattributed.
fn attribute(played: &Played, folded: &Folded, clock: &TraceClock) -> Vec<f64> {
    let mut sums = vec![0.0f64; ATTRIBUTION.len()];
    let matched = played.records.len() == folded.requests.len();
    let mut n = 0.0f64;
    for (k, record) in played.records.iter().enumerate() {
        if record.outcome != Outcome::Ok {
            continue;
        }
        n += 1.0;
        let due = clock.at(played.origin, record.arrival.due_ns);
        let observed = clock.at(played.origin, record.observed_ns);
        let total = observed - due;
        let mut rows = vec![0.0f64; ATTRIBUTION.len()];
        rows[0] = total;
        let spans = if matched {
            folded.requests.get(k)
        } else {
            None
        };
        if let Some(req) = spans.filter(|r| r.complete()) {
            let begin = req.begin.unwrap_or_default() as f64;
            let end = req.end.unwrap_or_default() as f64;
            let queue = req.queue_us().unwrap_or(0.0);
            let execute = req.execute_us();
            let respond = req.respond_us();
            let submit_start = clock.at(played.origin, record.submit_start_ns);
            rows[1] = submit_start - due;
            rows[2] = begin - submit_start;
            rows[3] = queue;
            rows[4] = execute;
            rows[5] = respond;
            rows[6] = (end - begin) - queue - execute - respond;
            rows[7] = observed - end;
        }
        rows[8] = total - rows[1..8].iter().sum::<f64>();
        for (sum, row) in sums.iter_mut().zip(rows) {
            *sum += row;
        }
    }
    sums.iter().map(|s| s / n.max(1.0)).collect()
}

/// Traced phases: the per-layer serving metrics and a Chrome trace.
pub fn run_traced_phases(
    dep: &Deployment<'_>,
    spec: &ServingSpec,
    workload: &str,
    seed: u64,
    plan: PhasePlan,
    metrics: &mut Metrics,
    report: &mut Vec<String>,
) -> Result<Tally, String> {
    let layer = if matches!(dep.engine, Engine::Fleet(_)) {
        "fleet"
    } else {
        "serve"
    };
    let tracer = Tracer::global();
    let mut tally = Tally::default();
    tally.add_burst(&play_burst(dep, Rng::derive(seed, 300), plan.warm_s));

    let before = dep.counts();
    let untraced = play_burst(dep, Rng::derive(seed, 301), plan.burst_s / 2.0);
    tally.add_burst(&untraced);
    metrics.set(
        format!("{layer}.batch_mean.burst"),
        batch_mean(before, dep.counts()),
    );
    let capacity_untraced = untraced.rate();

    tracer.set_mode(Mode::Full);
    tracer.clear();
    let burst_s = (plan.burst_s / 2.0).min(TRACED_REQUESTS / capacity_untraced.max(1.0));
    let traced_burst = play_burst(dep, Rng::derive(seed, 304), burst_s);
    std::thread::sleep(Duration::from_millis(20));
    let folded = fold::fold(&tracer.events());
    tracer.clear();
    tally.add_burst(&traced_burst);
    let capacity_traced = traced_burst.rate();
    metrics.set(
        "obs.trace_overhead_ratio",
        capacity_untraced / capacity_traced.max(1e-9),
    );
    let busy_wall_us = traced_burst.wall_s * 1e6;
    metrics.set(
        "exec.busy_ratio",
        folded.exec_busy_us / (dep.workers as f64 * busy_wall_us),
    );
    for (stage, busy) in folded.stage_busy_us.iter().enumerate() {
        metrics.set(
            format!("shard.stage_busy_ratio.{stage}"),
            busy / (dep.per_stage as f64 * busy_wall_us),
        );
    }
    report.push(format!(
        "  capacity untraced {capacity_untraced:.0} rps, traced {capacity_traced:.0} rps"
    ));

    let mut submit = Vec::new();
    for (phase, rate, seconds, stream) in [
        ("light", spec.light_rps, plan.light_s, 302),
        ("heavy", spec.heavy_rps, plan.heavy_s, 303),
    ] {
        let seconds = seconds.min(TRACED_REQUESTS / rate);
        let schedule = gen::poisson(Rng::derive(seed, stream), rate, seconds, &dep.prepared.mix);
        let before = dep.counts();
        let (played, folded, clock, events) = traced(dep, &schedule);
        tally.add(&played);
        metrics.set(
            format!("{layer}.batch_mean.{phase}"),
            batch_mean(before, dep.counts()),
        );
        let lags: Vec<f64> = played.records.iter().map(gen::Record::lag_us).collect();
        let (lag_p99, late) = lag_summary(phase, &lags, report);
        metrics.set(format!("gen.lag_p99_us.{phase}"), lag_p99);
        metrics.set(format!("gen.late_ratio.{phase}"), late);
        submit.extend(played.records.iter().map(gen::Record::submit_us));

        let waits: Vec<f64> = folded
            .requests
            .iter()
            .filter_map(|r| r.queue_us())
            .collect();
        let waits = Timing::of(&waits);
        report.push(format!("  {phase} queue wait {}", waits.describe("us")));
        match phase {
            "light" => {
                metrics.set(format!("{layer}.queue_wait_us.p50"), waits.p50);
                let wakes: Vec<f64> = played
                    .records
                    .iter()
                    .filter(|r| r.outcome == Outcome::Ok)
                    .map(gen::Record::wake_us)
                    .collect();
                if layer == "serve" {
                    metrics.set("serve.wake_us", stats::median(&wakes));
                }
                let path =
                    fpsa_obs::export::write_chrome_trace(&format!("perfbench-{workload}"), &events)
                        .map_err(|e| format!("writing the Chrome trace: {e}"))?;
                report.push(format!("  chrome trace: {}", path.display()));
            }
            _ => {
                metrics.set(format!("{layer}.queue_wait_us.p99"), waits.p99);
                if layer == "fleet" {
                    for (tenant, name) in dep.prepared.tenants().iter().enumerate() {
                        let mine: Vec<f64> = played
                            .records
                            .iter()
                            .filter(|r| {
                                r.outcome == Outcome::Ok && usize::from(r.arrival.tenant) == tenant
                            })
                            .map(gen::Record::latency_us)
                            .collect();
                        metrics.set(format!("fleet.tenant_p99_us.{name}"), Timing::of(&mine).p99);
                    }
                }
            }
        }

        let rows = attribute(&played, &folded, &clock);
        let total = rows[0];
        let mut line = format!("  {phase} attribution of mean latency {total:.1}us:");
        for (row, value) in ATTRIBUTION.iter().zip(&rows) {
            metrics.set(format!("attr.{phase}.{row}"), *value);
            if *row != "total_us" {
                line.push_str(&format!(" {row}={value:.1}"));
            }
        }
        let share = rows[8].abs() / total.max(1e-9);
        line.push_str(&format!(" (unattributed share {:.2}%)", share * 100.0));
        report.push(line);
    }
    metrics.set(format!("{layer}.submit_us"), stats::median(&submit));
    let counts = dep.counts();
    if layer == "fleet" {
        let lookups = counts.bind_hits + counts.bind_misses;
        metrics.set(
            "fleet.bind_hit_ratio",
            counts.bind_hits as f64 / lookups.max(1) as f64,
        );
        metrics.set("fleet.sheds", counts.sheds as f64);
    }
    tracer.set_mode(Mode::Off);
    tracer.clear();
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serves tiny_mlp, but sends a wrong-length input for odd pool slots.
    struct Refusing {
        engine: ServeEngine,
        pool: Vec<Vec<f32>>,
        expected: Vec<Vec<f32>>,
    }

    impl Target for Refusing {
        fn input(&self, arrival: &Arrival) -> Vec<f32> {
            if arrival.input % 2 == 1 {
                vec![0.5; 3]
            } else {
                self.pool[arrival.input as usize].clone()
            }
        }

        fn submit(&self, _: &Arrival, input: Vec<f32>) -> Ticket {
            self.engine.submit(input)
        }

        fn expected(&self, arrival: &Arrival) -> &[f32] {
            &self.expected[arrival.input as usize]
        }
    }

    #[test]
    fn refused_requests_count_as_failures_and_as_latency_limit_misses() {
        let graph = zoo::tiny_mlp();
        let params = GraphParameters::seeded(&graph, 5);
        let compiled = Compiler::fpsa().compile(&graph).unwrap();
        let exec = compiled
            .executor(&graph, &params, &Precision::Float)
            .unwrap();
        let pool = sample_inputs(&graph, 4, 9);
        let expected = pool.iter().map(|x| exec.run(x).unwrap()).collect();
        let target = Refusing {
            engine: ServeEngine::start(exec, ServeConfig::default()),
            pool,
            expected,
        };
        let schedule = gen::poisson(3, 4000.0, 0.05, &Mix::single(4));
        let played = gen::play_open(&target, &schedule);
        let refused = schedule.iter().filter(|a| a.input % 2 == 1).count();
        assert!(refused > 0 && refused < schedule.len());
        assert_eq!(
            played.failed(),
            refused,
            "every InputLength refusal is a failed request"
        );
        assert_eq!(played.mismatches(), 0);

        let mut tally = Tally::default();
        tally.add(&played);
        assert_eq!(tally.failed, refused as u64);
        let answered = (schedule.len() - refused) as f64 / schedule.len() as f64;
        assert!((tally.ok_ratio() - answered).abs() < 1e-12);

        // With no latency limit at all, a refused request still misses it.
        let mut phase = PhaseAcc::default();
        phase.add(&played, f64::INFINITY, 0.05);
        assert!((phase.within[0] - answered).abs() < 1e-12);
        assert_eq!(phase.cycles[0].len(), schedule.len() - refused);
    }
}
