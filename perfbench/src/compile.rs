//! The compile layers: cold compile passes through the public entry points
//! (`Compiler::compile`, `ShardCompiler::compile_auto`) for the end-to-end
//! timings, and the `fpsa_core::pipeline` stages called one by one for the
//! per-layer table. No `CompileCache` is involved anywhere: every compile
//! is cold.

use crate::report::Metrics;
use crate::stats;
use fpsa_core::pipeline::{
    CompileStage, EstimateStage, MapStage, PlaceRouteStage, SynthesizeStage,
};
use fpsa_core::{CompiledModel, Compiler};
use fpsa_nn::ComputationalGraph;
use fpsa_shard::{FabricBudget, ShardCompiler, ShardedModel};
use std::time::Instant;

/// The duplication degrees every single-fabric model is compiled at.
pub const DUPLICATIONS: [u64; 3] = [1, 4, 16];

/// One model compiled with one configuration.
#[derive(Debug, Clone)]
pub struct Job {
    /// The graph.
    pub graph: ComputationalGraph,
    /// The compiler configuration.
    pub compiler: Compiler,
}

/// One model auto-sharded under a fabric budget.
#[derive(Debug, Clone)]
pub struct ShardJob {
    /// The graph.
    pub graph: ComputationalGraph,
    /// The shard compiler (budget + per-stage compiler).
    pub sharder: ShardCompiler,
}

impl ShardJob {
    /// `graph` auto-sharded with `compiler` under a `pes`-PE budget.
    pub fn new(graph: ComputationalGraph, compiler: Compiler, pes: usize) -> ShardJob {
        ShardJob {
            graph,
            sharder: ShardCompiler::new(compiler, FabricBudget::with_pes(pes)),
        }
    }
}

/// A set of compiles timed as one pass.
#[derive(Debug, Clone, Default)]
pub struct CompileSet {
    /// Single-fabric compiles.
    pub jobs: Vec<Job>,
    /// Auto-sharded compiles.
    pub shards: Vec<ShardJob>,
}

impl CompileSet {
    /// Compiles in one pass.
    pub fn len(&self) -> usize {
        self.jobs.len() + self.shards.len()
    }
}

/// What one pass produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifacts {
    /// Single-fabric compiles, in job order.
    pub models: Vec<CompiledModel>,
    /// Sharded compiles, in job order.
    pub sharded: Vec<ShardedModel>,
}

impl Artifacts {
    /// Modeled throughput of every artifact, samples/s.
    pub fn modeled_throughputs(&self) -> Vec<f64> {
        self.models
            .iter()
            .map(|m| m.performance().throughput_samples_per_s)
            .chain(
                self.sharded
                    .iter()
                    .map(|s| s.performance().throughput_samples_per_s),
            )
            .collect()
    }
}

/// Compile every job of `set` cold; returns the artifacts and the wall time
/// in seconds.
pub fn pass(set: &CompileSet) -> Result<(Artifacts, f64), String> {
    let start = Instant::now();
    let models = set
        .jobs
        .iter()
        .map(|job| {
            job.compiler
                .compile(&job.graph)
                .map_err(|e| format!("{}: {e}", job.graph.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let sharded = set
        .shards
        .iter()
        .map(|job| {
            job.sharder
                .compile_auto(&job.graph)
                .map_err(|e| format!("{} (sharded): {e}", job.graph.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let wall = start.elapsed().as_secs_f64();
    Ok((Artifacts { models, sharded }, wall))
}

/// Repeated cold passes over one set.
#[derive(Debug, Default)]
pub struct Passes {
    /// Wall time of each pass, seconds.
    pub walls: Vec<f64>,
    /// The first pass's artifacts; every later pass must equal them.
    pub first: Option<Artifacts>,
    /// Passes whose artifacts differed from the first.
    pub mismatches: usize,
}

impl Passes {
    /// Run one more pass and check it against the first.
    pub fn run(&mut self, set: &CompileSet) -> Result<(), String> {
        let (artifacts, wall) = pass(set)?;
        self.walls.push(wall);
        match &self.first {
            None => self.first = Some(artifacts),
            Some(first) if *first != artifacts => self.mismatches += 1,
            Some(_) => {}
        }
        Ok(())
    }

    /// The fast-side quantile of the pass wall times, which host
    /// interference does not reach, seconds.
    pub fn fast_s(&self) -> f64 {
        stats::quantile_of(&self.walls, stats::QUIET_SHARE)
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Run every job of `sets` through the pipeline stages one by one and add
/// each layer's busy time and work counts to `metrics` (`shard.stages` is
/// the most stages any sharded job was split into).
pub fn layer_pass(sets: &[&CompileSet], metrics: &mut Metrics) -> Result<(), String> {
    let err = |name: &str, e: fpsa_core::CompileError| format!("{name}: {e}");
    for set in sets {
        for job in &set.jobs {
            let arch = &job.compiler.arch;
            let name = &job.graph.name;
            let t = Instant::now();
            let core = SynthesizeStage::for_architecture(arch)
                .run(&job.graph)
                .map_err(|e| err(name, e))?;
            metrics.add("synthesis.busy_ms", ms_since(t));
            metrics.add("synthesis.core_ops", core.total_core_ops() as f64);

            let t = Instant::now();
            let mapping = MapStage::new(arch, job.compiler.duplication)
                .run(&core)
                .map_err(|e| err(name, e))?;
            metrics.add("mapper.busy_ms", ms_since(t));
            metrics.add("mapper.blocks", mapping.netlist.len() as f64);
            metrics.add("mapper.nets", mapping.netlist.nets().len() as f64);

            let t = Instant::now();
            let physical = PlaceRouteStage::new(arch.clone(), job.compiler.place_route)
                .run(&mapping)
                .map_err(|e| err(name, e))?;
            metrics.add("placeroute.busy_ms", ms_since(t));
            if let Some(p) = &physical {
                let quality = p.placement.quality();
                metrics.add("placeroute.moves", quality.moves_evaluated as f64);
                metrics.add("placeroute.hpwl", quality.final_wirelength);
                metrics.add("placeroute.route_iters", p.routing.iterations as f64);
                metrics.add("placeroute.critical_ns", p.timing.critical_delay_ns);
            }

            let t = Instant::now();
            let communication = EstimateStage::new(arch.clone())
                .run((&mapping, physical.as_ref()))
                .map_err(|e| err(name, e))?;
            let model = CompiledModel {
                arch: arch.clone(),
                core_graph: core,
                mapping,
                physical,
                communication,
                trace: Default::default(),
            };
            std::hint::black_box(model.performance());
            metrics.add("estimate.busy_ms", ms_since(t));
        }
        for job in &set.shards {
            let t = Instant::now();
            let sharded = job
                .sharder
                .compile_auto(&job.graph)
                .map_err(|e| format!("{} (sharded): {e}", job.graph.name))?;
            metrics.add("shard.busy_ms", ms_since(t));
            let stages = metrics.get("shard.stages").unwrap_or(0.0);
            metrics.set("shard.stages", stages.max(sharded.stage_count() as f64));
        }
    }
    Ok(())
}
