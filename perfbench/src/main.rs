//! `perfbench`: the FPSA stack's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compile-zoo|serve-mlp|fleet-zoo|serve-sharded-int|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics with tracing off; `--trace 1` is the separate traced run that
//! gives the per-layer metrics. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. Any
//! response that differs from direct execution, or any compile pass that
//! differs from the first, makes the process exit non-zero. See
//! `perfbench/README.md` for the workloads and the metric map.

mod compile;
mod fold;
mod gen;
mod report;
mod serving;
mod stats;

use compile::{CompileSet, Job, Passes, ShardJob};
use fpsa_core::Compiler;
use fpsa_nn::zoo::{self, Benchmark};
use report::{Host, Metrics, END_TO_END, PER_LAYER};
use serving::{Kind, PhasePlan, Prepared, ServingSpec};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["compile-zoo", "serve-mlp", "fleet-zoo", "serve-sharded-int"];

/// Cycles an end-to-end run is split into.
const CYCLES: usize = 40;
/// Most passes of the cheaper compile set per pass of the dearer one.
const MAX_REPEATS: f64 = 4.0;
/// Every this many cycles the engine is deployed afresh, so `setup_s` is
/// the median of `CYCLES / REDEPLOY` set-ups spread over the run.
const REDEPLOY: usize = 5;

/// Each workload's serving definition. Rates and latency limits are fixed
/// numbers chosen once from this benchmark's first measurements (see
/// README.md), never derived at run time.
fn spec_of(workload: &str) -> Option<ServingSpec> {
    let (kind, light_rps, heavy_rps, limit_us) = match workload {
        "compile-zoo" => (
            Kind::Dedicated {
                model: zoo::tiny_cnn,
                noisy: true,
            },
            8_000.0,
            24_000.0,
            1_500.0,
        ),
        "serve-mlp" => (
            Kind::Dedicated {
                model: zoo::mlp_500_100,
                noisy: false,
            },
            4_000.0,
            12_000.0,
            3_000.0,
        ),
        "fleet-zoo" => (Kind::Fleet, 15_000.0, 48_000.0, 1_000.0),
        "serve-sharded-int" => (Kind::ShardedInt, 430.0, 1_300.0, 5_000.0),
        _ => return None,
    };
    Some(ServingSpec {
        kind,
        light_rps,
        heavy_rps,
        limit_us,
    })
}

/// compile-zoo's two sets: routed (P&R runs) and analytic (over the
/// 4000-block P&R limit, so the analytic wire model stands in).
fn zoo_sets() -> (CompileSet, CompileSet) {
    let mut routed = CompileSet::default();
    for model in [
        Benchmark::Mlp500x100,
        Benchmark::LeNet,
        Benchmark::CifarVgg17,
    ] {
        let graph = model.build();
        for duplication in compile::DUPLICATIONS {
            routed.jobs.push(Job {
                graph: graph.clone(),
                compiler: Compiler::fpsa().with_duplication(duplication),
            });
        }
    }
    routed.shards.push(ShardJob::new(
        Benchmark::CifarVgg17.build(),
        Compiler::fpsa(),
        32,
    ));
    let mut analytic = CompileSet::default();
    for model in [
        Benchmark::AlexNet,
        Benchmark::Vgg16,
        Benchmark::GoogLeNet,
        Benchmark::ResNet152,
    ] {
        analytic.jobs.push(Job {
            graph: model.build(),
            compiler: Compiler::fpsa().with_analytic_fallback(),
        });
    }
    (routed, analytic)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// What one workload run produced.
struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    report: Vec<String>,
}

/// Passes of the routed and the analytic set in the next compile step: the
/// cheaper set (the routed one on compile-zoo, the analytic one elsewhere)
/// repeats as often as it fits into one pass of the dearer one, up to
/// `MAX_REPEATS`, so both sets' fast sides rest on many samples.
fn repeats(routed: &Passes, analytic: &Passes) -> (usize, usize) {
    let (r, a) = (stats::median(&routed.walls), stats::median(&analytic.walls));
    if r <= 0.0 || a <= 0.0 {
        return (1, 1);
    }
    let times = |ratio: f64| ratio.round().clamp(1.0, MAX_REPEATS) as usize;
    (times(a / r), times(r / a))
}

fn rounded(values: &[f64]) -> Vec<f64> {
    values.iter().map(|v| (v * 1e4).round() / 1e4).collect()
}

/// Deploys `prepared`, checks the artifacts against the first deployment's
/// and records the set-up time.
struct Setups {
    seconds: Vec<f64>,
    first: Option<compile::Artifacts>,
    mismatches: usize,
}

impl Setups {
    fn deploy<'p>(&mut self, prepared: &'p Prepared) -> Result<serving::Deployment<'p>, String> {
        let deployed = serving::deploy(prepared)?;
        self.seconds.push(deployed.setup_s);
        match &self.first {
            None => self.first = Some(deployed.artifacts),
            Some(first) if *first != deployed.artifacts => self.mismatches += 1,
            Some(_) => {}
        }
        Ok(deployed.deployment)
    }
}

fn run_workload(args: &Args) -> Result<Run, String> {
    let spec = spec_of(&args.workload).ok_or("unknown workload")?;
    let zoo = args.workload == "compile-zoo";
    let mut metrics = Metrics::default();
    let mut report = Vec::new();

    let prepared = Prepared::new(spec.kind, args.seed)?;
    let (routed, analytic) = if zoo {
        zoo_sets()
    } else {
        prepared.compile_sets()
    };
    let mut setups = Setups {
        seconds: Vec::new(),
        first: None,
        mismatches: 0,
    };
    let mut attempted = 0u64;

    // Each cycle's share of the measuring time; compile-zoo spends 40% of
    // it compiling, serving workloads 5%.
    let cycle_s = args.seconds / CYCLES as f64;
    let compile_s = if zoo { 0.4 * cycle_s } else { 0.05 * cycle_s };
    let serve_s = cycle_s - compile_s;
    let plan = PhasePlan {
        warm_s: 0.02 * serve_s,
        burst_s: 0.2 * serve_s,
        light_s: 0.4 * serve_s,
        heavy_s: 0.4 * serve_s,
    };

    let (tally, compile_mismatches) = if args.trace {
        compile::layer_pass(&[&routed, &analytic], &mut metrics)?;
        attempted += (routed.len() + analytic.len()) as u64;
        serving::probe_exec(&prepared, &mut metrics)?;
        let deployment = setups.deploy(&prepared)?;
        let traced = PhasePlan {
            warm_s: 0.3,
            burst_s: 0.2 * args.seconds,
            light_s: 0.4 * args.seconds,
            heavy_s: 0.4 * args.seconds,
        };
        let tally = serving::run_traced_phases(
            &deployment,
            &spec,
            &args.workload,
            args.seed,
            traced,
            &mut metrics,
            &mut report,
        )?;
        deployment.shutdown();
        (tally, 0)
    } else {
        // Cycles spread every measurement over the whole run: cold compile
        // passes, a fresh timed deployment, then burst, light and heavy.
        let mut routed_passes = Passes::default();
        let mut analytic_passes = Passes::default();
        let mut acc = serving::ServeAcc::default();
        let mut compiling = 0.0f64;
        let mut deployment = None;
        for cycle in 0..CYCLES {
            // Compile while this cycle's share of the compile budget lasts
            // (a long step borrows from later cycles); at least 3 steps.
            while compiling < compile_s * (cycle + 1) as f64 || analytic_passes.walls.len() < 3 {
                let start = Instant::now();
                let (routed_reps, analytic_reps) = repeats(&routed_passes, &analytic_passes);
                for _ in 0..routed_reps {
                    routed_passes.run(&routed)?;
                }
                for _ in 0..analytic_reps {
                    analytic_passes.run(&analytic)?;
                }
                attempted += (routed_reps * routed.len() + analytic_reps * analytic.len()) as u64;
                compiling += start.elapsed().as_secs_f64();
            }
            if cycle % REDEPLOY == 0 {
                if let Some(previous) = deployment.take() {
                    serving::Deployment::shutdown(previous);
                }
                deployment = Some(setups.deploy(&prepared)?);
            }
            let current = deployment.as_ref().ok_or("no deployment")?;
            serving::run_cycle(current, &spec, args.seed, cycle as u64, plan, &mut acc);
        }
        if let Some(last) = deployment {
            last.shutdown();
        }
        metrics.set("compile_routed_s", routed_passes.fast_s());
        metrics.set("compile_analytic_s", analytic_passes.fast_s());
        let mut modeled = Vec::new();
        for passes in [&routed_passes, &analytic_passes] {
            if let Some(first) = &passes.first {
                modeled.extend(first.modeled_throughputs());
            }
        }
        metrics.set("modeled_tput_geomean", stats::geomean(&modeled));
        report.push(format!(
            "  compile passes: routed {} (median {:.4} s), analytic {} (median {:.4} s)",
            routed_passes.walls.len(),
            stats::median(&routed_passes.walls),
            analytic_passes.walls.len(),
            stats::median(&analytic_passes.walls),
        ));
        serving::finish_cycles(&acc, &spec, &mut metrics, &mut report);
        (
            acc.tally,
            routed_passes.mismatches + analytic_passes.mismatches,
        )
    };
    let compile_mismatches = compile_mismatches + setups.mismatches;
    attempted += setups.seconds.len() as u64 + tally.attempted;
    report.push(format!(
        "  setup (compile+calibrate+bind+start) per deployment: {:?} s",
        rounded(&setups.seconds)
    ));
    metrics.set("setup_s", stats::median(&setups.seconds));
    metrics.set("ok_ratio", tally.ok_ratio());
    metrics.set(
        "peak_rss_mb",
        report::peak_rss_mb().ok_or("VmHWM unavailable")?,
    );
    if tally.mismatches > 0 {
        report.push(format!(
            "  MISMATCH: {} responses differ from direct execution",
            tally.mismatches
        ));
    }
    if compile_mismatches > 0 {
        report.push(format!(
            "  MISMATCH: {compile_mismatches} compiles differ from the first"
        ));
    }
    Ok(Run {
        correct: tally.mismatches == 0 && compile_mismatches == 0,
        attempted,
        failed: tally.failed,
        metrics,
        report,
    })
}

/// Print the run's report, write its record under `target/perfbench/`, and
/// print the result line.
fn finish(args: &Args, run: &Run) -> Result<(), String> {
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let selected = run.metrics.select(table, !args.trace)?;
    let host = Host::current();
    println!(
        "{} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &run.report {
        println!("{line}");
    }
    for (name, value, unit) in &selected {
        println!("  {name:<32} {value:>16.4} {unit}");
    }
    let result = report::result_json(run.correct, run.attempted, run.failed, &selected);
    let body = format!(
        "\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {{\"nproc\": {}, \"cpu\": {}, \"profile\": {}, \"rustc\": {}}}, \"report\": [{}], \"result\": {result}",
        report::string(&args.workload),
        args.seed,
        report::number(args.seconds),
        u8::from(args.trace),
        host.nproc,
        report::string(&host.cpu),
        report::string(host.profile),
        report::string(host.rustc),
        run.report.iter().map(|l| report::string(l.trim())).collect::<Vec<_>>().join(", "),
    );
    let run_id = format!("fnv1a-{:016x}", report::fnv1a(&body));
    println!(
        "host: nproc={} cpu=\"{}\" profile={} rustc=\"{}\" seed={} run_id={run_id}",
        host.nproc, host.cpu, host.profile, host.rustc, args.seed
    );
    let dir = std::path::Path::new("target").join("perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, format!("{{\"run_id\": \"{run_id}\", {body}}}\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{result}");
    Ok(())
}

/// `--workload all`: every workload in its own process (so `peak_rss_mb`
/// is per workload), with its output passed through. True when every
/// workload exited 0 (outputs correct).
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("{workload}: {e}"))?;
        if !status.success() {
            println!("{workload}: exited with {status}");
            all_ok = false;
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    match run_workload(&args).and_then(|run| finish(&args, &run).map(|()| run.correct)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: outputs differ from direct execution");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
