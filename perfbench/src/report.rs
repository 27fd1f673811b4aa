//! Metric names, the result line, and the host/build record.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("compile_routed_s", "s"),
    ("compile_analytic_s", "s"),
    ("modeled_tput_geomean", "samples/s"),
    ("capacity_rps", "1/s"),
    ("light_p50_us", "us"),
    ("heavy_p50_us", "us"),
    ("heavy_p90_us", "us"),
    ("heavy_goodput_rps", "1/s"),
    ("ok_ratio", "ratio"),
];

/// Rows of the per-request latency attribution, in timeline order.
pub const ATTRIBUTION: &[&str] = &[
    "total_us",
    "gen_lag_us",
    "submit_us",
    "queue_us",
    "execute_us",
    "respond_us",
    "engine_other_us",
    "wake_us",
    "unattributed_us",
];

/// Per-layer metrics (`--trace 1`). A layer a workload does not run
/// reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("synthesis.busy_ms", "ms"),
    ("synthesis.core_ops", "count"),
    ("mapper.busy_ms", "ms"),
    ("mapper.blocks", "count"),
    ("mapper.nets", "count"),
    ("placeroute.busy_ms", "ms"),
    ("placeroute.moves", "count"),
    ("placeroute.route_iters", "count"),
    ("placeroute.hpwl", "tiles"),
    ("placeroute.critical_ns", "ns"),
    ("estimate.busy_ms", "ms"),
    ("shard.busy_ms", "ms"),
    ("shard.stages", "count"),
    ("shard.stage_busy_ratio.0", "ratio"),
    ("shard.stage_busy_ratio.1", "ratio"),
    ("exec.bind_ms", "ms"),
    ("exec.us_per_sample.b1", "us"),
    ("exec.us_per_sample.b8", "us"),
    ("exec.busy_ratio", "ratio"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_us.p50", "us"),
    ("serve.queue_wait_us.p99", "us"),
    ("serve.batch_mean.burst", "count"),
    ("serve.batch_mean.light", "count"),
    ("serve.batch_mean.heavy", "count"),
    ("serve.wake_us", "us"),
    ("fleet.submit_us", "us"),
    ("fleet.queue_wait_us.p50", "us"),
    ("fleet.queue_wait_us.p99", "us"),
    ("fleet.batch_mean.burst", "count"),
    ("fleet.batch_mean.light", "count"),
    ("fleet.batch_mean.heavy", "count"),
    ("fleet.bind_hit_ratio", "ratio"),
    ("fleet.sheds", "count"),
    ("fleet.tenant_p99_us.free", "us"),
    ("fleet.tenant_p99_us.pro", "us"),
    ("gen.lag_p99_us.light", "us"),
    ("gen.lag_p99_us.heavy", "us"),
    ("gen.late_ratio.light", "ratio"),
    ("gen.late_ratio.heavy", "ratio"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("attr.light.total_us", "us"),
    ("attr.light.gen_lag_us", "us"),
    ("attr.light.submit_us", "us"),
    ("attr.light.queue_us", "us"),
    ("attr.light.execute_us", "us"),
    ("attr.light.respond_us", "us"),
    ("attr.light.engine_other_us", "us"),
    ("attr.light.wake_us", "us"),
    ("attr.light.unattributed_us", "us"),
    ("attr.heavy.total_us", "us"),
    ("attr.heavy.gen_lag_us", "us"),
    ("attr.heavy.submit_us", "us"),
    ("attr.heavy.queue_us", "us"),
    ("attr.heavy.execute_us", "us"),
    ("attr.heavy.respond_us", "us"),
    ("attr.heavy.engine_other_us", "us"),
    ("attr.heavy.wake_us", "us"),
    ("attr.heavy.unattributed_us", "us"),
];

/// Whether `name` is a legal metric name (`[A-Za-z0-9_.-]+`, starting with
/// a letter or digit, at most 64 characters).
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric values collected by one run.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Record `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// Add to `name` (starting from 0).
    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The metrics of `table` in order with their units. Per-layer names a
    /// workload never touched read 0; an end-to-end name must be present.
    pub fn select(
        &self,
        table: &[(&'static str, &'static str)],
        required: bool,
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        table
            .iter()
            .map(|&(name, unit)| match self.get(name) {
                Some(v) if v.is_finite() => Ok((name, v, unit)),
                Some(v) => Err(format!("metric {name} is not finite: {v}")),
                None if required => Err(format!("metric {name} was not measured")),
                None => Ok((name, 0.0, unit)),
            })
            .collect()
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite f64 as a JSON number with all its digits.
pub fn number(value: f64) -> String {
    format!("{value}")
}

/// A JSON string literal.
pub fn string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host and build a run executed on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// Cargo build profile of this binary.
    pub profile: &'static str,
    /// `rustc --version` of the compiler that built it.
    pub rustc: &'static str,
}

impl Host {
    /// Read the current host.
    pub fn current() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            profile: env!("PERFBENCH_PROFILE"),
            rustc: env!("PERFBENCH_RUSTC"),
        }
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a 64 of `text`: the content-hash run id.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
        for row in ATTRIBUTION {
            for phase in ["light", "heavy"] {
                let name = format!("attr.{phase}.{row}");
                assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
            }
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("a/b"));
    }

    #[test]
    fn the_metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let names_in = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..].find(']').expect("section closes") + start;
            text[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s.split('"').next().unwrap_or_default().to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in("end_to_end"), e2e);
        assert_eq!(names_in("per_layer"), layer);
    }

    #[test]
    fn the_result_line_has_the_four_keys() {
        let line = result_json(true, 3, 0, &[("setup_s", 0.5, "s"), ("x", 2.0, "count")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"x\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
        let mut m = Metrics::default();
        m.set("setup_s", 1.0);
        assert!(m.select(END_TO_END, true).is_err());
        assert_eq!(
            m.select(&[("y", "s")], false).unwrap(),
            vec![("y", 0.0, "s")]
        );
    }
}
