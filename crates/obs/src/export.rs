//! Exporters: Chrome trace-event JSON (Perfetto-loadable), per-run
//! markdown summaries, and flight-recorder dump files.
//!
//! The vendored serde facade renders any value as a quoted `Debug` string
//! (see `vendor/serde_json`), so real structured JSON — which Perfetto and
//! the CI well-formedness checks require — is hand-rendered here. Rendering
//! is deterministic: events are emitted in buffer order with no clocks,
//! hashes, or map iteration involved, so a trace recorded against the
//! virtual clock serializes to byte-identical JSON on every run (pinned in
//! `fpsa_workload`'s tests).

use crate::trace::{Event, FlightDump, Phase};
use crate::MetricsSnapshot;
use std::fs;
use std::io;
use std::path::PathBuf;

/// Render a string as a quoted, escaped JSON string literal. The one JSON
/// string escaper of the workspace's hand-rendered artifacts (trace exports
/// here, scenario reports, bench JSON).
pub fn json_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render one event as a Chrome trace-event object.
fn render_event(event: &Event, out: &mut String) {
    let ph = match event.phase {
        Phase::SpanBegin => "b",
        Phase::SpanEnd => "e",
        Phase::Instant => "i",
        Phase::Counter => "C",
    };
    out.push_str(&format!(
        "{{\"ph\":\"{ph}\",\"name\":{},\"cat\":{},\"pid\":1,\"tid\":1,\"ts\":{}",
        json_str(event.name),
        json_str(event.cat),
        event.ts_us
    ));
    match event.phase {
        // Async begin/end pairs correlate by id; Perfetto nests same-id
        // spans by timestamp containment, which is how a request's
        // queue → execute → respond chain renders as a nested track.
        Phase::SpanBegin | Phase::SpanEnd => {
            out.push_str(&format!(",\"id\":\"0x{:x}\"", event.id));
        }
        Phase::Instant => {
            out.push_str(",\"s\":\"p\"");
        }
        Phase::Counter => {}
    }
    let mut args: Vec<(&'static str, i64)> = Vec::with_capacity(3);
    if event.phase == Phase::Instant && event.id != 0 {
        args.push(("span", event.id as i64));
    }
    args.extend_from_slice(event.args());
    if !args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (key, value)) in args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_str(key), value));
        }
        out.push('}');
    }
    out.push('}');
}

/// Render events as a complete Chrome trace-event JSON document
/// (`{"traceEvents": [...]}`), loadable in Perfetto / `chrome://tracing`.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        render_event(event, &mut out);
    }
    out.push_str("\n]}\n");
    out
}

/// Render a flight dump: the trigger context as metadata instants followed
/// by the ring contents.
pub fn flight_dump_json(dump: &FlightDump) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&format!(
        "{{\"ph\":\"i\",\"name\":{},\"cat\":\"flight\",\"pid\":1,\"tid\":1,\"ts\":{},\"s\":\"g\"",
        json_str(&format!("flight-dump:{}", dump.reason)),
        dump.events.last().map_or(0, |e| e.ts_us)
    ));
    if !dump.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (key, value)) in dump.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_str(key), value));
        }
        out.push('}');
    }
    out.push('}');
    for event in &dump.events {
        out.push_str(",\n");
        render_event(event, &mut out);
    }
    out.push_str("\n]}\n");
    out
}

/// Walk up from the current directory to the workspace root (the directory
/// holding `Cargo.lock`), mirroring `fpsa_bench::workspace_root` — the obs
/// crate stays dependency-free, so the four-line walk is duplicated rather
/// than imported.
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    for _ in 0..4 {
        if dir.join("Cargo.lock").exists() {
            return dir;
        }
        if !dir.pop() {
            break;
        }
    }
    std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."))
}

/// `<workspace>/target/experiment-data/traces/`, created on demand: where
/// every exported trace and flight dump lands.
pub fn traces_dir() -> PathBuf {
    let dir = workspace_root()
        .join("target")
        .join("experiment-data")
        .join("traces");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Write `events` as Chrome-trace JSON to `traces/<name>.json`, returning
/// the path.
pub fn write_chrome_trace(name: &str, events: &[Event]) -> io::Result<PathBuf> {
    let path = traces_dir().join(format!("{name}.json"));
    fs::write(&path, chrome_trace_json(events))?;
    Ok(path)
}

/// Write a flight dump to `traces/flight-<reason>-<seq>.json`, returning
/// the path. The sequence number is a process-wide monotone counter, so
/// repeated errors keep distinct postmortems.
pub fn write_flight_dump(dump: &FlightDump) -> io::Result<PathBuf> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let reason = dump.reason.replace(['.', '/'], "-");
    let path = traces_dir().join(format!("flight-{reason}-{seq}.json"));
    fs::write(&path, flight_dump_json(dump))?;
    Ok(path)
}

/// Render a per-run markdown summary of a metrics snapshot.
pub fn markdown_summary(title: &str, snapshot: &MetricsSnapshot) -> String {
    let mut out = format!("# {title}\n\n");
    if !snapshot.counters.is_empty() {
        out.push_str("## Counters\n\n| counter | total |\n|---|---:|\n");
        for (name, value) in &snapshot.counters {
            out.push_str(&format!("| {name} | {value} |\n"));
        }
        out.push('\n');
    }
    if !snapshot.gauges.is_empty() {
        out.push_str("## Gauges\n\n| gauge | value |\n|---|---:|\n");
        for (name, value) in &snapshot.gauges {
            out.push_str(&format!("| {name} | {value} |\n"));
        }
        out.push('\n');
    }
    if !snapshot.histograms.is_empty() {
        out.push_str(
            "## Histograms\n\n| histogram | count | p50 | p99 | max |\n|---|---:|---:|---:|---:|\n",
        );
        for (name, hist) in &snapshot.histograms {
            out.push_str(&format!(
                "| {name} | {} | {} | {} | {} |\n",
                hist.count(),
                hist.percentile(0.50),
                hist.percentile(0.99),
                hist.max()
            ));
        }
        out.push('\n');
    }
    if snapshot.counters.is_empty() && snapshot.gauges.is_empty() && snapshot.histograms.is_empty()
    {
        out.push_str("No metrics recorded.\n");
    }
    out
}

/// Write a markdown summary to `traces/<name>.md`, returning the path.
pub fn write_markdown_summary(
    name: &str,
    title: &str,
    snapshot: &MetricsSnapshot,
) -> io::Result<PathBuf> {
    let path = traces_dir().join(format!("{name}.md"));
    fs::write(&path, markdown_summary(title, snapshot))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Mode, SpanId, Tracer};

    fn sample_events() -> Vec<Event> {
        let tracer = Tracer::new();
        tracer.set_mode(Mode::Full);
        let req = tracer.enter("request", "serve", 10, SpanId::NONE);
        let queue = tracer.enter("queue", "serve", 10, req.id);
        tracer.exit(&queue, 25);
        let exec = tracer.enter("execute", "serve", 25, req.id);
        tracer.record(&exec, "batch", 4, 26);
        tracer.exit(&exec, 80);
        tracer.counter("queue_depth", "serve", 81, 3);
        tracer.exit(&req, 90);
        tracer.events()
    }

    #[test]
    fn chrome_trace_is_deterministic_and_structurally_sound() {
        let events = sample_events();
        let a = chrome_trace_json(&events);
        let b = chrome_trace_json(&events);
        assert_eq!(a, b, "rendering is a pure function of the events");
        assert!(a.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(a.trim_end().ends_with("]}"));
        assert_eq!(a.matches("\"ph\":\"b\"").count(), 3);
        assert_eq!(a.matches("\"ph\":\"e\"").count(), 3);
        assert_eq!(a.matches("\"ph\":\"C\"").count(), 1);
        assert!(a.contains("\"name\":\"queue\""));
        assert!(a.contains("\"args\":{\"span\":1,\"batch\":4}"));
        // Balanced braces/brackets — cheap well-formedness proxy; CI runs a
        // real JSON parser over the exported file.
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn json_str_quotes_and_escapes() {
        assert_eq!(json_str("fleet-zoo"), "\"fleet-zoo\"");
        assert_eq!(
            json_str("a\"b\\c\nd\re\tf\u{1}"),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001\""
        );
    }

    #[test]
    fn flight_dump_renders_trigger_context_first() {
        let tracer = Tracer::with_flight_capacity(8);
        tracer.set_mode(Mode::FlightRecorder);
        tracer.counter("queue_depth", "serve", 5, 7);
        let dump = tracer.dump_flight("serve.shed", &[("tenant", 3)]).unwrap();
        let json = flight_dump_json(&dump);
        assert!(json.contains("flight-dump:serve.shed"));
        assert!(json.contains("\"args\":{\"tenant\":3}"));
        assert!(json.contains("\"name\":\"queue_depth\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn markdown_summary_tabulates_all_three_kinds() {
        let reg = crate::Registry::new();
        reg.inc(reg.counter("requests"));
        reg.set_gauge(reg.gauge("hosts"), 4);
        let h = reg.histogram("latency_us");
        reg.observe(h, 100);
        reg.observe(h, 900);
        let md = markdown_summary("Run", &reg.snapshot());
        assert!(md.contains("# Run"));
        assert!(md.contains("| requests | 1 |"));
        assert!(md.contains("| hosts | 4 |"));
        assert!(md.contains("| latency_us | 2 |"));
        assert!(markdown_summary("Empty", &Default::default()).contains("No metrics recorded."));
    }
}
