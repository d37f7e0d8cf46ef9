//! Validates a Chrome-trace JSON file emitted by `--trace` flags.
//!
//! Usage: `trace_check TRACE.json [--require NAME ...]`
//!
//! Checks that the file parses as JSON, that it carries a non-empty
//! `traceEvents` array, that every event has the mandatory Chrome
//! trace-event fields (`name`, `ph`, `ts`), that `B`/`E` duration events
//! balance per span name, and — with `--require NAME` (repeatable) — that
//! a span or counter with each required name is present. CI runs this
//! over the bench-smoke trace so a malformed exporter fails the build
//! instead of producing a file `chrome://tracing` silently rejects.

use std::collections::BTreeMap;
use std::process::ExitCode;

use gcr_trace::json::{parse, Json};

/// Validates `text` as a Chrome trace, returning the set of event names
/// seen.
fn check_trace(text: &str) -> Result<Vec<String>, String> {
    let doc = parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("missing \"traceEvents\" array")?;
    if events.is_empty() {
        return Err("\"traceEvents\" is empty".to_owned());
    }
    let mut names: Vec<String> = Vec::new();
    let mut balance: BTreeMap<String, i64> = BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        let name = event
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("traceEvents[{i}] missing string \"name\""))?;
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("traceEvents[{i}] missing string \"ph\""))?;
        event
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("traceEvents[{i}] missing numeric \"ts\""))?;
        match ph {
            "B" => *balance.entry(name.to_owned()).or_insert(0) += 1,
            "E" => *balance.entry(name.to_owned()).or_insert(0) -= 1,
            "X" => {
                event
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("traceEvents[{i}] (X) missing numeric \"dur\""))?;
            }
            "C" | "i" => {}
            other => return Err(format!("traceEvents[{i}] has unknown ph {other:?}")),
        }
        names.push(name.to_owned());
    }
    for (name, count) in &balance {
        if *count != 0 {
            return Err(format!(
                "span \"{name}\" has unbalanced B/E events ({count:+})"
            ));
        }
    }
    Ok(names)
}

fn main() -> ExitCode {
    const USAGE: &str = "usage: trace_check TRACE.json [--require NAME ...]";
    let mut path: Option<String> = None;
    let mut required: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--require" {
            match args.next() {
                Some(name) => required.push(name),
                None => {
                    eprintln!("--require needs a span name");
                    return ExitCode::from(2);
                }
            }
        } else if arg == "--help" || arg == "-h" {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        } else if path.is_none() {
            path = Some(arg);
        } else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names = match check_trace(&text) {
        Ok(names) => names,
        Err(msg) => {
            eprintln!("trace_check: {path}: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut missing = false;
    for want in &required {
        if !names.iter().any(|n| n == want) {
            eprintln!("trace_check: {path}: no event named \"{want}\"");
            missing = true;
        }
    }
    if missing {
        return ExitCode::FAILURE;
    }
    println!("trace_check: {path}: {} events OK", names.len());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::check_trace;

    #[test]
    fn accepts_a_real_exported_trace() {
        use gcr_trace::{ChromeTraceSink, TraceSink, Tracer};
        use std::sync::Arc;
        let sink = Arc::new(ChromeTraceSink::new());
        let tracer = Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>);
        {
            let _outer = tracer.span("outer");
            let _inner = tracer.span("inner");
            tracer.counter("count", 3.0);
            tracer.warn("warn.category", "message");
        }
        let names = check_trace(&sink.to_json()).unwrap();
        for want in ["outer", "inner", "count", "warn.category"] {
            assert!(names.iter().any(|n| n == want), "missing {want}");
        }
    }

    #[test]
    fn rejects_malformed_traces() {
        assert!(check_trace("not json").is_err());
        assert!(check_trace("{}").is_err());
        assert!(check_trace("{\"traceEvents\": []}").is_err());
        // Unbalanced B without E.
        let unbalanced =
            "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"B\", \"ts\": 0, \"pid\": 0, \"tid\": 0}]}";
        assert!(check_trace(unbalanced).unwrap_err().contains("unbalanced"));
    }
}
