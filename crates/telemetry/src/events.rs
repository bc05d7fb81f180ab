//! Leveled, structured event log — the third observability layer next
//! to metrics (aggregates) and traces (per-query spans).
//!
//! An [`EventLog`] numbers each accepted event, optionally appends it
//! as one JSON line to a sink file (`--log-json PATH`), and — unless
//! muted — renders a human-readable line to stderr. Events are
//! *occurrences* ("listening on :8080", "request req-17 failed: bad
//! k"), not samples; the hot search paths never log.
//!
//! A process-wide instance is installed once by the binary
//! ([`init_global`]) from its `--log-level` / `--quiet` / `--log-json`
//! flags; library code reaches it through [`global`], which falls back
//! to a stderr-only Info logger so library messages are never silently
//! dropped before initialisation.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;

/// Event severity, in decreasing order of urgency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LogLevel {
    Error,
    Warn,
    Info,
    Debug,
}

impl LogLevel {
    pub const ALL: [LogLevel; 4] = [
        LogLevel::Error,
        LogLevel::Warn,
        LogLevel::Info,
        LogLevel::Debug,
    ];

    pub fn name(self) -> &'static str {
        match self {
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }

    /// Parse a `--log-level` argument.
    pub fn from_name(name: &str) -> Option<LogLevel> {
        LogLevel::ALL.iter().copied().find(|l| l.name() == name)
    }
}

/// One logged event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEvent {
    /// Monotonic sequence number within the process.
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch.
    pub unix_ms: u64,
    pub level: LogLevel,
    /// Dotted component name, e.g. `"serve.access"`.
    pub target: String,
    pub message: String,
    /// Structured key/value payload, in insertion order.
    pub fields: Vec<(String, String)>,
}

impl LogEvent {
    /// The event as a JSON object (one sink line).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seq", Json::UInt(self.seq)),
            ("ts_ms", Json::UInt(self.unix_ms)),
            ("level", Json::Str(self.level.name().to_string())),
            ("target", Json::Str(self.target.clone())),
            ("msg", Json::Str(self.message.clone())),
            (
                "fields",
                Json::Obj(
                    self.fields
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
        ])
    }

    /// Human-readable single line (the stderr rendering).
    pub fn render(&self) -> String {
        let mut line = format!("[{} {}] {}", self.level.name(), self.target, self.message);
        for (k, v) in &self.fields {
            line.push_str(&format!(" {k}={v}"));
        }
        line
    }
}

/// Leveled event writer: stderr and an optional JSON-lines sink.
#[derive(Debug)]
pub struct EventLog {
    level: LogLevel,
    stderr: bool,
    seq: AtomicU64,
    sink: Option<Mutex<BufWriter<File>>>,
}

impl EventLog {
    /// A logger keeping events at or above `level`, echoing to stderr.
    pub fn new(level: LogLevel) -> EventLog {
        EventLog {
            level,
            stderr: true,
            seq: AtomicU64::new(0),
            sink: None,
        }
    }

    /// Mute the human-readable stderr echo (`--quiet`); the JSON sink
    /// still records.
    pub fn quiet(mut self) -> EventLog {
        self.stderr = false;
        self
    }

    /// Mirror every accepted event as a JSON line appended to `path`
    /// (parent directories are created).
    pub fn with_json_sink(mut self, path: &Path) -> std::io::Result<EventLog> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        let file = File::options().create(true).append(true).open(path)?;
        self.sink = Some(Mutex::new(BufWriter::new(file)));
        Ok(self)
    }

    /// The configured threshold.
    pub fn level(&self) -> LogLevel {
        self.level
    }

    /// Whether events at `level` are accepted.
    #[inline]
    pub fn enabled(&self, level: LogLevel) -> bool {
        level <= self.level
    }

    /// Record one event. Returns its sequence number, or `None` when
    /// filtered out by level.
    pub fn log(
        &self,
        level: LogLevel,
        target: &str,
        message: impl Into<String>,
        fields: &[(&str, String)],
    ) -> Option<u64> {
        if !self.enabled(level) {
            return None;
        }
        let event = LogEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            unix_ms: unix_ms(),
            level,
            target: target.to_string(),
            message: message.into(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        };
        if self.stderr {
            eprintln!("{}", event.render());
        }
        if let Some(sink) = &self.sink {
            let mut w = sink.lock().unwrap_or_else(|p| p.into_inner());
            // Line-buffered semantics: flush per event so a tail -f (or
            // a crash) sees every completed line.
            let _ = writeln!(w, "{}", event.to_json().to_compact());
            let _ = w.flush();
        }
        Some(event.seq)
    }
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

static GLOBAL: OnceLock<EventLog> = OnceLock::new();

/// Install the process-wide logger. Returns `false` if one was already
/// installed (the existing logger stays).
pub fn init_global(log: EventLog) -> bool {
    GLOBAL.set(log).is_ok()
}

/// The process-wide logger (a stderr-only Info logger until
/// [`init_global`] runs).
pub fn global() -> &'static EventLog {
    GLOBAL.get_or_init(|| EventLog::new(LogLevel::Info))
}

/// Log at Error level on the global logger.
pub fn error(target: &str, message: impl Into<String>, fields: &[(&str, String)]) {
    global().log(LogLevel::Error, target, message, fields);
}

/// Log at Warn level on the global logger.
pub fn warn(target: &str, message: impl Into<String>, fields: &[(&str, String)]) {
    global().log(LogLevel::Warn, target, message, fields);
}

/// Log at Info level on the global logger.
pub fn info(target: &str, message: impl Into<String>, fields: &[(&str, String)]) {
    global().log(LogLevel::Info, target, message, fields);
}

/// Log at Debug level on the global logger.
pub fn debug(target: &str, message: impl Into<String>, fields: &[(&str, String)]) {
    global().log(LogLevel::Debug, target, message, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(LogLevel::Error < LogLevel::Warn);
        assert!(LogLevel::Warn < LogLevel::Info);
        assert!(LogLevel::Info < LogLevel::Debug);
        for level in LogLevel::ALL {
            assert_eq!(LogLevel::from_name(level.name()), Some(level));
        }
        assert_eq!(LogLevel::from_name("verbose"), None);
    }

    #[test]
    fn level_filters_and_sequence_numbers_rise() {
        let log = EventLog::new(LogLevel::Warn).quiet();
        assert!(log.log(LogLevel::Debug, "t", "dropped", &[]).is_none());
        assert!(log.log(LogLevel::Info, "t", "dropped", &[]).is_none());
        let seqs: Vec<u64> = (0..5)
            .map(|i| {
                log.log(LogLevel::Warn, "t", format!("event {i}"), &[])
                    .expect("warn passes a warn filter")
            })
            .collect();
        // Sequence numbers are monotonic across the whole run.
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
    }

    #[test]
    fn json_lines_land_in_the_sink() {
        let dir = std::env::temp_dir().join(format!("kmm-events-{}", std::process::id()));
        let path = dir.join("nested/events.jsonl");
        let log = EventLog::new(LogLevel::Info)
            .quiet()
            .with_json_sink(&path)
            .unwrap();
        log.log(
            LogLevel::Info,
            "serve",
            "listening",
            &[("addr", "127.0.0.1:0".to_string())],
        );
        log.log(LogLevel::Error, "serve.access", "boom", &[]);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("level").and_then(Json::as_str), Some("info"));
        assert_eq!(first.get("target").and_then(Json::as_str), Some("serve"));
        assert_eq!(
            first
                .get("fields")
                .and_then(|f| f.get("addr"))
                .and_then(Json::as_str),
            Some("127.0.0.1:0")
        );
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("level").and_then(Json::as_str), Some("error"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn render_is_single_line_with_fields() {
        let event = LogEvent {
            seq: 7,
            unix_ms: 0,
            level: LogLevel::Warn,
            target: "serve.access".to_string(),
            message: "GET /metrics 200".to_string(),
            fields: vec![("req".to_string(), "req-7".to_string())],
        };
        let line = event.render();
        assert_eq!(line, "[warn serve.access] GET /metrics 200 req=req-7");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn global_logger_is_installed_once() {
        // Whichever test initialises first wins; afterwards init fails.
        let _ = global();
        assert!(!init_global(EventLog::new(LogLevel::Debug)));
    }
}
