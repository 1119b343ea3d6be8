//! Structured event log: leveled JSON lines in a bounded ring.
//!
//! The server and TCP front end used to be silent — nothing recorded an
//! admission, a rejection, a timeout, or a connection error anywhere.
//! This module gives them a bounded in-memory log of JSON-lines events,
//! queryable over the wire via `{"cmd":"events"}` and optionally teed to
//! stderr for operators running `serve_run` in a terminal.
//!
//! The log is always on. Memory is bounded: the ring keeps the newest
//! `capacity` lines and counts evictions (`dropped`), surfaced through
//! `{"cmd":"health"}`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Event severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Normal operation worth a line (admission, execution, shutdown).
    Info,
    /// Degraded but handled (reject, timeout, parse error).
    Warn,
    /// Something broke (run panic, dump write failure).
    Error,
}

impl Level {
    /// Lowercase name as rendered into the JSON line.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// Field builder handed to the `event` closure; renders straight into
/// the line buffer.
pub struct Fields {
    buf: String,
}

impl Fields {
    /// Append a string field (JSON-escaped).
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.buf.push_str(&format!(
            ",{}:{}",
            obs::json::escape(key),
            obs::json::escape(value)
        ));
        self
    }

    /// Append an unsigned integer field.
    pub fn num(&mut self, key: &str, value: u64) -> &mut Self {
        self.buf
            .push_str(&format!(",{}:{value}", obs::json::escape(key)));
        self
    }

    /// Append a float field (3 decimals).
    pub fn float(&mut self, key: &str, value: f64) -> &mut Self {
        self.buf
            .push_str(&format!(",{}:{value:.3}", obs::json::escape(key)));
        self
    }
}

/// A bounded JSON-lines event log.
pub struct Log {
    ring: Mutex<VecDeque<String>>,
    capacity: usize,
    stderr: bool,
    dropped: AtomicU64,
}

fn wall_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl Log {
    /// A log keeping the newest `capacity` (≥ 1) lines, teeing each to
    /// stderr when `stderr` is set.
    pub fn new(capacity: usize, stderr: bool) -> Self {
        assert!(capacity > 0, "the event log needs at least one line");
        Log {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            stderr,
            dropped: AtomicU64::new(0),
        }
    }

    /// Lines evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Record one event. The closure fills in event-specific fields.
    pub fn event(&self, level: Level, kind: &'static str, fill: impl FnOnce(&mut Fields)) {
        let mut fields = Fields {
            buf: String::with_capacity(96),
        };
        fill(&mut fields);
        let line = format!(
            "{{\"ts_ms\":{},\"level\":\"{}\",\"event\":{}{}}}",
            wall_ms(),
            level.as_str(),
            obs::json::escape(kind),
            fields.buf
        );
        if self.stderr {
            eprintln!("{line}");
        }
        let mut ring = self.ring.lock().unwrap();
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(line);
    }

    /// The retained lines, oldest to newest.
    pub fn lines(&self) -> Vec<String> {
        self.ring.lock().unwrap().iter().cloned().collect()
    }

    /// The retained lines as one JSON array (each line is already a
    /// JSON object, so they embed raw).
    pub fn render_json_array(&self) -> String {
        format!("[{}]", self.lines().join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::Value;

    #[test]
    fn events_render_as_json_lines() {
        let log = Log::new(8, false);
        log.event(Level::Warn, "reject", |f| {
            f.str("tenant", "al\"ice").num("queued", 64);
        });
        let lines = log.lines();
        assert_eq!(lines.len(), 1);
        let v = Value::parse(&lines[0]).expect("line parses");
        assert_eq!(v["level"].as_str(), Some("warn"));
        assert_eq!(v["event"].as_str(), Some("reject"));
        assert_eq!(v["tenant"].as_str(), Some("al\"ice"));
        assert_eq!(v["queued"], Value::Number(64.0));
        let arr = Value::parse(&log.render_json_array()).expect("array parses");
        assert_eq!(arr.as_array().unwrap().len(), 1);
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let log = Log::new(3, false);
        for i in 0..5u64 {
            log.event(Level::Info, "tick", |f| {
                f.num("i", i);
            });
        }
        let lines = log.lines();
        assert_eq!(lines.len(), 3);
        assert_eq!(log.dropped(), 2);
        assert!(lines[2].contains("\"i\":4"));
    }
}
