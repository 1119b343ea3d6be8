//! Lock-free metrics registry: counters, gauges, and log-linear
//! histograms with Prometheus-text and JSON exporters.
//!
//! The registry follows the same zero-cost-off contract as
//! [`crate::Tracer`]:
//!
//! * [`Metrics::off`] is `const` and holds no allocation; every handle
//!   it hands out ([`Counter`], [`Gauge`], [`Histogram`]) is an
//!   `Option<Arc<..>>` whose `None` arm makes `inc`/`set`/`observe` a
//!   single branch and no memory traffic.
//! * Recording on a live handle is lock-free: counters and gauges are a
//!   single atomic RMW; a histogram observation is three relaxed
//!   `fetch_add`s (count, sum, bucket). The registry mutex is taken only
//!   when a series is *registered* or the registry is rendered.
//!
//! Histograms are log-linear over `u64` values (nanoseconds by
//! convention): 4 linear sub-buckets per power-of-two octave, 252
//! buckets total, covering the full `u64` range with at most 25%
//! relative width per bucket — quantile estimates ([`HistogramSnapshot::quantile`])
//! are therefore within ~12.5% of the true value at the midpoint rule.

use crate::json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of histogram buckets: values 0–3 exactly, then 4 sub-buckets
/// per octave up to the top of the `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 252;

/// Bucket index of a value: exact for 0–3, then log-linear with 4
/// sub-buckets per octave, clamped into the top bucket.
pub fn bucket_index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize;
    let sub = ((v >> (msb - 2)) & 3) as usize;
    ((msb - 1) * 4 + sub).min(HISTOGRAM_BUCKETS - 1)
}

/// Smallest value that lands in bucket `i` (inverse of [`bucket_index`]).
pub fn bucket_floor(i: usize) -> u64 {
    if i < 4 {
        return i as u64;
    }
    let oct = i / 4 + 1;
    let sub = (i % 4) as u64;
    (1u64 << oct) + (sub << (oct - 2))
}

/// Shared state of one histogram series.
#[derive(Debug)]
struct HistCell {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl HistCell {
    fn new() -> Self {
        HistCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A monotonically increasing counter handle; `off()` records nothing.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A disabled handle: every operation is a no-op.
    pub const fn off() -> Self {
        Counter { cell: None }
    }

    /// Whether this handle records anywhere.
    pub fn is_on(&self) -> bool {
        self.cell.is_some()
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.cell {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when off).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A settable gauge handle; `off()` records nothing.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicI64>>,
}

impl Gauge {
    /// A disabled handle: every operation is a no-op.
    pub const fn off() -> Self {
        Gauge { cell: None }
    }

    /// Whether this handle records anywhere.
    pub fn is_on(&self) -> bool {
        self.cell.is_some()
    }

    /// Set the gauge to `v`.
    pub fn set(&self, v: i64) {
        if let Some(c) = &self.cell {
            c.store(v, Ordering::Relaxed);
        }
    }

    /// Add `d` (may be negative).
    pub fn add(&self, d: i64) {
        if let Some(c) = &self.cell {
            c.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Current value (0 when off).
    pub fn get(&self) -> i64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A log-linear histogram handle; `off()` records nothing.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<HistCell>>,
}

impl Histogram {
    /// A disabled handle: every operation is a no-op.
    pub const fn off() -> Self {
        Histogram { cell: None }
    }

    /// Whether this handle records anywhere.
    pub fn is_on(&self) -> bool {
        self.cell.is_some()
    }

    /// Record one value (three relaxed atomic adds; lock-free).
    pub fn observe(&self, v: u64) {
        if let Some(c) = &self.cell {
            c.count.fetch_add(1, Ordering::Relaxed);
            c.sum.fetch_add(v, Ordering::Relaxed);
            c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A timestamp for [`Histogram::observe_since`], taken only when the
    /// handle is live — an off handle pays no clock read.
    pub fn start(&self) -> Option<Instant> {
        self.is_on().then(Instant::now)
    }

    /// Record the nanoseconds elapsed since a [`Histogram::start`] stamp.
    pub fn observe_since(&self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.observe(t0.elapsed().as_nanos() as u64);
        }
    }

    /// A point-in-time copy of this series (empty when off).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.cell
            .as_ref()
            .map_or_else(HistogramSnapshot::default, |c| c.snapshot())
    }
}

/// A point-in-time copy of a histogram, mergeable across series and
/// ranks, with quantile estimation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Per-bucket counts (empty or [`HISTOGRAM_BUCKETS`] long).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Fold another snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
    }

    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0.0..=1.0`) at the midpoint of the
    /// containing bucket; exact for values below 4. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if b > 0 && cum >= target {
                let lo = bucket_floor(i);
                let hi = if i + 1 < HISTOGRAM_BUCKETS {
                    bucket_floor(i + 1)
                } else {
                    u64::MAX
                };
                return lo + (hi - lo) / 2;
            }
        }
        bucket_floor(HISTOGRAM_BUCKETS - 1)
    }

    /// The 99.9th percentile — the tail the run service's per-tenant
    /// fairness gates watch.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

/// Series cell: the shared storage behind one `(name, labels)` handle.
#[derive(Debug, Clone)]
enum Cell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistCell>),
}

/// Metric kind, as exposed in `# TYPE` lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn prom(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

type Labels = Vec<(String, String)>;

#[derive(Debug, Default)]
struct Tables {
    /// Metric family name → (help text, kind).
    families: BTreeMap<&'static str, (&'static str, Kind)>,
    /// `(name, sorted labels)` → storage. BTreeMap ordering groups all
    /// series of one family together for rendering.
    series: BTreeMap<(&'static str, Labels), Cell>,
}

/// A metrics registry. `off()` is a `const` empty shell: registering
/// returns disabled handles and rendering returns empty output.
#[derive(Debug, Clone)]
pub struct Metrics {
    inner: Option<Arc<Mutex<Tables>>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::off()
    }
}

impl Metrics {
    /// A disabled registry: no allocation, all handles off.
    pub const fn off() -> Self {
        Metrics { inner: None }
    }

    /// A live registry.
    pub fn on() -> Self {
        Metrics {
            inner: Some(Arc::new(Mutex::new(Tables::default()))),
        }
    }

    /// `on()` when `enabled`, else `off()`.
    pub fn enabled(enabled: bool) -> Self {
        if enabled {
            Metrics::on()
        } else {
            Metrics::off()
        }
    }

    /// Whether this registry records anything.
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    fn cell(
        &self,
        name: &'static str,
        help: &'static str,
        kind: Kind,
        labels: &[(&str, String)],
    ) -> Option<Cell> {
        let inner = self.inner.as_ref()?;
        let labels: Labels = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        let mut t = inner.lock().expect("metrics registry poisoned");
        match t.families.get(name) {
            Some(&(_, existing)) => assert_eq!(
                existing, kind,
                "metric {name} registered with two different kinds"
            ),
            None => {
                t.families.insert(name, (help, kind));
            }
        }
        Some(
            t.series
                .entry((name, labels))
                .or_insert_with(|| match kind {
                    Kind::Counter => Cell::Counter(Arc::new(AtomicU64::new(0))),
                    Kind::Gauge => Cell::Gauge(Arc::new(AtomicI64::new(0))),
                    Kind::Histogram => Cell::Histogram(Arc::new(HistCell::new())),
                })
                .clone(),
        )
    }

    /// Register (or look up) a counter series. Same `(name, labels)`
    /// yields handles to the same cell.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, String)],
    ) -> Counter {
        match self.cell(name, help, Kind::Counter, labels) {
            Some(Cell::Counter(c)) => Counter { cell: Some(c) },
            Some(_) => panic!("metric {name} is not a counter"),
            None => Counter::off(),
        }
    }

    /// Register (or look up) a gauge series.
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, String)],
    ) -> Gauge {
        match self.cell(name, help, Kind::Gauge, labels) {
            Some(Cell::Gauge(c)) => Gauge { cell: Some(c) },
            Some(_) => panic!("metric {name} is not a gauge"),
            None => Gauge::off(),
        }
    }

    /// Register (or look up) a histogram series.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, String)],
    ) -> Histogram {
        match self.cell(name, help, Kind::Histogram, labels) {
            Some(Cell::Histogram(c)) => Histogram { cell: Some(c) },
            Some(_) => panic!("metric {name} is not a histogram"),
            None => Histogram::off(),
        }
    }

    /// Merged snapshot of every histogram series named `name` across all
    /// label sets (empty when off or absent).
    pub fn histogram_snapshot(&self, name: &str) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::default();
        let Some(inner) = &self.inner else {
            return snap;
        };
        let t = inner.lock().expect("metrics registry poisoned");
        for ((n, _), cell) in t.series.iter() {
            if *n == name {
                if let Cell::Histogram(h) = cell {
                    snap.merge(&h.snapshot());
                }
            }
        }
        snap
    }

    /// Render in the Prometheus text exposition format. Histogram
    /// buckets are cumulative with an upper edge in the `le` label
    /// (empty buckets elided) and close with `le="+Inf"`, `_sum`, and
    /// `_count`. Returns an empty string when off.
    pub fn render_prometheus(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let t = inner.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        let mut last_name = "";
        for ((name, labels), cell) in t.series.iter() {
            if *name != last_name {
                let (help, kind) = t.families[name];
                out.push_str(&format!("# HELP {name} {help}\n"));
                out.push_str(&format!("# TYPE {name} {}\n", kind.prom()));
                last_name = name;
            }
            let lbl = render_label_pairs(labels);
            match cell {
                Cell::Counter(c) => {
                    out.push_str(&format!(
                        "{name}{} {}\n",
                        braced(&lbl),
                        c.load(Ordering::Relaxed)
                    ));
                }
                Cell::Gauge(g) => {
                    out.push_str(&format!(
                        "{name}{} {}\n",
                        braced(&lbl),
                        g.load(Ordering::Relaxed)
                    ));
                }
                Cell::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cum = 0u64;
                    for (i, &b) in snap.buckets.iter().enumerate() {
                        if b == 0 {
                            continue;
                        }
                        cum += b;
                        let le = if i + 1 < HISTOGRAM_BUCKETS {
                            bucket_floor(i + 1).to_string()
                        } else {
                            "+Inf".to_string()
                        };
                        out.push_str(&format!(
                            "{name}_bucket{} {cum}\n",
                            braced(&with_le(&lbl, &le))
                        ));
                    }
                    out.push_str(&format!(
                        "{name}_bucket{} {}\n",
                        braced(&with_le(&lbl, "+Inf")),
                        snap.count
                    ));
                    out.push_str(&format!("{name}_sum{} {}\n", braced(&lbl), snap.sum));
                    out.push_str(&format!("{name}_count{} {}\n", braced(&lbl), snap.count));
                }
            }
        }
        out
    }

    /// Render every series as a JSON document:
    /// `{"metrics": [{"name", "type", "labels", ...values}]}`. Histograms
    /// carry `count`, `sum`, `mean`, `p50`, `p95`, `p99`, `p999`. Returns
    /// `{"metrics": []}` when off.
    pub fn render_json(&self) -> String {
        let mut rows = Vec::new();
        if let Some(inner) = &self.inner {
            let t = inner.lock().expect("metrics registry poisoned");
            for ((name, labels), cell) in t.series.iter() {
                let lbl = labels
                    .iter()
                    .map(|(k, v)| format!("{}: {}", json::escape(k), json::escape(v)))
                    .collect::<Vec<_>>()
                    .join(", ");
                let body = match cell {
                    Cell::Counter(c) => {
                        format!(
                            "\"type\": \"counter\", \"value\": {}",
                            c.load(Ordering::Relaxed)
                        )
                    }
                    Cell::Gauge(g) => {
                        format!(
                            "\"type\": \"gauge\", \"value\": {}",
                            g.load(Ordering::Relaxed)
                        )
                    }
                    Cell::Histogram(h) => {
                        let s = h.snapshot();
                        format!(
                            "\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \
                             \"mean\": {:.1}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \
                             \"p999\": {}",
                            s.count,
                            s.sum,
                            s.mean(),
                            s.quantile(0.50),
                            s.quantile(0.95),
                            s.quantile(0.99),
                            s.p999()
                        )
                    }
                };
                rows.push(format!(
                    "    {{\"name\": \"{name}\", \"labels\": {{{lbl}}}, {body}}}"
                ));
            }
        }
        format!("{{\n  \"metrics\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
    }
}

/// Escape a Prometheus label value: the text format escapes only `\`,
/// `"` and newline, so this is not [`json::escape`].
fn escape_prometheus_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_label_pairs(labels: &Labels) -> String {
    labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_prometheus_label(v)))
        .collect::<Vec<_>>()
        .join(",")
}

fn braced(lbl: &str) -> String {
    if lbl.is_empty() {
        String::new()
    } else {
        format!("{{{lbl}}}")
    }
}

fn with_le(lbl: &str, le: &str) -> String {
    if lbl.is_empty() {
        format!("le=\"{le}\"")
    } else {
        format!("{lbl},le=\"{le}\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_floor_are_inverse() {
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_floor(i)), i, "bucket {i}");
        }
        // Values map into a bucket whose floor is <= the value and whose
        // width is at most 25% of the floor.
        for &v in &[1u64, 5, 100, 1_000, 123_456, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_floor(i) <= v);
            if i + 1 < HISTOGRAM_BUCKETS {
                let lo = bucket_floor(i);
                let hi = bucket_floor(i + 1);
                assert!(v < hi, "v={v} i={i}");
                assert!((hi - lo) as f64 <= 0.25 * lo.max(1) as f64 + 1.0);
            }
        }
    }

    #[test]
    fn off_registry_allocates_nothing_and_handles_are_inert() {
        let m = Metrics::off();
        let c = m.counter("t_c", "help", &[]);
        let g = m.gauge("t_g", "help", &[]);
        let h = m.histogram("t_h", "help", &[]);
        c.inc();
        g.set(7);
        h.observe(123);
        assert!(!m.is_on() && !c.is_on() && !g.is_on() && !h.is_on());
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        assert!(h.start().is_none());
        assert_eq!(m.render_prometheus(), "");
        assert!(m.render_json().contains("\"metrics\""));
    }

    #[test]
    fn live_registry_registers_a_series_once_and_shares_its_cell() {
        let m = Metrics::on();
        let labels = [("rank", "0".to_string())];
        let c1 = m.counter("t_msgs", "messages", &labels);
        let c2 = m.counter("t_msgs", "messages", &labels);
        let series = m.inner.as_ref().unwrap().lock().unwrap().series.len();
        assert_eq!(series, 1, "series registered once");
        c1.add(3);
        c2.inc();
        assert_eq!(c1.get(), 4, "handles share one cell");
    }

    #[test]
    #[should_panic(expected = "registered with two different kinds")]
    fn kind_mismatch_panics() {
        let m = Metrics::on();
        m.counter("t_kind", "help", &[]);
        m.gauge("t_kind", "help", &[]);
    }

    #[test]
    fn histogram_quantiles_are_close() {
        let m = Metrics::on();
        let h = m.histogram("t_lat", "latency", &[]);
        for i in 1..=1000u64 {
            h.observe(i * 100); // 100ns .. 100us, uniform
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        let p50 = s.quantile(0.5) as f64;
        let p99 = s.quantile(0.99) as f64;
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.25, "p50={p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.25, "p99={p99}");
        assert!(s.quantile(0.95) <= s.quantile(0.99));
        assert!((s.mean() - 50_050.0).abs() < 1.0);
    }

    #[test]
    fn snapshot_merge_accumulates() {
        let m = Metrics::on();
        let a = m.histogram("t_a", "h", &[]);
        let b = m.histogram("t_b", "h", &[]);
        a.observe(10);
        a.observe(20);
        b.observe(30);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 60);
        let mut empty = HistogramSnapshot::default();
        empty.merge(&s);
        assert_eq!(empty, s);
    }

    #[test]
    fn merged_snapshot_spans_label_sets() {
        let m = Metrics::on();
        m.histogram("t_multi", "h", &[("rank", "0".to_string())])
            .observe(5);
        m.histogram("t_multi", "h", &[("rank", "1".to_string())])
            .observe(7);
        let s = m.histogram_snapshot("t_multi");
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 12);
        assert_eq!(m.histogram_snapshot("t_absent").count, 0);
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let m = Metrics::on();
        m.counter("t_total", "total events", &[("rank", "0".to_string())])
            .add(5);
        m.gauge("t_depth", "queue depth", &[]).set(-2);
        let h = m.histogram("t_ns", "latency ns", &[("rank", "1".to_string())]);
        h.observe(7);
        h.observe(700);
        let text = m.render_prometheus();
        assert!(text.contains("# HELP t_total total events"));
        assert!(text.contains("# TYPE t_total counter"));
        assert!(text.contains("t_total{rank=\"0\"} 5"));
        assert!(text.contains("# TYPE t_depth gauge"));
        assert!(text.contains("t_depth -2"));
        assert!(text.contains("# TYPE t_ns histogram"));
        assert!(text.contains("t_ns_bucket{rank=\"1\",le=\"+Inf\"} 2"));
        assert!(text.contains("t_ns_sum{rank=\"1\"} 707"));
        assert!(text.contains("t_ns_count{rank=\"1\"} 2"));
        // HELP/TYPE emitted once per family even with several series.
        m.counter("t_total", "total events", &[("rank", "1".to_string())])
            .inc();
        let text = m.render_prometheus();
        assert_eq!(text.matches("# TYPE t_total counter").count(), 1);
        assert!(crate::validate::validate_prometheus(&text).is_ok());
    }

    #[test]
    fn json_rendering_carries_quantiles() {
        let m = Metrics::on();
        let h = m.histogram("t_json", "h", &[("impl", "iv_b".to_string())]);
        for _ in 0..10 {
            h.observe(1000);
        }
        let json = m.render_json();
        assert!(json.contains("\"name\": \"t_json\""));
        assert!(json.contains("\"impl\": \"iv_b\""));
        assert!(json.contains("\"count\": 10"));
        assert!(json.contains("\"p50\""));
        assert!(json.contains("\"p999\""));
        assert!(crate::json::Value::parse(&json).is_ok());
    }

    #[test]
    fn label_values_escape_for_json_and_prometheus() {
        let m = Metrics::on();
        let label = "q\"b\\n\nt\tc\u{1}";
        m.counter("t_esc_total", "h", &[("who", label.to_string())])
            .inc();
        let json = m.render_json();
        // No raw control byte, apart from the layout's line breaks.
        assert!(!json.bytes().any(|b| b < 0x20 && b != b'\n'), "{json}");
        let doc = crate::json::Value::parse(&json).expect("render_json parses");
        assert_eq!(doc["metrics"][0]["labels"]["who"], label);
        crate::validate::validate_prometheus(&m.render_prometheus()).expect("valid exposition");
    }

    #[test]
    fn p999_sits_at_or_above_p99() {
        let m = Metrics::on();
        let h = m.histogram("t_p999", "h", &[]);
        for v in 0..1000u64 {
            h.observe(v * 100);
        }
        let s = m.histogram_snapshot("t_p999");
        assert!(s.p999() >= s.quantile(0.99));
        let p999 = s.p999() as f64;
        assert!((p999 - 99_900.0).abs() / 99_900.0 < 0.25, "p999={p999}");
    }

    #[test]
    fn observe_since_uses_live_clock_only() {
        let m = Metrics::on();
        let h = m.histogram("t_since", "h", &[]);
        let t0 = h.start();
        assert!(t0.is_some());
        h.observe_since(t0);
        assert_eq!(h.snapshot().count, 1);
        h.observe_since(None);
        assert_eq!(h.snapshot().count, 1);
    }
}
