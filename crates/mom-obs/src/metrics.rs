//! The process-global metrics registry.
//!
//! Metrics are identified by a family name plus an ordered label set.
//! Registration (`counter`/`gauge`/`histogram` and their `_with` label
//! variants) goes through one mutex-guarded map and returns a cheap
//! cloneable handle backed by atomics, so the hot path — incrementing —
//! never touches the registry lock.  Re-registering the same
//! `(name, labels)` returns a handle to the same underlying series.
//!
//! [`render_prometheus`] renders the whole registry in the Prometheus
//! text exposition format (version 0.0.4): families sorted by name,
//! series sorted by label set, label values escaped.  The output is a
//! pure function of the registered series and their values, so repeated
//! renders of an unchanged registry are byte-identical.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Histogram bucket upper bounds, in seconds (an implicit `+Inf` bucket
/// follows).  Chosen for wall times between a store lookup (~10µs) and a
/// full experiment run (~minutes).
pub const BUCKET_BOUNDS: [f64; 9] = [0.000_1, 0.001, 0.01, 0.05, 0.25, 1.0, 5.0, 30.0, 120.0];

/// A monotonically increasing counter.  `Counter::default()` is a
/// private counter outside the registry, which no render ever prints.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct HistogramCore {
    /// One cumulative-count slot per [`BUCKET_BOUNDS`] entry plus `+Inf`.
    buckets: [AtomicU64; BUCKET_BOUNDS.len() + 1],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

/// A fixed-bucket wall-time histogram (seconds).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, elapsed: Duration) {
        self.observe_secs(elapsed.as_secs_f64());
        // `as_nanos` saturating into u64 keeps the sum exact for any
        // realistic observation (584 years of nanoseconds).
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.0.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    fn observe_secs(&self, secs: f64) {
        let slot = BUCKET_BOUNDS
            .iter()
            .position(|&bound| secs <= bound)
            .unwrap_or(BUCKET_BOUNDS.len());
        self.0.buckets[slot].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in seconds.
    pub fn sum_secs(&self) -> f64 {
        self.0.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Series {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCore>),
}

type LabelSet = Vec<(String, String)>;

#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    series: BTreeMap<LabelSet, Series>,
}

type Registry = BTreeMap<String, Family>;

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Metric and label names follow the Prometheus grammar:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` (labels without the colon).
fn valid_name(name: &str, colons: bool) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    let head = first.is_ascii_alphabetic() || first == '_' || (colons && first == ':');
    head && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || (colons && c == ':'))
}

fn register(name: &str, help: &str, labels: &[(&str, &str)], kind: MetricKind) -> Series {
    assert!(valid_name(name, true), "invalid metric name '{name}'");
    for (label, _) in labels {
        assert!(valid_name(label, false), "invalid label name '{label}'");
    }
    let label_set: LabelSet = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let mut registry = registry().lock().expect("metrics registry");
    let family = registry.entry(name.to_string()).or_insert_with(|| Family {
        help: help.to_string(),
        kind,
        series: BTreeMap::new(),
    });
    assert!(
        family.kind == kind,
        "metric '{name}' registered as {} and {}",
        family.kind.name(),
        kind.name()
    );
    family
        .series
        .entry(label_set)
        .or_insert_with(|| match kind {
            MetricKind::Counter => Series::Counter(Arc::new(AtomicU64::new(0))),
            MetricKind::Gauge => Series::Gauge(Arc::new(AtomicI64::new(0))),
            MetricKind::Histogram => Series::Histogram(Arc::new(HistogramCore::default())),
        })
        .clone()
}

/// Registers (or retrieves) an unlabeled counter.
pub fn counter(name: &str, help: &str) -> Counter {
    counter_with(name, help, &[])
}

/// Registers (or retrieves) a counter with the given label set.
pub fn counter_with(name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
    match register(name, help, labels, MetricKind::Counter) {
        Series::Counter(inner) => Counter(inner),
        _ => unreachable!("kind checked at registration"),
    }
}

/// Registers (or retrieves) an unlabeled gauge.
pub fn gauge(name: &str, help: &str) -> Gauge {
    gauge_with(name, help, &[])
}

/// Registers (or retrieves) a gauge with the given label set.
pub fn gauge_with(name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
    match register(name, help, labels, MetricKind::Gauge) {
        Series::Gauge(inner) => Gauge(inner),
        _ => unreachable!("kind checked at registration"),
    }
}

/// Registers (or retrieves) an unlabeled wall-time histogram.
pub fn histogram(name: &str, help: &str) -> Histogram {
    histogram_with(name, help, &[])
}

/// Registers (or retrieves) a histogram with the given label set.
pub fn histogram_with(name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
    match register(name, help, labels, MetricKind::Histogram) {
        Series::Histogram(inner) => Histogram(inner),
        _ => unreachable!("kind checked at registration"),
    }
}

/// Escapes a label value per the exposition format: backslash, double
/// quote and newline.
fn escape_label_value(value: &str, out: &mut String) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
}

/// Escapes a HELP line: backslash and newline only (quotes are legal).
fn escape_help(value: &str, out: &mut String) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
}

fn render_label_set(labels: &LabelSet, extra: Option<(&str, &str)>, out: &mut String) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (key, value) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(key);
        out.push_str("=\"");
        escape_label_value(value, out);
        out.push('"');
    }
    if let Some((key, value)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(key);
        out.push_str("=\"");
        escape_label_value(value, out);
        out.push('"');
    }
    out.push('}');
}

/// Formats a float the way Prometheus expects: plain decimal, never
/// scientific for the magnitudes we emit, and integral values without a
/// fraction.
fn format_f64(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// Renders every registered metric in the Prometheus text exposition
/// format.  Families are sorted by name and series by label set, so the
/// output layout is independent of registration order.
pub fn render_prometheus() -> String {
    let registry = registry().lock().expect("metrics registry");
    let mut out = String::new();
    for (name, family) in registry.iter() {
        out.push_str("# HELP ");
        out.push_str(name);
        out.push(' ');
        escape_help(&family.help, &mut out);
        out.push('\n');
        out.push_str("# TYPE ");
        out.push_str(name);
        out.push(' ');
        out.push_str(family.kind.name());
        out.push('\n');
        for (labels, series) in &family.series {
            match series {
                Series::Counter(v) => {
                    out.push_str(name);
                    render_label_set(labels, None, &mut out);
                    out.push(' ');
                    out.push_str(&v.load(Ordering::Relaxed).to_string());
                    out.push('\n');
                }
                Series::Gauge(v) => {
                    out.push_str(name);
                    render_label_set(labels, None, &mut out);
                    out.push(' ');
                    out.push_str(&v.load(Ordering::Relaxed).to_string());
                    out.push('\n');
                }
                Series::Histogram(core) => {
                    let mut cumulative = 0u64;
                    for (slot, bound) in BUCKET_BOUNDS.iter().enumerate() {
                        cumulative += core.buckets[slot].load(Ordering::Relaxed);
                        out.push_str(name);
                        out.push_str("_bucket");
                        render_label_set(labels, Some(("le", &format_f64(*bound))), &mut out);
                        out.push(' ');
                        out.push_str(&cumulative.to_string());
                        out.push('\n');
                    }
                    cumulative += core.buckets[BUCKET_BOUNDS.len()].load(Ordering::Relaxed);
                    out.push_str(name);
                    out.push_str("_bucket");
                    render_label_set(labels, Some(("le", "+Inf")), &mut out);
                    out.push(' ');
                    out.push_str(&cumulative.to_string());
                    out.push('\n');
                    out.push_str(name);
                    out.push_str("_sum");
                    render_label_set(labels, None, &mut out);
                    out.push(' ');
                    out.push_str(&format_f64(
                        core.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9,
                    ));
                    out.push('\n');
                    out.push_str(name);
                    out.push_str("_count");
                    render_label_set(labels, None, &mut out);
                    out.push(' ');
                    out.push_str(&core.count.load(Ordering::Relaxed).to_string());
                    out.push('\n');
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_series() {
        let a = counter("momobs_test_counter_total", "A test counter.");
        let before = a.get();
        a.inc();
        a.add(2);
        let b = counter("momobs_test_counter_total", "A test counter.");
        assert_eq!(b.get(), before + 3, "same name, same series");
    }

    #[test]
    fn labeled_series_are_distinct() {
        let a = counter_with("momobs_test_labeled_total", "Labeled.", &[("k", "a")]);
        let b = counter_with("momobs_test_labeled_total", "Labeled.", &[("k", "b")]);
        a.inc();
        assert_eq!(b.get(), 0, "distinct label sets are distinct series");
        let text = render_prometheus();
        assert!(
            text.contains("momobs_test_labeled_total{k=\"a\"} 1"),
            "{text}"
        );
        assert!(text.contains("# TYPE momobs_test_labeled_total counter"));
    }

    #[test]
    fn gauges_move_both_ways() {
        let g = gauge("momobs_test_gauge", "A test gauge.");
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histograms_bucket_and_sum() {
        let h = histogram("momobs_test_seconds", "A test histogram.");
        h.observe(Duration::from_micros(50)); // <= 0.0001
        h.observe(Duration::from_millis(20)); // <= 0.05
        h.observe(Duration::from_secs(200)); // +Inf
        assert_eq!(h.count(), 3);
        assert!((h.sum_secs() - 200.02005).abs() < 1e-6, "{}", h.sum_secs());
        let text = render_prometheus();
        assert!(
            text.contains("momobs_test_seconds_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("momobs_test_seconds_count 3"), "{text}");
    }

    #[test]
    fn label_values_escape() {
        let c = counter_with(
            "momobs_test_escape_total",
            "Escaping.",
            &[("v", "a\\b\"c\nd")],
        );
        c.inc();
        let text = render_prometheus();
        assert!(
            text.contains("momobs_test_escape_total{v=\"a\\\\b\\\"c\\nd\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn rendering_is_stable() {
        counter("momobs_test_stable_total", "Stable.").inc();
        assert_eq!(render_prometheus(), render_prometheus());
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_are_rejected() {
        counter("0bad name", "nope");
    }
}
