//! The workspace's observability layer, dependency-free like the rest of
//! the hand-rolled infrastructure (HTTP, JSON, the artifact store codec).
//!
//! Three facilities, all process-global and safe to use from any thread:
//!
//! * [`metrics`] — a registry of atomic counters, gauges and fixed-bucket
//!   wall-time histograms, with label support and a [Prometheus text
//!   exposition](https://prometheus.io/docs/instrumenting/exposition_formats/)
//!   renderer ([`render_prometheus`]).  This absorbs the counters that used
//!   to live as scattered statics in `mom-kernels`, `mom-pipeline` and the
//!   `mom-serve` queue.  The process-global artifact store keeps its
//!   per-namespace hit, miss and fill counts nowhere else: its counters
//!   are the registry's own `momsim_store_*` series, which `mom-store`'s
//!   `Store::counters` reads back.
//! * [`trace`] — lightweight scoped spans recorded into a bounded ring
//!   buffer and exportable as Chrome trace-event JSON
//!   (`chrome://tracing` / Perfetto), behind a single atomic flag: with
//!   tracing disabled a span is one relaxed load and no allocation, so
//!   instrumented fill paths stay timing-neutral.
//! * [`log`] — leveled, UTC-timestamped log lines on stderr for the
//!   `momsim serve` daemon (`--log-level`).

#![warn(missing_docs)]

pub mod log;
pub mod metrics;
pub mod trace;

pub use log::{set_log_level, LogLevel};
pub use metrics::{
    counter, counter_with, gauge, gauge_with, histogram, histogram_with, render_prometheus,
    Counter, Gauge, Histogram,
};
pub use trace::{
    enable_tracing, export_chrome_trace, span, span_fmt, trace_event_count, tracing_enabled, Span,
};
