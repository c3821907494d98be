//! Measurement toolkit for the in-band LB reproduction: histograms,
//! exact percentiles, binned time series, estimate-vs-ground-truth
//! summaries, plain-text table output for regenerating the paper's
//! figures, and the packed record log behind the decision journal and
//! the span tracer.
//!
//! The crate is deliberately free of simulator dependencies: all times are
//! raw `u64` nanoseconds, so the same tools serve unit tests, experiments,
//! and benches.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
// Rule G2 (DESIGN.md §6.9): no `unwrap`/`expect` outside test code, so
// no `partial_cmp(..).unwrap()` comparator either; `f64::total_cmp` is
// the total order.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod histogram;
pub mod journal;
pub mod log;
pub mod percentile;
pub mod span;
pub mod summary;
pub mod table;
pub mod timeseries;

pub use histogram::LogHistogram;
pub use journal::{Journal, JournalEvent, JournalMode, WeightCause};
pub use log::{Log, Mode, Record};
pub use percentile::exact_percentile;
pub use span::{CriticalPath, HopKind, HopRecord, Span, SpanLog, SpanMode};
pub use summary::AccuracySummary;
pub use table::Table;
pub use timeseries::{BinnedSeries, ScalarSeries};
