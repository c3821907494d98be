//! Measurement toolkit for the in-band LB reproduction: histograms,
//! percentile estimators, binned time series, estimate-vs-ground-truth
//! summaries, plain-text table output for regenerating the paper's
//! figures, and the packed record log behind the decision journal and
//! the span tracer.
//!
//! The crate is deliberately free of simulator dependencies: all times are
//! raw `u64` nanoseconds, so the same tools serve unit tests, experiments,
//! and benches.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

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
pub use percentile::{exact_percentile, P2Quantile};
pub use span::{CriticalPath, HopKind, HopRecord, Span, SpanLog, SpanMode};
pub use summary::AccuracySummary;
pub use table::Table;
pub use timeseries::{BinnedSeries, ScalarSeries};
