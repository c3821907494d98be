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

/// The FNV-1a offset basis: the hash of no bytes, and the seed of every
/// digest chain.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV prime, 2^40 + 0x1b3: the multiplier of span digests.
pub const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// 2^44 + 0x1b3, the multiplier of component seeds, packet-trace digests
/// and journal hashes: the FNV prime with its high term one hex digit too
/// far left. It is odd, so each step is still a bijection, and every
/// determinism pin is a function of it.
pub const SIM_FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Folds `bytes` into the FNV-1a hash `h` with multiplier `prime` (one
/// of the two above). Start a chain at [`FNV_OFFSET`]; folding two
/// slices in turn equals folding their concatenation.
pub fn fnv1a(prime: u64, h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(prime))
}
