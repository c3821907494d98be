//! Client-side ground-truth collection.

use telemetry::BinnedSeries;

/// Cap on the raw samples a recorder keeps; samples past it are counted
/// in [`LatencyRecorder::dropped`]. [`crate::BacklogClient`] caps its RTT
/// samples at the same length.
pub const RAW_LIMIT: usize = 1 << 20;

/// Records per-request response latencies at the client — the
/// `T_client` ground truth the LB's `T_LB` estimates are judged against,
/// and the source of the paper's Fig. 3 p95 series.
#[derive(Debug)]
pub struct LatencyRecorder {
    /// GET response latencies over time.
    pub get_series: BinnedSeries,
    /// Raw `(completion time, latency, is_get)` samples, capped.
    raw: Vec<(u64, u64, bool)>,
    /// Raw samples not kept because the cap was full.
    dropped: u64,
    /// Total responses recorded (including beyond the raw cap).
    pub responses: u64,
}

impl LatencyRecorder {
    /// Creates a recorder with the given time-bin width for the series.
    pub fn new(bin_width_ns: u64) -> LatencyRecorder {
        LatencyRecorder {
            get_series: BinnedSeries::new(bin_width_ns),
            raw: Vec::new(),
            dropped: 0,
            responses: 0,
        }
    }

    /// Records one completed request.
    pub fn record_response(&mut self, now_ns: u64, latency_ns: u64, is_get: bool) {
        self.responses += 1;
        if is_get {
            self.get_series.record(now_ns, latency_ns);
        }
        if self.raw.len() < RAW_LIMIT {
            self.raw.push((now_ns, latency_ns, is_get));
        } else {
            self.dropped += 1;
        }
    }

    /// Raw response samples.
    pub fn raw(&self) -> &[(u64, u64, bool)] {
        &self.raw
    }

    /// Raw response samples past [`RAW_LIMIT`], recorded nowhere: nonzero
    /// means [`Self::raw`] is a prefix of the run, not all of it.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_split_by_op() {
        let mut r = LatencyRecorder::new(1_000_000_000);
        r.record_response(0, 100, true);
        r.record_response(1, 200, false);
        r.record_response(2, 300, true);
        assert_eq!(r.responses, 3);
        assert_eq!(r.get_series.merged().count(), 2);
        assert_eq!(r.raw().len(), 3);
    }

    #[test]
    fn samples_past_the_cap_are_counted_not_kept() {
        let mut r = LatencyRecorder::new(u64::MAX);
        let extra = 3;
        for i in 0..(RAW_LIMIT + extra) as u64 {
            r.record_response(i, i, true);
        }
        assert_eq!(r.raw().len(), RAW_LIMIT);
        assert_eq!(r.dropped(), extra as u64);
        // The series and the response count still see every response.
        assert_eq!(r.responses, (RAW_LIMIT + extra) as u64);
        assert_eq!(r.get_series.merged().count(), (RAW_LIMIT + extra) as u64);
    }
}
