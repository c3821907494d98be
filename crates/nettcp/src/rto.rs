//! RTT estimation and retransmission timeout (RFC 6298).

use netsim::Duration;

/// Smoothed RTT state and RTO computation, per RFC 6298 with datacenter
/// clamps. Also the client-side source of **ground-truth response latency**
/// in experiments: every ACK that advances `snd_una` over a timed,
/// never-retransmitted segment yields one RTT sample (Karn's algorithm).
#[derive(Debug, Clone, Copy)]
pub struct RttEstimator {
    srtt: Option<Duration>,
    rttvar: Duration,
    rto: Duration,
    backoff_exponent: u32,
}

impl Default for RttEstimator {
    /// An estimator with no samples, at [`RttEstimator::INITIAL_RTO`].
    fn default() -> Self {
        RttEstimator {
            srtt: None,
            rttvar: Duration::ZERO,
            rto: Self::INITIAL_RTO,
            backoff_exponent: 0,
        }
    }
}

impl RttEstimator {
    /// Maximum RTO (RFC 6298 suggests at least 60 s).
    pub const MAX_RTO: Duration = Duration::from_secs(60);
    /// Lower bound for the RTO (a datacenter value; RFC 6298's 1 s would
    /// dwarf every simulated RTT).
    pub const MIN_RTO: Duration = Duration::from_millis(5);
    /// The RTO before any RTT sample exists.
    pub const INITIAL_RTO: Duration = Duration::from_millis(50);

    /// Feeds one RTT measurement.
    pub fn on_sample(&mut self, rtt: Duration) {
        self.backoff_exponent = 0;
        match self.srtt {
            None => {
                // First sample: SRTT = R, RTTVAR = R/2.
                self.srtt = Some(rtt);
                self.rttvar = rtt.div(2);
            }
            Some(srtt) => {
                // RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R|
                let err = if srtt > rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar =
                    Duration::from_nanos((3 * self.rttvar.as_nanos() + err.as_nanos()) / 4);
                // SRTT = 7/8 SRTT + 1/8 R
                self.srtt = Some(Duration::from_nanos(
                    (7 * srtt.as_nanos() + rtt.as_nanos()) / 8,
                ));
            }
        }
        let srtt = self.srtt.expect("set above");
        let candidate = srtt + self.rttvar.saturating_mul(4);
        self.rto = candidate.max(Self::MIN_RTO).min(Self::MAX_RTO);
    }

    /// Doubles the RTO after a retransmission timeout (Karn's backoff).
    pub fn on_timeout(&mut self) {
        self.backoff_exponent = (self.backoff_exponent + 1).min(10);
        self.rto = self.rto.saturating_mul(2).min(Self::MAX_RTO);
    }

    /// The current retransmission timeout.
    pub fn rto(&self) -> Duration {
        self.rto
    }

    /// The smoothed RTT, if at least one sample has been taken.
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt
    }

    /// Current backoff exponent (0 when the last event was a sample).
    pub fn backoff(&self) -> u32 {
        self.backoff_exponent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> RttEstimator {
        RttEstimator::default()
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = est();
        assert_eq!(e.srtt(), None);
        assert_eq!(e.rto(), RttEstimator::INITIAL_RTO);
        e.on_sample(Duration::from_millis(10));
        assert_eq!(e.srtt(), Some(Duration::from_millis(10)));
        // RTO = SRTT + 4 * (SRTT/2) = 3 * SRTT = 30 ms.
        assert_eq!(e.rto(), Duration::from_millis(30));
    }

    #[test]
    fn converges_to_stable_rtt() {
        let mut e = est();
        for _ in 0..100 {
            e.on_sample(Duration::from_micros(400));
        }
        let srtt = e.srtt().unwrap();
        assert!(
            (srtt.as_nanos() as i64 - 400_000).abs() < 20_000,
            "srtt = {srtt}"
        );
        // With zero variance the RTO collapses to the minimum.
        assert_eq!(e.rto(), Duration::from_millis(5));
    }

    #[test]
    fn reacts_to_rtt_increase() {
        let mut e = est();
        for _ in 0..50 {
            e.on_sample(Duration::from_micros(400));
        }
        for _ in 0..50 {
            e.on_sample(Duration::from_micros(1400));
        }
        assert!(e.srtt().unwrap() > Duration::from_micros(1200));
    }

    #[test]
    fn timeout_backoff_doubles_and_caps() {
        let mut e = est();
        e.on_sample(Duration::from_millis(10));
        let r0 = e.rto();
        e.on_timeout();
        assert_eq!(e.rto(), r0.saturating_mul(2));
        assert_eq!(e.backoff(), 1);
        for _ in 0..40 {
            e.on_timeout();
        }
        assert_eq!(e.rto(), RttEstimator::MAX_RTO);
        // A fresh sample resets the backoff.
        e.on_sample(Duration::from_millis(10));
        assert_eq!(e.backoff(), 0);
        assert!(e.rto() < RttEstimator::MAX_RTO);
    }

    #[test]
    fn min_rto_respected() {
        let mut e = est();
        for _ in 0..20 {
            e.on_sample(Duration::from_micros(10));
        }
        assert_eq!(e.rto(), RttEstimator::MIN_RTO);
    }
}
