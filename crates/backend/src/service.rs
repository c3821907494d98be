//! Service-time modeling: distributions, worker pool, and scripted delay
//! injection.

use netsim::rng::SimRng;

/// Nanoseconds alias (matches `lbcore::Nanos`).
pub type Nanos = u64;

/// A per-request service-time distribution.
#[derive(Debug, Clone, Copy)]
pub enum ServiceDist {
    /// Every request takes exactly this long.
    Constant(Nanos),
    /// Log-normal parameterized by its median and the σ of the underlying
    /// normal — the classic heavy-ish-tailed service-time model.
    LogNormal {
        /// Median service time (e^µ).
        median: Nanos,
        /// Shape parameter σ.
        sigma: f64,
    },
}

impl ServiceDist {
    /// Draws one service time.
    pub fn sample(&self, rng: &mut SimRng) -> Nanos {
        match *self {
            ServiceDist::Constant(ns) => ns,
            ServiceDist::LogNormal { median, sigma } => {
                // Box-Muller for a standard normal.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                ((median as f64) * (sigma * z).exp()) as Nanos
            }
        }
    }
}

/// A step schedule of extra per-request delay: `(from, extra)` pairs,
/// sorted by `from`; the extra delay in force at time `t` is that of the
/// last step at or before `t`.
#[derive(Debug, Clone, Default)]
pub struct DelaySchedule {
    steps: Vec<(Nanos, Nanos)>,
}

impl DelaySchedule {
    /// No injected delay, ever.
    pub fn none() -> DelaySchedule {
        DelaySchedule::default()
    }

    /// A single step: add `extra` to every request from `from` onward —
    /// the paper's "inject 1 ms at t = 100 s".
    pub fn step(from: Nanos, extra: Nanos) -> DelaySchedule {
        DelaySchedule {
            steps: vec![(from, extra)],
        }
    }

    /// Adds a step; `from` values must be non-decreasing.
    pub fn push(&mut self, from: Nanos, extra: Nanos) {
        if let Some(&(last, _)) = self.steps.last() {
            assert!(from >= last, "steps must be time-ordered");
        }
        self.steps.push((from, extra));
    }

    /// The extra delay in force at `now`.
    pub fn extra_at(&self, now: Nanos) -> Nanos {
        match self.steps.binary_search_by_key(&now, |&(t, _)| t) {
            Ok(i) => self.steps[i].1,
            Err(0) => 0,
            Err(i) => self.steps[i - 1].1,
        }
    }
}

/// A pool of `workers` identical workers with FIFO assignment (a request
/// goes to the earliest-free worker), plus the delay schedule. Produces
/// completion times for requests.
#[derive(Debug, Clone)]
pub struct ServiceModel {
    dist: ServiceDist,
    workers: Vec<Nanos>,
    schedule: DelaySchedule,
}

impl ServiceModel {
    /// Creates the model.
    pub fn new(dist: ServiceDist, workers: usize, schedule: DelaySchedule) -> ServiceModel {
        assert!(workers > 0, "at least one worker");
        ServiceModel {
            dist,
            workers: vec![0; workers],
            schedule,
        }
    }

    /// Admits a request at `now`; returns its completion time.
    pub fn admit(&mut self, now: Nanos, rng: &mut SimRng) -> Nanos {
        self.admit_timed(now, rng).1
    }

    /// [`ServiceModel::admit`] returning `(start, done)` — span tracing
    /// needs the service-start instant to split queueing from service.
    pub fn admit_timed(&mut self, now: Nanos, rng: &mut SimRng) -> (Nanos, Nanos) {
        let service = self.dist.sample(rng);
        let extra = self.schedule.extra_at(now);
        // Earliest-free worker.
        let (w, &free_at) = self
            .workers
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .expect("non-empty worker pool");
        let start = now.max(free_at);
        let done = start + service + extra;
        self.workers[w] = done;
        (start, done)
    }

    /// The number of workers still busy at `now` (the model tracks each
    /// worker's drain time, not individual queued requests).
    pub fn busy_workers(&self, now: Nanos) -> usize {
        self.workers.iter().filter(|&&t| t > now).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Nanos = 1_000_000;
    const US: Nanos = 1_000;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(7)
    }

    #[test]
    fn constant_is_constant() {
        let d = ServiceDist::Constant(100 * US);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r), 100 * US);
        }
    }

    #[test]
    fn lognormal_median_close() {
        let d = ServiceDist::LogNormal {
            median: 100 * US,
            sigma: 0.5,
        };
        let mut r = rng();
        let mut v: Vec<Nanos> = (0..20_001).map(|_| d.sample(&mut r)).collect();
        v.sort_unstable();
        let median = v[v.len() / 2] as f64;
        assert!(
            (median / (100.0 * US as f64) - 1.0).abs() < 0.05,
            "median {median}"
        );
        // And it has a tail: p99 well above the median.
        let p99 = v[(v.len() * 99) / 100] as f64;
        assert!(p99 > 2.0 * median);
    }

    #[test]
    fn single_worker_queues_fifo() {
        let mut m = ServiceModel::new(ServiceDist::Constant(100 * US), 1, DelaySchedule::none());
        let mut r = rng();
        let d1 = m.admit(0, &mut r);
        let d2 = m.admit(0, &mut r);
        let d3 = m.admit(0, &mut r);
        assert_eq!(d1, 100 * US);
        assert_eq!(d2, 200 * US);
        assert_eq!(d3, 300 * US);
        assert_eq!(m.busy_workers(50 * US), 1);
        assert_eq!(m.busy_workers(250 * US), 1);
        assert_eq!(m.busy_workers(400 * US), 0);
    }

    #[test]
    fn multiple_workers_parallelize() {
        let mut m = ServiceModel::new(ServiceDist::Constant(100 * US), 2, DelaySchedule::none());
        let mut r = rng();
        assert_eq!(m.admit(0, &mut r), 100 * US);
        assert_eq!(m.admit(0, &mut r), 100 * US);
        assert_eq!(m.admit(0, &mut r), 200 * US);
    }

    #[test]
    fn idle_worker_starts_immediately() {
        let mut m = ServiceModel::new(ServiceDist::Constant(100 * US), 1, DelaySchedule::none());
        let mut r = rng();
        let _ = m.admit(0, &mut r);
        // Long after the first finished: no queueing.
        assert_eq!(m.admit(MS, &mut r), MS + 100 * US);
    }

    #[test]
    fn delay_schedule_steps() {
        let mut s = DelaySchedule::none();
        assert_eq!(s.extra_at(0), 0);
        s.push(100 * MS, MS);
        s.push(200 * MS, 0);
        assert_eq!(s.extra_at(50 * MS), 0);
        assert_eq!(s.extra_at(100 * MS), MS);
        assert_eq!(s.extra_at(150 * MS), MS);
        assert_eq!(s.extra_at(250 * MS), 0);
    }

    #[test]
    fn injection_inflates_completions() {
        let sched = DelaySchedule::step(10 * MS, MS);
        let mut m = ServiceModel::new(ServiceDist::Constant(100 * US), 1, sched);
        let mut r = rng();
        assert_eq!(m.admit(0, &mut r), 100 * US);
        assert_eq!(m.admit(20 * MS, &mut r), 20 * MS + 100 * US + MS);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn unordered_schedule_rejected() {
        let mut s = DelaySchedule::step(100, 5);
        s.push(50, 5);
    }
}
