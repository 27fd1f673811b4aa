//! The benchmark's load generator (`gen`): seeded request schedules and
//! the two-thread player that drives them against an engine.
//!
//! Everything a run offers is generated from the workload seed before any
//! timer starts. The player uses exactly two threads: the calling thread
//! submits, one scoped thread observes completions in submission order.
//! Open-loop phases time every request from its *due* time, so a stalled
//! submitter shows up as latency and as generator lag, never as a
//! flattering gap.

use fpsa_serve::{ServeError, Ticket};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator on stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// An index drawn with probability proportional to `weights`.
    pub fn pick(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = self.unit() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x <= w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// A seed for a child stream.
    pub fn derive(seed: u64, stream: u64) -> u64 {
        Rng::new(seed, stream).next_u64()
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the request is due, in ns from the phase start (0 in bursts).
    pub due_ns: u64,
    /// Index into the model's pre-built input pool.
    pub input: u32,
    /// Model index (0 for single-model workloads).
    pub model: u16,
    /// Tenant index (0 for single-tenant workloads).
    pub tenant: u16,
}

/// What a workload's requests are drawn from.
#[derive(Debug, Clone, PartialEq)]
pub struct Mix {
    /// Inputs per model pool.
    pub pool: usize,
    /// Relative model popularity.
    pub models: Vec<f64>,
    /// Relative tenant shares.
    pub tenants: Vec<f64>,
}

impl Mix {
    /// One model, one tenant.
    pub fn single(pool: usize) -> Mix {
        Mix {
            pool,
            models: vec![1.0],
            tenants: vec![1.0],
        }
    }

    fn draw(&self, rng: &mut Rng, due_ns: u64) -> Arrival {
        Arrival {
            due_ns,
            input: rng.below(self.pool) as u32,
            model: rng.pick(&self.models) as u16,
            tenant: rng.pick(&self.tenants) as u16,
        }
    }
}

/// An open-loop Poisson schedule at `rate_per_s` over `seconds`.
pub fn poisson(seed: u64, rate_per_s: f64, seconds: f64, mix: &Mix) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 1);
    let horizon_ns = seconds * 1e9;
    let mut at_ns = 0.0f64;
    let mut out = Vec::with_capacity((rate_per_s * seconds * 1.1) as usize + 16);
    loop {
        at_ns += -rng.unit().ln() / rate_per_s * 1e9;
        if at_ns >= horizon_ns {
            return out;
        }
        out.push(mix.draw(&mut rng, at_ns as u64));
    }
}

/// `n` requests all due at once, for closed-loop bursts.
pub fn burst(seed: u64, n: usize, mix: &Mix) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 2);
    (0..n).map(|_| mix.draw(&mut rng, 0)).collect()
}

/// An engine as the generator sees it.
pub trait Target: Sync {
    /// A fresh copy of the request's pre-built input (made before the
    /// submit call is timed).
    fn input(&self, arrival: &Arrival) -> Vec<f32>;
    /// Hand the request to the engine.
    fn submit(&self, arrival: &Arrival, input: Vec<f32>) -> Ticket;
    /// The output direct execution gives for this request's input.
    fn expected(&self, arrival: &Arrival) -> &[f32];
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered with the expected output, bit for bit.
    Ok,
    /// Answered with a different output.
    Mismatch,
    /// Answered with a typed error (refused or failed).
    Failed,
}

/// One request's timeline, in ns from the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// The request.
    pub arrival: Arrival,
    /// The submit call began.
    pub submit_start_ns: u64,
    /// The submit call returned.
    pub submit_end_ns: u64,
    /// The observer saw the response.
    pub observed_ns: u64,
    /// The engine's own submit-to-completion stamp (µs; 0 on failure).
    pub engine_us: u64,
    /// How it ended.
    pub outcome: Outcome,
}

impl Record {
    /// Due-to-observed latency in µs.
    pub fn latency_us(&self) -> f64 {
        self.observed_ns.saturating_sub(self.arrival.due_ns) as f64 / 1e3
    }

    /// How late the generator submitted, in µs.
    pub fn lag_us(&self) -> f64 {
        self.submit_start_ns.saturating_sub(self.arrival.due_ns) as f64 / 1e3
    }

    /// The submit call's duration in µs.
    pub fn submit_us(&self) -> f64 {
        (self.submit_end_ns - self.submit_start_ns) as f64 / 1e3
    }

    /// Client-observed completion minus the engine's completion stamp
    /// (engine submit stamp taken as the end of the submit call, so this is
    /// a lower bound), in µs.
    pub fn wake_us(&self) -> f64 {
        let done_ns = self.submit_end_ns + self.engine_us * 1000;
        self.observed_ns.saturating_sub(done_ns) as f64 / 1e3
    }
}

/// A played phase.
#[derive(Debug, Clone)]
pub struct Played {
    /// Per-request timelines in submission order.
    pub records: Vec<Record>,
    /// The phase's time origin.
    pub origin: Instant,
}

impl Played {
    /// Requests answered with a wrong output.
    pub fn mismatches(&self) -> usize {
        self.count(Outcome::Mismatch)
    }

    /// Requests answered with a typed error.
    pub fn failed(&self) -> usize {
        self.count(Outcome::Failed)
    }

    fn count(&self, outcome: Outcome) -> usize {
        self.records.iter().filter(|r| r.outcome == outcome).count()
    }
}

/// Requests the generator counts as late: submitted more than this many µs
/// after they were due (well above the sleep overshoot of an idle host).
pub const LATE_US: f64 = 250.0;

fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

fn judge<T: Target>(
    target: &T,
    arrival: &Arrival,
    response: Result<(Vec<f32>, u64), ServeError>,
) -> (Outcome, u64) {
    match response {
        Ok((out, engine_us)) => {
            let want = target.expected(arrival);
            let same = out.len() == want.len()
                && out
                    .iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            let outcome = if same { Outcome::Ok } else { Outcome::Mismatch };
            (outcome, engine_us)
        }
        Err(_) => (Outcome::Failed, 0),
    }
}

/// Observe tickets in submission order, handing each resolution
/// (observed ns, engine µs, outcome) to `seen`.
fn observe<T: Target>(
    target: &T,
    origin: Instant,
    tickets: mpsc::Receiver<(Arrival, Ticket)>,
    mut seen: impl FnMut(u64, u64, Outcome),
) {
    for (arrival, ticket) in tickets {
        let response = ticket.wait_timed();
        let observed = ns_since(origin);
        let (outcome, engine_us) = judge(target, &arrival, response);
        seen(observed, engine_us, outcome);
    }
}

/// Play an open-loop schedule: each request is submitted at its due time
/// (or at once, when the submitter is behind).
pub fn play_open<T: Target>(target: &T, schedule: &[Arrival]) -> Played {
    let (tx, rx) = mpsc::channel();
    let origin = Instant::now();
    let mut submitted = Vec::with_capacity(schedule.len());
    let seen = thread::scope(|scope| {
        let observer = scope.spawn(|| {
            let mut seen = Vec::with_capacity(schedule.len());
            observe(target, origin, rx, |observed, engine_us, outcome| {
                seen.push((observed, engine_us, outcome));
            });
            seen
        });
        for arrival in schedule {
            let now = ns_since(origin);
            if arrival.due_ns > now {
                thread::sleep(Duration::from_nanos(arrival.due_ns - now));
            }
            let input = target.input(arrival);
            let start = ns_since(origin);
            let ticket = target.submit(arrival, input);
            let end = ns_since(origin);
            submitted.push((*arrival, start, end));
            tx.send((*arrival, ticket)).expect("observer is alive");
        }
        drop(tx);
        observer.join().expect("observer thread does not panic")
    });
    assert_eq!(submitted.len(), seen.len(), "every ticket resolves");
    let records: Vec<Record> = submitted
        .into_iter()
        .zip(seen)
        .map(
            |((arrival, submit_start_ns, submit_end_ns), (observed_ns, engine_us, outcome))| {
                Record {
                    arrival,
                    submit_start_ns,
                    submit_end_ns,
                    observed_ns,
                    engine_us,
                    outcome,
                }
            },
        )
        .collect();
    Played { records, origin }
}

/// A played closed-loop burst. Only counts are kept, so its memory does
/// not grow with the engine's speed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Burst {
    /// Requests submitted.
    pub attempted: u64,
    /// Answered with the expected output.
    pub ok: u64,
    /// Answered with a typed error.
    pub failed: u64,
    /// Answered with a wrong output.
    pub mismatches: u64,
    /// Burst start to last observation, seconds.
    pub wall_s: f64,
}

impl Burst {
    /// Correct completions per second over the whole burst.
    pub fn rate(&self) -> f64 {
        self.ok as f64 / self.wall_s.max(1e-9)
    }
}

/// Play a closed-loop burst: keep `window` requests in flight, cycling
/// through `requests`, until `seconds` have passed; then drain.
pub fn play_burst<T: Target>(
    target: &T,
    requests: &[Arrival],
    window: usize,
    seconds: f64,
) -> Burst {
    let (tx, rx) = mpsc::channel();
    let (token_tx, token_rx) = mpsc::channel();
    let origin = Instant::now();
    let stop_ns = (seconds * 1e9) as u64;
    let mut attempted = 0u64;
    let mut burst = thread::scope(|scope| {
        let observer = scope.spawn(|| {
            let mut burst = Burst::default();
            let mut last = 0;
            observe(target, origin, rx, |observed, _, outcome| {
                last = observed;
                match outcome {
                    Outcome::Ok => burst.ok += 1,
                    Outcome::Failed => burst.failed += 1,
                    Outcome::Mismatch => burst.mismatches += 1,
                }
                let _ = token_tx.send(());
            });
            burst.wall_s = last as f64 / 1e9;
            burst
        });
        for (i, arrival) in requests.iter().cycle().enumerate() {
            if i >= window {
                token_rx.recv().expect("observer is alive");
            }
            let input = target.input(arrival);
            if ns_since(origin) >= stop_ns {
                break;
            }
            let ticket = target.submit(arrival, input);
            attempted += 1;
            tx.send((*arrival, ticket)).expect("observer is alive");
        }
        drop(tx);
        observer.join().expect("observer thread does not panic")
    });
    burst.attempted = attempted;
    burst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_schedule() {
        let mix = Mix {
            pool: 64,
            models: vec![4.0, 1.0],
            tenants: vec![1.0, 3.0],
        };
        let a = poisson(11, 5000.0, 2.0, &mix);
        let b = poisson(11, 5000.0, 2.0, &mix);
        assert_eq!(a, b);
        assert_ne!(a, poisson(12, 5000.0, 2.0, &mix));
        assert_eq!(burst(3, 100, &mix), burst(3, 100, &mix));
    }

    #[test]
    fn the_mean_rate_is_near_the_target() {
        for seed in 0..5 {
            let schedule = poisson(seed, 8000.0, 4.0, &Mix::single(8));
            let rate = schedule.len() as f64 / 4.0;
            // 32k expected arrivals: sd ≈ 0.56%, so 3% is > 5 sd.
            assert!((rate / 8000.0 - 1.0).abs() < 0.03, "seed {seed}: {rate}");
            assert!(schedule.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
            assert!(schedule.iter().all(|a| a.due_ns < 4_000_000_000));
        }
    }

    #[test]
    fn mixes_follow_their_weights() {
        let mix = Mix {
            pool: 16,
            models: vec![4.0, 1.0],
            tenants: vec![1.0, 3.0],
        };
        let requests = burst(9, 40_000, &mix);
        let hot = requests.iter().filter(|a| a.model == 0).count() as f64 / 40_000.0;
        let pro = requests.iter().filter(|a| a.tenant == 1).count() as f64 / 40_000.0;
        assert!((hot - 0.8).abs() < 0.01, "{hot}");
        assert!((pro - 0.75).abs() < 0.01, "{pro}");
        assert!(requests.iter().all(|a| (a.input as usize) < 16));
    }
}
