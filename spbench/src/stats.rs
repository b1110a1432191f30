//! Bounded-memory latency histograms and the seeded input generators:
//! Zipf popularity, Poisson arrivals and paper-sized text (§VIII).

use rand::distributions::Alphanumeric;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use social_puzzles_core::context::Context;

/// Context pairs per puzzle (§VIII: N = 5).
pub const PAIRS: usize = 5;
/// Threshold (§VIII: k = 1).
pub const K: usize = 1;
/// Question length in characters (§VIII).
const QUESTION_LEN: usize = 50;
/// Answer length in characters (§VIII).
const ANSWER_LEN: usize = 20;
/// Shared object size in bytes (§VIII: 100-character messages).
const OBJECT_LEN: usize = 100;

/// Sub-buckets per power of two. A bucket is at most 1/128 of its lower
/// bound wide, so any estimate inside it is within 0.8% of every value in
/// it — under the 1% the benchmark promises.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Exact buckets for `0..SUB`, then `SUB` buckets for each exponent
/// `SUB_BITS..=63`.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB as usize;

/// A fixed-size log-bucket histogram of nanosecond values: recording
/// never allocates, so the generator's own memory stays constant however
/// many samples a phase takes.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { counts: vec![0; BUCKETS], total: 0, max: 0 }
    }
}

fn bucket(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    let sub = (v >> shift) - SUB;
    SUB as usize * (exp - SUB_BITS + 1) as usize + sub as usize
}

/// A bucket's lower bound and width.
fn bounds(index: usize) -> (u64, u64) {
    if index < SUB as usize {
        return (index as u64, 1);
    }
    let shift = (index / SUB as usize) as u32 - 1;
    ((SUB + (index % SUB as usize) as u64) << shift, 1 << shift)
}

impl Histogram {
    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The nearest-rank `q`-quantile (`0 < q ≤ 1`), or 0 when empty: the
    /// rank's position interpolated across its bucket, so the estimate
    /// stays inside the bucket (within 1%) without snapping to a grid.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lower, width) = bounds(i);
                if width == 1 {
                    return lower as f64;
                }
                let within = (rank - seen) as f64 - 0.5;
                let v = lower as f64 + width as f64 * within / c as f64;
                return v.min(self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Nanoseconds as microseconds.
pub fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// FNV-1a of a stream label.
fn label_hash(label: &str) -> u64 {
    label
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// A generator for one named input stream: the same `(seed, label)`
/// always yields the same values, and streams with different labels are
/// independent, so adding a stream never perturbs another.
pub fn stream(seed: u64, label: &str) -> StdRng {
    StdRng::seed_from_u64(seed ^ label_hash(label))
}

/// The seed of the `index`-th object of a named family, for
/// [`object_inputs`].
pub fn object_seed(seed: u64, family: &str, index: u64) -> u64 {
    mix(seed ^ label_hash(family), index)
}

/// A well-spread 64-bit value per `(a, b)` (the SplitMix64 finalizer).
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Zipf(s) ranks over `1..=n` by rejection-inversion (Hörmann and
/// Derflinger, 1996): O(1) per draw with no table, so the population may
/// grow between draws.
#[derive(Clone, Copy, Debug)]
pub struct Zipf {
    n: f64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    cut: f64,
}

impl Zipf {
    /// The distribution over `1..=n` with exponent `s > 0`.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n >= 1 && s > 0.0, "Zipf needs n >= 1 and s > 0");
        let mut z = Self { n: n as f64, s, h_x1: 0.0, h_n: 0.0, cut: 0.0 };
        z.h_x1 = z.h_integral(1.5) - 1.0;
        z.h_n = z.h_integral(n as f64 + 0.5);
        z.cut = 2.0 - z.h_integral_inverse(z.h_integral(2.5) - z.h(2.0));
        z
    }

    /// One rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        loop {
            let u = self.h_n + rng.gen_range(0.0..1.0) * (self.h_x1 - self.h_n);
            let x = self.h_integral_inverse(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n);
            if k - x <= self.cut || u >= self.h_integral(k + 0.5) - self.h(k) {
                return k as u64;
            }
        }
    }

    fn h(&self, x: f64) -> f64 {
        (-self.s * x.ln()).exp()
    }

    fn h_integral(&self, x: f64) -> f64 {
        let log_x = x.ln();
        expm1_over_x((1.0 - self.s) * log_x) * log_x
    }

    fn h_integral_inverse(&self, x: f64) -> f64 {
        let t = (x * (1.0 - self.s)).max(-1.0);
        (ln1p_over_x(t) * x).exp()
    }
}

fn expm1_over_x(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
    }
}

fn ln1p_over_x(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    }
}

/// One Poisson-process inter-arrival gap at `rate` per second, in ns.
pub fn poisson_gap_ns<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> u64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    (-(1.0 - u).ln() / rate * 1e9) as u64
}

fn text<R: Rng + ?Sized>(rng: &mut R, len: usize) -> String {
    rng.sample_iter(&Alphanumeric).take(len).map(char::from).collect()
}

/// The context and object a sharer shares, regenerated from the object's
/// own seed whenever a receiver needs the answers or a check needs the
/// plaintext — the generator stores 16 bytes per object, not the inputs.
pub fn object_inputs(object_seed: u64) -> (Context, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(object_seed);
    let mut b = Context::builder();
    for i in 0..PAIRS {
        // The index prefix keeps questions distinct within a context.
        let q = format!("{i:02}{}", text(&mut rng, QUESTION_LEN - 2));
        b = b.pair(q, text(&mut rng, ANSWER_LEN));
    }
    let ctx = b.build().expect("distinct nonempty questions");
    (ctx, text(&mut rng, OBJECT_LEN).into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_within_one_percent_of_an_exact_sort() {
        let mut rng = stream(7, "hist");
        let mut exact: Vec<u64> = (0..50_000)
            .map(|_| {
                // Log-uniform over 1 ns .. 10 s: every bucket scale.
                let e: f64 = rng.gen_range(0.0..10.0);
                10f64.powf(e) as u64
            })
            .collect();
        let mut h = Histogram::default();
        for &v in &exact {
            h.record(v);
        }
        exact.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * exact.len() as f64).ceil() as usize).max(1);
            let want = exact[rank - 1] as f64;
            let got = h.quantile(q);
            assert!((got - want).abs() <= want * 0.01, "q={q}: {got} vs {want}");
        }
        assert_eq!(h.count(), 50_000);
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn histogram_merge_equals_recording_into_one() {
        let (mut a, mut b, mut all) =
            (Histogram::default(), Histogram::default(), Histogram::default());
        for v in 0..10_000u64 {
            let x = v * v % 1_000_003;
            if v % 3 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
            all.record(x);
        }
        a.merge(&b);
        for q in [0.1, 0.5, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn zipf_frequencies_follow_the_power_law() {
        let (n, s, draws) = (1000u64, 1.0, 200_000);
        let z = Zipf::new(n, s);
        let mut rng = stream(11, "zipf");
        let mut counts = vec![0u64; n as usize + 1];
        for _ in 0..draws {
            let k = z.sample(&mut rng);
            assert!((1..=n).contains(&k));
            counts[k as usize] += 1;
        }
        let norm: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
        for k in [1usize, 2, 3, 5, 10, 50] {
            let want = draws as f64 * (k as f64).powf(-s) / norm;
            let got = counts[k] as f64;
            // Five binomial standard deviations.
            let tol = 5.0 * want.sqrt();
            assert!((got - want).abs() <= tol, "rank {k}: {got} vs {want:.0}");
        }
        // A one-element population always draws rank 1.
        assert_eq!(Zipf::new(1, 1.0).sample(&mut rng), 1);
    }

    #[test]
    fn poisson_schedule_hits_its_mean_rate() {
        let mut rng = stream(13, "poisson");
        let rate = 10_000.0;
        let draws = 100_000;
        let total: u64 = (0..draws).map(|_| poisson_gap_ns(&mut rng, rate)).sum();
        let measured = draws as f64 / (total as f64 / 1e9);
        assert!((measured - rate).abs() <= rate * 0.02, "rate {measured}");
    }

    #[test]
    fn object_inputs_have_paper_dimensions_and_repeat_per_seed() {
        let (ctx, object) = object_inputs(42);
        assert_eq!(ctx.len(), PAIRS);
        for p in ctx.pairs() {
            assert_eq!(p.question().len(), QUESTION_LEN);
            assert_eq!(p.answer().len(), ANSWER_LEN);
        }
        assert_eq!(object.len(), OBJECT_LEN);
        assert_eq!(object_inputs(42).1, object);
        assert_ne!(object_inputs(43).1, object);
    }
}
