//! Small helpers shared by the workloads: seeded mixing, order statistics,
//! the host-drift canary, peak memory, and JSON output.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// splitmix64 finalizer: a well-mixed 64-bit hash of `z`.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded stream of 64-bit values and uniform `(0, 1]` floats.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(mix(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    /// Uniform in `(0, 1]`, so `-ln(u)` is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean, 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Percentile levels the tail metric may report, highest first. The ladder
/// stops at p95: one scheduler stall of tens of milliseconds delays about
/// 1% of a serving run's requests, so p99 moved by a fifth between
/// identical runs.
const TAIL_LEVELS: [f64; 4] = [95.0, 90.0, 75.0, 50.0];

/// The highest level of [`TAIL_LEVELS`] with at least ten samples strictly
/// beyond it, and the nearest-rank value at that level. `None` when fewer
/// than 20 samples exist (even the median would have fewer than ten above
/// it).
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    for level in TAIL_LEVELS {
        // nearest rank: the smallest index covering `level` percent
        let rank = ((level / 100.0) * n as f64).ceil() as usize;
        let idx = rank.clamp(1, n.max(1)) - 1;
        if n >= 1 && n - 1 - idx >= 10 {
            return Some((level, s[idx]));
        }
    }
    None
}

/// A fixed scalar loop that no change to the program touches. Its wall time
/// tracks the host's speed, so a drift in it explains a drift in the
/// workload's timings. Eight independent xorshift streams keep the integer
/// units busy the way the engines do, so the loop slows down when another
/// tenant contends for the same physical core (a single dependent chain
/// barely notices).
pub fn canary_ms() -> f64 {
    let t0 = Instant::now();
    let mut s = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..1_000_000u64 {
        for x in s.iter_mut() {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            *x = x.wrapping_add(i);
        }
    }
    std::hint::black_box(s);
    ms(t0.elapsed())
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times the pieces of one set-up: each call of [`SetupClock::time`] is one
/// piece, in a fixed order.
#[derive(Default)]
pub struct SetupClock {
    pieces: Vec<f64>,
}

impl SetupClock {
    /// Runs `f` as the set-up's next piece and records its wall time (s).
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.pieces.push(t0.elapsed().as_secs_f64());
        out
    }
}

/// Set-up time of a workload, from repeated set-ups.
pub struct SetupTime {
    /// Sum over the set-up's pieces of each piece's fastest repetition (s).
    pub best_s: f64,
    /// Median wall time of a whole set-up, as measured (s).
    pub measured_s: f64,
    /// Pieces per set-up, the untimed remainder included.
    pub pieces: usize,
    /// Set-ups made.
    pub repeats: usize,
    /// The longest piece's fastest repetition (ms).
    pub longest_ms: f64,
}

/// Runs `build` at least `times` times and until `seconds` have passed,
/// dropping each result before the next build, and returns the last result
/// with its set-up time.
///
/// Set-up is the same fixed work every time, split into the same pieces.
/// Each piece is represented by its fastest repetition, and the part of a
/// set-up no piece covers is one more piece, so every bit of set-up work
/// counts. A whole set-up is hundreds of milliseconds of host CPU, long
/// enough that a neighbour on a shared host preempts every repetition of it
/// and moved its median by a quarter between sets of runs; pieces of a few
/// milliseconds each run undisturbed in some repetition. Repeating for a
/// few seconds, not just a few times, lets the repetitions outlast a slow
/// second of the host.
pub fn repeated_setup<T>(
    times: usize,
    seconds: f64,
    mut build: impl FnMut(&mut SetupClock) -> T,
) -> (T, SetupTime) {
    let mut walls = Vec::with_capacity(times);
    let mut best: Vec<f64> = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while walls.len() < times.max(1) || start.elapsed().as_secs_f64() < seconds {
        drop(last.take());
        let mut clock = SetupClock::default();
        let t0 = Instant::now();
        last = Some(build(&mut clock));
        let wall = t0.elapsed().as_secs_f64();
        walls.push(wall);
        let rest = (wall - clock.pieces.iter().sum::<f64>()).max(0.0);
        clock.pieces.push(rest);
        if best.is_empty() {
            best = clock.pieces;
        } else {
            assert_eq!(best.len(), clock.pieces.len(), "set-up pieces differ between repetitions");
            for (b, p) in best.iter_mut().zip(clock.pieces) {
                *b = b.min(p);
            }
        }
    }
    let time = SetupTime {
        best_s: best.iter().sum(),
        measured_s: median(&walls),
        pieces: best.len(),
        repeats: walls.len(),
        longest_ms: best.iter().copied().fold(0.0, f64::max) * 1e3,
    };
    (last.expect("at least one set-up"), time)
}

/// Bitwise equality of two float slices.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// FNV-1a over bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Renders `{"name": {"value": v, "unit": u}, ...}` with every digit of each
/// value (Rust's shortest round-trip float formatting).
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { format!("{:?}", m.value) } else { "0.0".into() };
        let _ = write!(out, "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, value, m.unit);
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        // p75 of 40 samples is the 30th value, with 10 above it
        assert_eq!(tail(&v), Some((75.0, 30.0)));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), Some((95.0, 190.0)));
        let v: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((95.0, 95_000.0)));
        assert_eq!(tail(&[1.0; 19]), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
