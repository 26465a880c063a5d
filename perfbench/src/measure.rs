//! Sample statistics, the metric record and result line, the trajectory
//! digest, and the benchmark's own input generators.
//!
//! The generators live here rather than reusing the engine's RNG so that
//! a change to the engine can never change the benchmark's inputs.

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's per-process CPU clock id.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of the whole process in nanoseconds, every thread included,
/// so work that a change moves to another thread still counts. With
/// paravirtualised time accounting the kernel leaves out time the
/// hypervisor steals from the vCPUs, which wall time on a shared host
/// includes.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two C longs on 64-bit
    // Linux) for the whole call, and `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Nearest-rank percentile `per_mille / 1000` of `samples`, or `None`
/// when fewer than ten samples lie above it (a p90 needs 100 samples, a
/// p99 needs 1000).
pub fn percentile(samples: &[f64], per_mille: usize) -> Option<f64> {
    let n = samples.len();
    let rank = (n * per_mille).div_ceil(1000).max(1);
    if n < rank + 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value": v, "unit": u}`. Refuses a metric
/// without a name or unit, or with a value that is not finite, since the
/// line would then not say what was measured.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if m.name.is_empty() || m.unit.is_empty() {
            return Err(format!("metric {m:?} lacks a name or a unit"));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// FNV-1a, folded a byte at a time: the trajectory digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: the seeded source of every generated input.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` is drawn with weight `1 / (k+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over no ranks");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 500), Some(50.0));
        assert_eq!(percentile(&samples, 900), Some(90.0));
        assert_eq!(percentile(&samples[..99], 900), None);
        assert_eq!(percentile(&samples, 990), None);
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 990), Some(990.0));
        assert_eq!(percentile(&samples[..999], 990), None);
        assert_eq!(percentile(&[], 500), None);
        // Every reported percentile leaves at least ten samples above it.
        for n in 1..400usize {
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            for per_mille in [500, 900, 990] {
                if let Some(p) = percentile(&samples, per_mille) {
                    assert!(samples.iter().filter(|&&s| s > p).count() >= 10);
                }
            }
        }
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn zipf_sampler_is_seeded() {
        let zipf = Zipf::new(1024, 1.0);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..1000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let ranks = draw(7);
        assert!(ranks.iter().all(|&r| r < 1024));
        // Rank 0 carries 1/H(1024) ≈ 13 % of the mass under s = 1.
        let top = ranks.iter().filter(|&&r| r == 0).count();
        assert!((80..200).contains(&top), "rank 0 drawn {top} times");
    }

    #[test]
    fn result_line_refuses_unnamed_or_nonfinite_metrics() {
        let ok = Metric {
            name: "setup_s",
            unit: "s",
            value: 0.8127,
        };
        let line = result_line(true, 3, 0, std::slice::from_ref(&ok)).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        for bad in [
            Metric {
                name: "",
                ..ok.clone()
            },
            Metric {
                unit: "",
                ..ok.clone()
            },
            Metric {
                value: f64::NAN,
                ..ok.clone()
            },
            Metric {
                value: f64::INFINITY,
                ..ok.clone()
            },
        ] {
            assert!(result_line(true, 1, 0, &[bad]).is_err());
        }
    }
}
