//! Small numeric and process helpers: percentiles, a seeded generator,
//! content digests, and `/proc` readings.

/// Nearest-rank percentile of `values` (`q` in `0..=1`); 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Geometric mean; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// SplitMix64: the benchmark's only source of randomness, so a seed
/// fixes every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Picks an index from a cumulative weight table.
pub fn pick(cdf: &[f64], u: f64) -> usize {
    let total = *cdf.last().expect("non-empty table");
    cdf.partition_point(|&c| c <= u * total).min(cdf.len() - 1)
}

/// Cumulative Zipf weights `1 / rank^s` over `n` ranks.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    (1..=n)
        .map(|r| {
            acc += 1.0 / (r as f64).powf(s);
            acc
        })
        .collect()
}

/// FNV-1a 64-bit digest, printed as 16 hex digits.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn proc_status_kb(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Live threads of this process.
pub fn threads() -> u64 {
    proc_status_kb("Threads:").unwrap_or(0)
}
