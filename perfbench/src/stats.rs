//! Summary statistics shared by the end-to-end and per-layer reports.

/// Samples that must lie strictly beyond a percentile before it is
/// reported: with fewer, the tail estimate is a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// The median of `xs` (mean of the two middle values for even counts);
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `q` (in `(0, 1)`) of `xs`, reported only when
/// at least [`MIN_BEYOND`] samples lie beyond it: p50 needs 20 samples,
/// p99 needs 1000.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    (n - 1 - idx >= MIN_BEYOND).then(|| s[idx])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Self-time of a ladder rung: its median per-op cost minus the median
/// of the rung it calls into, on the same op sequence. `None` when either
/// median is not reportable.
pub fn self_time(rung: Option<f64>, below: Option<f64>) -> Option<f64> {
    Some(rung? - below?)
}

/// A ratio kept together with its base, so a rate is never reported
/// without the count it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub base: f64,
}

impl Ratio {
    pub fn new(num: f64, base: f64) -> Ratio {
        Ratio { num, base }
    }

    /// `num / base`, or 0 when the base is empty (the layer did no work).
    pub fn value(&self) -> f64 {
        if self.base == 0.0 {
            0.0
        } else {
            self.num / self.base
        }
    }
}

/// An FNV-1a style digest over 64-bit words, for bit-equality checks of
/// payloads. Streams whose lengths are multiples of 8 bytes hash the same
/// whether fed in one call or many.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(self, x: u64) -> Digest {
        Digest((self.0 ^ x).wrapping_mul(0x0100_0000_01b3))
    }

    pub fn bytes(self, b: &[u8]) -> Digest {
        let words = b.chunks_exact(8);
        let tail = words.remainder();
        let h = words.fold(self, |h, w| {
            h.u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
        });
        tail.iter().fold(h, |h, &x| h.u64(u64::from(x)))
    }

    pub fn f64s(self, xs: &[f64]) -> Digest {
        xs.iter().fold(self, |h, x| h.u64(x.to_bits()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the helpers must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p50 of 20 samples leaves exactly 10 above the rank.
        assert_eq!(percentile(&ramp(20), 0.5), Some(9.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        // p99 needs 1000 samples.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(989.0));
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn self_time_is_the_rung_difference() {
        assert_eq!(self_time(Some(900.0), Some(700.0)), Some(200.0));
        assert_eq!(self_time(Some(900.0), None), None);
        assert_eq!(self_time(None, Some(1.0)), None);
        // A rung faster than the one below it reads negative, not clamped:
        // that is noise or a measurement bug, and the report must show it.
        assert_eq!(self_time(Some(5.0), Some(7.0)), Some(-2.0));
    }

    #[test]
    fn digest_is_independent_of_word_aligned_chunking() {
        let b: Vec<u8> = (0..64u8).collect();
        let whole = Digest::default().bytes(&b);
        let split = Digest::default().bytes(&b[..24]).bytes(&b[24..]);
        assert_eq!(whole, split);
        assert_ne!(whole, Digest::default().bytes(&b[..56]));
    }

    #[test]
    fn ratio_keeps_its_base_and_is_zero_on_an_empty_base() {
        let r = Ratio::new(30.0, 40.0);
        assert_eq!(r.value(), 0.75);
        assert_eq!(r.base, 40.0);
        assert_eq!(Ratio::new(0.0, 0.0).value(), 0.0);
    }
}
