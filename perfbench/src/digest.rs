//! FNV-1a digest over simulated outcome bits.
//!
//! A change meant only to speed the program up must leave every simulated
//! statistic identical; folding each outcome's raw bits into one 64-bit
//! hash lets a run show that in a single line.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(OFFSET)
    }
}

impl Digest {
    /// A fresh digest.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds in one 64-bit word, byte by byte.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Folds in a count.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Folds in a float's exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds in an optional float; `None` and `Some` never collide.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u64(0),
            Some(x) => {
                self.u64(1);
                self.f64(x);
            }
        }
    }

    /// Folds in a flag.
    pub fn bool(&mut self, v: bool) {
        self.u64(u64::from(v));
    }

    /// The hash so far.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinguishes_bit_patterns_and_order() {
        let mut a = Digest::new();
        a.f64(0.0);
        let mut b = Digest::new();
        b.f64(-0.0);
        assert_ne!(a.value(), b.value());

        let (mut c, mut d) = (Digest::new(), Digest::new());
        c.u64(1);
        c.u64(2);
        d.u64(2);
        d.u64(1);
        assert_ne!(c.value(), d.value());

        let (mut e, mut f) = (Digest::new(), Digest::new());
        e.opt_f64(None);
        f.opt_f64(Some(0.0));
        assert_ne!(e.value(), f.value());
    }
}
