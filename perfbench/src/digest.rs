//! A digest of every deterministic output of a run.
//!
//! Per-query latency, tuning and answer ids, and every count metric, are
//! folded in with 64-bit FNV-1a. Two builds that simulate the same
//! behaviour print the same digest for the same workload and seed.

/// Incremental FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in a number.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds in a length-prefixed id list.
    pub fn ids(&mut self, ids: &[u32]) {
        self.u64(ids.len() as u64);
        for &id in ids {
            self.bytes(&id.to_le_bytes());
        }
    }

    /// Folds in a named count metric (its exact bits).
    pub fn count(&mut self, name: &str, v: f64) {
        self.bytes(name.as_bytes());
        self.u64(v.to_bits());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_reference_values() {
        assert_eq!(Digest::default().hex(), "cbf29ce484222325");
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.hex(), "af63dc4c8601ec8c");
    }

    #[test]
    fn order_and_boundaries_matter() {
        let digest = |lists: &[&[u32]]| {
            let mut d = Digest::default();
            for l in lists {
                d.ids(l);
            }
            d.hex()
        };
        assert_ne!(digest(&[&[1, 2], &[3]]), digest(&[&[1], &[2, 3]]));
        assert_ne!(digest(&[&[1, 2]]), digest(&[&[2, 1]]));
        assert_eq!(digest(&[&[1, 2]]), digest(&[&[1, 2]]));
    }
}
