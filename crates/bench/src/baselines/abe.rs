//! ABE cost model for the §6.2 access-control comparison.
//!
//! The paper compares TimeCrypt's crypto-based access against Attribute-
//! Based Encryption (Sieve-style CP-ABE with the chunk counter as an
//! attribute). ABE needs a pairing library; rather than pull one in, this
//! module *replays the paper's own measured constants* — which is also what
//! the paper does for the comparison ("This results in an overhead of 53 ms
//! per chunk (80-bit security), considering only one attribute", "to
//! decrypt, ABE requires 13 ms per chunk"). The TimeCrypt side of the
//! comparison is measured for real; see DESIGN.md §5.

use std::time::Duration;

/// Published per-chunk ABE costs (80-bit security, one attribute).
#[derive(Debug, Clone, Copy)]
pub struct AbeCostModel {
    /// Granting access to one chunk (key attribute setup + re-protection).
    pub grant_per_chunk: Duration,
    /// Decrypting one chunk.
    pub decrypt_per_chunk: Duration,
    /// Per-attribute growth factor ("expected to increase linearly with
    /// more attributes").
    pub per_attribute: f64,
}

impl Default for AbeCostModel {
    fn default() -> Self {
        AbeCostModel {
            grant_per_chunk: Duration::from_millis(53),
            decrypt_per_chunk: Duration::from_millis(13),
            per_attribute: 1.0,
        }
    }
}

impl AbeCostModel {
    /// Modeled time to grant access to `chunks` chunks with `attributes`
    /// attributes each.
    pub fn grant_cost(&self, chunks: u64, attributes: u32) -> Duration {
        self.grant_per_chunk
            .mul_f64(chunks as f64 * self.per_attribute * attributes as f64)
    }

    /// Modeled time to decrypt `chunks` chunks.
    pub fn decrypt_cost(&self, chunks: u64) -> Duration {
        self.decrypt_per_chunk.mul_f64(chunks as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let m = AbeCostModel::default();
        assert_eq!(m.grant_cost(1, 1), Duration::from_millis(53));
        assert_eq!(m.decrypt_cost(1), Duration::from_millis(13));
    }

    #[test]
    fn linear_scaling() {
        let m = AbeCostModel::default();
        assert_eq!(m.grant_cost(100, 1), Duration::from_millis(5300));
        assert_eq!(m.grant_cost(10, 2), m.grant_cost(20, 1));
        assert_eq!(m.decrypt_cost(1000), Duration::from_millis(13_000));
    }
}
