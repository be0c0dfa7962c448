//! The hasher behind every id-keyed map on a per-event path.

use std::hash::{BuildHasherDefault, Hasher};

/// A [`Hasher`] for maps keyed by the small integer ids the
/// orchestration core hands out (`ContainerId`, `WorkerId`,
/// `FunctionId`): one multiply and one rotate per integer written,
/// against SipHash-1-3's dozen rounds of add-rotate-xor.
///
/// The multiply (by 2⁶⁴/φ, Fibonacci hashing) only carries entropy
/// *upwards* — bit `i` of the product depends on bits `0..=i` of the
/// key — while `HashMap` takes its bucket index from the low bits of
/// the hash and its 7-bit control tag from the top. The rotate puts the
/// product's well-mixed bits 44.. under the index and bits 37..=43 under
/// the tag, so keys that differ only in high bits (ids at a stride of
/// 2⁸, 2¹⁶, 2³²) still spread over buckets and tags; a bare multiply or
/// the identity would pile them into one bucket chain.
///
/// **Not HashDoS-resistant, and it need not be.** Container and worker
/// ids are allocated by the core itself, sequentially. `FunctionId` is
/// the one key that arrives from outside (a trace CSV, a `FaasHost`
/// deployment), and there the key set is bounded by the run's own
/// function table: a trace crafted to collide slows only its author's
/// replay, and a host's functions are deployed by its operator, not by
/// its callers. Maps keyed by anything a remote party chooses keep the
/// standard library's default hasher.
///
/// The hasher is unseeded, so iteration order over such a map repeats
/// from run to run — which makes an accidental dependence on it
/// invisible to a determinism test instead of flaky. The ban on
/// walking a hash collection (DESIGN.md §8, O1) therefore matters more
/// here, not less, and it is by type: iteration over a `HashMap` or
/// `HashSet` is denied whatever its hasher and wherever the map
/// travels — through an alias, a parameter or a return value.
///
/// # Examples
///
/// ```
/// use std::collections::HashMap;
/// use faas_core::IdBuildHasher;
///
/// let mut clocks: HashMap<u64, f64, IdBuildHasher> = HashMap::default();
/// clocks.insert(7, 1.5);
/// assert_eq!(clocks.get(&7), Some(&1.5));
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

/// The [`std::hash::BuildHasher`] to name in `HashMap<K, V, IdBuildHasher>`.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// 2⁶⁴ / φ, odd.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
/// Brings product bits 44..=55 under the low 12 bits of the hash and
/// bits 37..=43 under the top 7 (see the type's docs).
const ROTATE: u32 = 20;

impl IdHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(GOLDEN).rotate_left(ROTATE);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Byte-wise fallback for keys that are not plain integers: correct
    /// for any `Hash` type, fast only for short ones.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        // usize is at most 64 bits on every supported target.
        self.mix(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(key: T) -> u64 {
        IdBuildHasher::default().hash_one(key)
    }

    /// Distinct values a uniform draw of `n` balls into `m` bins is
    /// expected to hit.
    fn uniform_distinct(n: usize, m: usize) -> f64 {
        let (n, m) = (n as f64, m as f64);
        m * (1.0 - (1.0 - 1.0 / m).powf(n))
    }

    /// `HashMap` indexes buckets with the low bits of the hash and tags
    /// them with the top seven, so both ends have to spread — also for
    /// ids that differ only in high bits, where the identity or a bare
    /// multiply leaves the low bits constant.
    #[test]
    fn low_and_top_bits_spread_at_every_stride() {
        const KEYS: usize = 10_000;
        for shift in [0u32, 8, 16, 32] {
            let hashes: Vec<u64> = (0..KEYS as u64).map(|i| hash_of(i << shift)).collect();
            let low: BTreeSet<u64> = hashes.iter().map(|h| h & 0xFFF).collect();
            let top: BTreeSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            let (want_low, want_top) =
                (uniform_distinct(KEYS, 1 << 12), uniform_distinct(KEYS, 128));
            assert!(
                low.len() as f64 >= 0.95 * want_low,
                "stride 2^{shift}: low 12 bits take {} values, a uniform draw {want_low:.0}",
                low.len()
            );
            assert!(
                top.len() as f64 >= 0.95 * want_top,
                "stride 2^{shift}: top 7 bits take {} values, a uniform draw {want_top:.0}",
                top.len()
            );
        }
    }

    #[test]
    fn every_integer_width_hashes_like_its_u64() {
        assert_eq!(hash_of(7u8), hash_of(7u64));
        assert_eq!(hash_of(7u16), hash_of(7u64));
        assert_eq!(hash_of(7u32), hash_of(7u64));
        assert_eq!(hash_of(7usize), hash_of(7u64));
        assert_ne!(hash_of(7u64), hash_of(8u64));
        assert_ne!(hash_of(0u64), hash_of(1u64 << 63));
    }

    #[test]
    fn composite_and_byte_keys_fall_back_correctly() {
        // Order matters in a tuple, and every byte of a string counts.
        assert_ne!(hash_of((1u16, 2u64)), hash_of((2u16, 1u64)));
        assert_ne!(hash_of("fn-a"), hash_of("fn-b"));
        assert_eq!(hash_of("fn-a"), hash_of(String::from("fn-a")));
    }
}
