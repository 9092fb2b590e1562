//! Modular arithmetic over any 64-bit modulus.
//!
//! All values fit in `u64`; products use `u128` intermediates so no
//! multi-precision arithmetic is needed. [`crate::schnorr`] uses these
//! helpers for its one reduction mod `q` and checks its own arithmetic,
//! which is specialised to the fixed modulus `p`, against them.

/// `(a + b) mod m`.
///
/// # Panics
///
/// Panics in debug builds if `m == 0` or either operand is `≥ m`.
#[must_use]
pub fn add_mod(a: u64, b: u64, m: u64) -> u64 {
    debug_assert!(m > 0 && a < m && b < m);
    let s = (a as u128 + b as u128) % m as u128;
    s as u64
}

/// `(a - b) mod m`.
///
/// # Panics
///
/// Panics in debug builds if `m == 0` or either operand is `≥ m`.
#[must_use]
pub fn sub_mod(a: u64, b: u64, m: u64) -> u64 {
    debug_assert!(m > 0 && a < m && b < m);
    if a >= b {
        a - b
    } else {
        m - (b - a)
    }
}

/// `(a * b) mod m` using a 128-bit intermediate.
///
/// # Panics
///
/// Panics in debug builds if `m == 0`.
#[must_use]
pub fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    debug_assert!(m > 0);
    ((a as u128 * b as u128) % m as u128) as u64
}

/// `base^exp mod m` by square-and-multiply.
///
/// `0^0` is defined as `1`.
///
/// # Panics
///
/// Panics in debug builds if `m == 0`.
#[must_use]
pub fn pow_mod(base: u64, mut exp: u64, m: u64) -> u64 {
    debug_assert!(m > 0);
    if m == 1 {
        return 0;
    }
    let mut result: u64 = 1;
    let mut base = base % m;
    while exp > 0 {
        if exp & 1 == 1 {
            result = mul_mod(result, base, m);
        }
        base = mul_mod(base, base, m);
        exp >>= 1;
    }
    result
}

/// Deterministic Miller–Rabin primality test, exact for all `u64` inputs
/// (uses the first twelve primes as witnesses, sufficient below `3.3·10^24`).
///
/// # Examples
///
/// ```
/// use watchmen_crypto::field::is_prime;
/// assert!(is_prime(2305843009213697249));
/// assert!(!is_prime(1 << 40));
/// ```
#[must_use]
pub fn is_prime(n: u64) -> bool {
    const WITNESSES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
    if n < 2 {
        return false;
    }
    for &p in &WITNESSES {
        if n.is_multiple_of(p) {
            return n == p;
        }
    }
    let mut d = n - 1;
    let mut r = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        r += 1;
    }
    'witness: for &a in &WITNESSES {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schnorr::{GENERATOR, GROUP_ORDER, MODULUS};

    #[test]
    fn add_sub_roundtrip() {
        let m = 97;
        for a in 0..m {
            for b in 0..m {
                assert_eq!(sub_mod(add_mod(a, b, m), b, m), a);
            }
        }
    }

    #[test]
    fn mul_mod_large_operands() {
        let m = u64::MAX - 58; // large prime
        let a = m - 1;
        assert_eq!(mul_mod(a, a, m), 1); // (-1)^2 = 1
    }

    #[test]
    fn pow_mod_small_cases() {
        assert_eq!(pow_mod(2, 10, 1_000_000), 1024);
        assert_eq!(pow_mod(0, 0, 7), 1);
        assert_eq!(pow_mod(5, 0, 7), 1);
        assert_eq!(pow_mod(5, 1, 7), 5);
        assert_eq!(pow_mod(7, 3, 1), 0);
    }

    #[test]
    fn fermat_little_theorem() {
        let p = 1_000_000_007u64;
        for a in [2u64, 42, 999_999_999] {
            assert_eq!(pow_mod(a, p - 1, p), 1);
        }
    }

    #[test]
    fn primality_known_values() {
        assert!(is_prime(2));
        assert!(is_prime(3));
        assert!(!is_prime(0));
        assert!(!is_prime(1));
        assert!(!is_prime(4));
        assert!(is_prime(1_000_000_007));
        assert!(!is_prime(1_000_000_007u64 * 3));
        // Strong pseudoprime to base 2: 3215031751 = 151 × 751 × 28351.
        assert!(!is_prime(3_215_031_751));
    }

    #[test]
    fn schnorr_group_parameters_are_sound() {
        // The hardcoded group: p = 2q + 1, both prime, g of order q.
        assert!(is_prime(MODULUS));
        assert!(is_prime(GROUP_ORDER));
        assert_eq!(MODULUS, 2 * GROUP_ORDER + 1);
        assert_eq!(pow_mod(GENERATOR, GROUP_ORDER, MODULUS), 1);
        assert_ne!(pow_mod(GENERATOR, 1, MODULUS), 1);
    }
}
