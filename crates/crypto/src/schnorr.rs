//! Lightweight Schnorr signatures over a 63-bit safe-prime group.
//!
//! The paper signs every forwarded message with a ~100-bit "lightweight
//! digital signature" so that proxies cannot tamper, replay or spoof. This
//! module provides the equivalent: 16-byte signatures that take about
//! 1.4 µs to sign and 1.2 µs to verify on a 2-vCPU x86-64 VM (the
//! `micro_kernels` bench) — negligible against the 50 ms frame budget.
//! Two SHA-256 hashes are most of a signature and one is most of a
//! verify.
//!
//! The group is the order-`q` subgroup of quadratic residues of
//! `Z_p*` for the safe prime `p = 2q + 1` below; the generator is `g = 4`.
//! See the crate-level security disclaimer: 63-bit moduli are a research
//! stand-in, not real-world security.
//!
//! # Arithmetic
//!
//! Every exponentiation mod `p` runs in Montgomery form with `R = 2^64`,
//! so a multiplication is three integer multiplies and a shift instead of
//! a 128-bit division. Powers of `g` come from a fixed-base table that the
//! compiler builds (eight 8-bit windows, seven multiplications per power);
//! other bases use right-to-left square-and-multiply. Only the arithmetic
//! is specialised: keys, nonces, hashes and encodings are those of the
//! textbook scheme, and [`crate::field::pow_mod`] computes the same values.

use std::fmt;

use crate::field::{add_mod, mul_mod};
use crate::rng::Xoshiro256;
use crate::sha256::Sha256;

/// The safe prime `p` (63 bits): `p = 2q + 1`.
pub const MODULUS: u64 = 4_611_686_018_427_394_499;
/// The prime group order `q = (p - 1) / 2`.
pub const GROUP_ORDER: u64 = 2_305_843_009_213_697_249;
/// The subgroup generator `g = 4` (a quadratic residue, hence of order `q`).
pub const GENERATOR: u64 = 4;

/// Encoded signature size in bytes (two 8-byte scalars ≈ the paper's
/// "100-bit" class).
pub const SIGNATURE_LEN: usize = 16;

/// A Schnorr public key.
///
/// # Examples
///
/// ```
/// use watchmen_crypto::schnorr::Keypair;
///
/// let keys = Keypair::generate(1);
/// let pk = keys.public();
/// assert!(pk.verify(b"msg", &keys.sign(b"msg")));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey(u64);

/// A Schnorr secret key. Not `Copy`, to discourage accidental duplication.
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey(u64);

/// A keypair plus a deterministic nonce generator.
///
/// Nonces are derived per-signature from a hash of the secret key and the
/// message (deterministic signing à la RFC 6979), so no system randomness
/// is needed and signing is reproducible across simulation runs.
#[derive(Debug, Clone)]
pub struct Keypair {
    secret: SecretKey,
    public: PublicKey,
}

/// A detached signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Challenge scalar `e = H(R ‖ X ‖ m) mod q`.
    e: u64,
    /// Response scalar `s = k + x·e mod q`.
    s: u64,
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the scalar.
        f.write_str("SecretKey(<redacted>)")
    }
}

impl PublicKey {
    /// The group element as a raw scalar (for wire encoding).
    #[must_use]
    pub fn to_u64(self) -> u64 {
        self.0
    }

    /// Reconstructs a public key from its wire encoding.
    ///
    /// Returns `None` if the value is not a valid group element (zero, one,
    /// or `≥ p`).
    #[must_use]
    pub fn from_u64(x: u64) -> Option<Self> {
        (x > 1 && x < MODULUS && pow_mod_p(x, GROUP_ORDER) == 1).then_some(PublicKey(x))
    }

    /// Verifies `sig` over `message`.
    #[must_use]
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        if sig.e >= GROUP_ORDER || sig.s >= GROUP_ORDER {
            return false;
        }
        // R' = g^s · X^{-e};  X^{-e} = X^{q - e} because X has order q.
        let gs = mont_pow_generator(sig.s);
        let x_neg_e = mont_pow(to_mont(self.0), GROUP_ORDER - sig.e);
        let r = from_mont(mont_mul(gs, x_neg_e));
        challenge(r, self.0, message) == sig.e
    }
}

impl Keypair {
    /// Derives a keypair deterministically from a seed (e.g. a player id
    /// mixed with a game seed).
    #[must_use]
    pub fn generate(seed: u64) -> Self {
        let mut rng = Xoshiro256::seed_from(seed, 0x5ee5_c0de);
        // x ∈ [1, q)
        let x = 1 + rng.next_range(GROUP_ORDER - 1);
        Keypair::from_secret_scalar(x)
    }

    /// Builds a keypair from a raw secret scalar, reducing it into `[1, q)`.
    #[must_use]
    pub fn from_secret_scalar(x: u64) -> Self {
        let x = 1 + (x % (GROUP_ORDER - 1));
        let public = PublicKey(pow_generator(x));
        Keypair { secret: SecretKey(x), public }
    }

    /// The public half.
    #[must_use]
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Signs `message` with a deterministic per-message nonce.
    #[must_use]
    pub fn sign(&self, message: &[u8]) -> Signature {
        // k = H("nonce" ‖ x ‖ m) mod (q-1) + 1, never zero.
        let mut h = Sha256::new();
        h.update(b"watchmen-nonce-v1");
        h.update(&self.secret.0.to_be_bytes());
        h.update(message);
        let digest = h.finalize();
        let k =
            1 + (u64::from_be_bytes(digest[..8].try_into().expect("8 bytes")) % (GROUP_ORDER - 1));
        let r = pow_generator(k);
        let e = challenge(r, self.public.0, message);
        let s = add_mod(k, mul_mod(self.secret.0, e, GROUP_ORDER), GROUP_ORDER);
        Signature { e, s }
    }
}

impl Signature {
    /// Encodes the signature into 16 bytes.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; SIGNATURE_LEN] {
        let mut out = [0u8; SIGNATURE_LEN];
        out[..8].copy_from_slice(&self.e.to_be_bytes());
        out[8..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Decodes a signature from its 16-byte encoding.
    ///
    /// Returns `None` if either scalar is out of range.
    #[must_use]
    pub fn from_bytes(bytes: &[u8; SIGNATURE_LEN]) -> Option<Self> {
        let e = u64::from_be_bytes(bytes[..8].try_into().expect("8 bytes"));
        let s = u64::from_be_bytes(bytes[8..].try_into().expect("8 bytes"));
        (e < GROUP_ORDER && s < GROUP_ORDER).then_some(Signature { e, s })
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig(e={:016x}, s={:016x})", self.e, self.s)
    }
}

/// Fiat–Shamir challenge `H(R ‖ X ‖ m) mod q`.
fn challenge(r: u64, public: u64, message: &[u8]) -> u64 {
    let mut h = Sha256::new();
    h.update(b"watchmen-schnorr-v1");
    h.update(&r.to_be_bytes());
    h.update(&public.to_be_bytes());
    h.update(message);
    let digest = h.finalize();
    u64::from_be_bytes(digest[..8].try_into().expect("8 bytes")) % GROUP_ORDER
}

/// `g^e mod p`, from the compile-time fixed-base table.
///
/// # Examples
///
/// ```
/// use watchmen_crypto::field::pow_mod;
/// use watchmen_crypto::schnorr::{pow_generator, GENERATOR, MODULUS};
///
/// assert_eq!(pow_generator(12345), pow_mod(GENERATOR, 12345, MODULUS));
/// ```
#[must_use]
pub fn pow_generator(e: u64) -> u64 {
    from_mont(mont_pow_generator(e))
}

/// `x^e mod p`, by Montgomery square-and-multiply. `0^0` is `1`, as in
/// [`crate::field::pow_mod`].
#[must_use]
pub fn pow_mod_p(x: u64, e: u64) -> u64 {
    from_mont(mont_pow(to_mont(x), e))
}

/// `-p^{-1} mod 2^64`, by Newton iteration: each step doubles the number
/// of correct low bits, and `p·p ≡ 1 (mod 8)` starts with three.
const P_NEG_INV: u64 = {
    let mut inv = MODULUS;
    let mut i = 0;
    while i < 5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(MODULUS.wrapping_mul(inv)));
        i += 1;
    }
    inv.wrapping_neg()
};

/// `R mod p`: the Montgomery form of 1.
const MONT_ONE: u64 = ((1u128 << 64) % MODULUS as u128) as u64;

/// `R^2 mod p`, which [`to_mont`] multiplies by.
const R2: u64 = ((MONT_ONE as u128 * MONT_ONE as u128) % MODULUS as u128) as u64;

// `redc` adds `m·p < 2^64·p` to a `t < p·2^64`; below 2^63 the sum fits
// in a `u128`.
const _: () = assert!(MODULUS < 1 << 63);

/// Montgomery reduction: `t·R^{-1} mod p`, fully reduced, for any
/// `t < p·R`. The low 64 bits of `t + m·p` are zero by the choice of `m`,
/// and the high half is below `2p`, so one conditional subtract suffices.
const fn redc(t: u128) -> u64 {
    let m = (t as u64).wrapping_mul(P_NEG_INV);
    let u = ((t + m as u128 * MODULUS as u128) >> 64) as u64;
    if u >= MODULUS {
        u - MODULUS
    } else {
        u
    }
}

/// The Montgomery product `a·b·R^{-1} mod p` of two values below `p`.
const fn mont_mul(a: u64, b: u64) -> u64 {
    redc(a as u128 * b as u128)
}

/// `x·R mod p` for any `u64` x (`x·R^2 < p·R` holds without reducing x).
const fn to_mont(x: u64) -> u64 {
    redc(x as u128 * R2 as u128)
}

/// `xm·R^{-1} mod p`: back from Montgomery form.
const fn from_mont(xm: u64) -> u64 {
    redc(xm as u128)
}

/// `xm^e` for `xm` in Montgomery form, right to left: the squarings of
/// the base and the products into the accumulator are two dependency
/// chains that the CPU overlaps, so a power costs about its squarings.
fn mont_pow(mut xm: u64, mut e: u64) -> u64 {
    let mut acc = MONT_ONE;
    while e > 0 {
        if e & 1 == 1 {
            acc = mont_mul(acc, xm);
        }
        xm = mont_mul(xm, xm);
        e >>= 1;
    }
    acc
}

/// Bits per window of the fixed-base table.
const WINDOW_BITS: u32 = 8;
/// Windows needed to cover a 64-bit exponent.
const WINDOWS: usize = (u64::BITS / WINDOW_BITS) as usize;
/// Entries per window.
const WINDOW_SIZE: usize = 1 << WINDOW_BITS;

/// `G_TABLE[w][d] = g^(d·2^(8w))` in Montgomery form: 16 KB, built by the
/// compiler.
static G_TABLE: [[u64; WINDOW_SIZE]; WINDOWS] = {
    let mut table = [[0u64; WINDOW_SIZE]; WINDOWS];
    // g^(2^(8w)) in Montgomery form for the current window w.
    let mut base = to_mont(GENERATOR);
    let mut w = 0;
    while w < WINDOWS {
        table[w][0] = MONT_ONE;
        let mut d = 1;
        while d < WINDOW_SIZE {
            table[w][d] = mont_mul(table[w][d - 1], base);
            d += 1;
        }
        base = mont_mul(table[w][WINDOW_SIZE - 1], base);
        w += 1;
    }
    table
};

/// `g^e` in Montgomery form: one table entry per window of `e`.
fn mont_pow_generator(e: u64) -> u64 {
    let digit = |w: usize| (e >> (WINDOW_BITS as usize * w)) as usize & (WINDOW_SIZE - 1);
    let mut acc = G_TABLE[0][digit(0)];
    for (w, row) in G_TABLE.iter().enumerate().skip(1) {
        acc = mont_mul(acc, row[digit(w)]);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{pow_mod, sub_mod};

    #[test]
    fn montgomery_constants() {
        assert_eq!(MODULUS.wrapping_mul(P_NEG_INV), u64::MAX, "p·(-p^-1) = -1 mod 2^64");
        assert_eq!(MONT_ONE, pow_mod(2, 64, MODULUS));
        assert_eq!(R2, pow_mod(2, 128, MODULUS));
        assert_eq!(from_mont(to_mont(MODULUS - 1)), MODULUS - 1);
        assert_eq!(G_TABLE[0][1], to_mont(GENERATOR));
        let top = (WINDOWS - 1) as u64 * WINDOW_BITS as u64;
        assert_eq!(from_mont(G_TABLE[WINDOWS - 1][1]), pow_mod(GENERATOR, 1 << top, MODULUS));
    }

    #[test]
    fn sign_verify_roundtrip() {
        let keys = Keypair::generate(42);
        for msg in [&b"a"[..], b"hello world", b"", &[0u8; 500]] {
            let sig = keys.sign(msg);
            assert!(keys.public().verify(msg, &sig));
        }
    }

    #[test]
    fn tampered_message_rejected() {
        let keys = Keypair::generate(1);
        let sig = keys.sign(b"position: (1, 2, 3)");
        assert!(!keys.public().verify(b"position: (9, 2, 3)", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let alice = Keypair::generate(1);
        let mallory = Keypair::generate(2);
        let sig = alice.sign(b"msg");
        assert!(!mallory.public().verify(b"msg", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let keys = Keypair::generate(3);
        let sig = keys.sign(b"msg");
        let bad_e = Signature { e: sub_mod(sig.e, 1, GROUP_ORDER), ..sig };
        let bad_s = Signature { s: add_mod(sig.s, 1 % GROUP_ORDER, GROUP_ORDER), ..sig };
        assert!(!keys.public().verify(b"msg", &bad_e));
        assert!(!keys.public().verify(b"msg", &bad_s));
    }

    #[test]
    fn out_of_range_scalars_rejected() {
        // The range check, not the arithmetic, must reject these: with
        // `e = q` the exponent `q - e` is 0, and `s` is only meaningful
        // mod q.
        let keys = Keypair::generate(4);
        let good = keys.sign(b"msg");
        for big in [GROUP_ORDER, GROUP_ORDER + 1, u64::MAX] {
            assert!(!keys.public().verify(b"msg", &Signature { e: big, ..good }));
            assert!(!keys.public().verify(b"msg", &Signature { s: big, ..good }));
        }
        // s + q is the same exponent of g as s.
        assert!(!keys.public().verify(b"msg", &Signature { s: good.s + GROUP_ORDER, ..good }));
    }

    #[test]
    fn signing_is_deterministic() {
        let keys = Keypair::generate(5);
        assert_eq!(keys.sign(b"m"), keys.sign(b"m"));
        assert_ne!(keys.sign(b"m"), keys.sign(b"n"));
    }

    #[test]
    fn encoding_roundtrip() {
        let keys = Keypair::generate(6);
        let sig = keys.sign(b"encode me");
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), SIGNATURE_LEN);
        assert_eq!(Signature::from_bytes(&bytes), Some(sig));
        // Invalid scalars refuse to decode.
        let mut bad = bytes;
        bad[..8].copy_from_slice(&u64::MAX.to_be_bytes());
        assert_eq!(Signature::from_bytes(&bad), None);
    }

    #[test]
    fn public_key_encoding_roundtrip() {
        let keys = Keypair::generate(7);
        let pk = keys.public();
        assert_eq!(PublicKey::from_u64(pk.to_u64()), Some(pk));
        assert_eq!(PublicKey::from_u64(0), None);
        assert_eq!(PublicKey::from_u64(1), None);
        assert_eq!(PublicKey::from_u64(MODULUS), None);
        // A non-residue is not in the subgroup. g is a QR; p - g is not
        // (since -1 is a non-residue mod a safe prime p ≡ 3 mod 4).
        assert_eq!(PublicKey::from_u64(MODULUS - GENERATOR), None);
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        let a = Keypair::generate(100);
        let b = Keypair::generate(101);
        assert_ne!(a.public(), b.public());
    }

    #[test]
    fn secret_key_debug_is_redacted() {
        let keys = Keypair::generate(8);
        let dbg = format!("{keys:?}");
        assert!(dbg.contains("redacted"));
    }
}
