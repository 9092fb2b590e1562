//! Randomized property tests for the crypto crate, driven by its own
//! deterministic [`Xoshiro256`] generator.

use watchmen_crypto::field::{add_mod, mul_mod, pow_mod, sub_mod};
use watchmen_crypto::rng::Xoshiro256;
use watchmen_crypto::schnorr::{
    pow_generator, pow_mod_p, Keypair, PublicKey, Signature, GENERATOR, GROUP_ORDER, MODULUS,
};
use watchmen_crypto::sha256;

const P: u64 = 1_000_000_007;
const CASES: usize = 256;

fn bytes_of(rng: &mut Xoshiro256, min: u64, max: u64) -> Vec<u8> {
    let n = min + rng.next_range(max - min);
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn field_add_sub_inverse() {
    let mut rng = Xoshiro256::new(21);
    for _ in 0..CASES {
        let (a, b) = (rng.next_range(P), rng.next_range(P));
        assert_eq!(sub_mod(add_mod(a, b, P), b, P), a);
        assert_eq!(add_mod(sub_mod(a, b, P), b, P), a);
    }
}

#[test]
fn field_mul_commutes_and_distributes() {
    let mut rng = Xoshiro256::new(22);
    for _ in 0..CASES {
        let (a, b, c) = (rng.next_range(P), rng.next_range(P), rng.next_range(P));
        assert_eq!(mul_mod(a, b, P), mul_mod(b, a, P));
        let left = mul_mod(a, add_mod(b, c, P), P);
        let right = add_mod(mul_mod(a, b, P), mul_mod(a, c, P), P);
        assert_eq!(left, right);
    }
}

#[test]
fn field_pow_laws() {
    let mut rng = Xoshiro256::new(23);
    for _ in 0..CASES {
        let a = 1 + rng.next_range(P - 1);
        let x = rng.next_range(1000);
        let y = rng.next_range(1000);
        let lhs = pow_mod(a, x + y, P);
        let rhs = mul_mod(pow_mod(a, x, P), pow_mod(a, y, P), P);
        assert_eq!(lhs, rhs);
    }
}

#[test]
fn sha256_deterministic_and_sensitive() {
    let mut rng = Xoshiro256::new(25);
    for _ in 0..64 {
        let data = bytes_of(&mut rng, 0, 300);
        assert_eq!(sha256(&data), sha256(&data));
        if !data.is_empty() {
            let mut flipped = data.clone();
            flipped[0] ^= 1;
            assert_ne!(sha256(&data), sha256(&flipped));
        }
    }
}

#[test]
fn schnorr_roundtrip() {
    let mut rng = Xoshiro256::new(27);
    for _ in 0..64 {
        let keys = Keypair::generate(rng.next_u64());
        let msg = bytes_of(&mut rng, 0, 200);
        let sig = keys.sign(&msg);
        assert!(keys.public().verify(&msg, &sig));
    }
}

#[test]
fn schnorr_rejects_bit_flips() {
    let mut rng = Xoshiro256::new(28);
    for _ in 0..64 {
        let keys = Keypair::generate(rng.next_u64());
        let msg = bytes_of(&mut rng, 1, 100);
        let bit = rng.next_range(8);
        let sig = keys.sign(&msg);
        let mut tampered = msg.clone();
        tampered[0] ^= 1 << bit;
        assert!(!keys.public().verify(&tampered, &sig));
    }
}

#[test]
fn schnorr_signature_encoding_roundtrip() {
    let mut rng = Xoshiro256::new(29);
    for _ in 0..64 {
        let seed = rng.next_u64();
        let msg = bytes_of(&mut rng, 0, 50);
        let sig = Keypair::generate(seed).sign(&msg);
        assert_eq!(Signature::from_bytes(&sig.to_bytes()), Some(sig));
    }
}

#[test]
fn schnorr_pubkey_encoding_roundtrip() {
    let mut rng = Xoshiro256::new(30);
    for _ in 0..CASES {
        let pk = Keypair::generate(rng.next_u64()).public();
        assert_eq!(PublicKey::from_u64(pk.to_u64()), Some(pk));
    }
}

/// Exponents every fast path must get right: the identity, the group
/// order and its neighbour, and a power of two past `q`.
const EDGE_EXPONENTS: [u64; 5] = [0, 1, GROUP_ORDER - 1, GROUP_ORDER, 1 << 62];

/// Random exponents of every length from 1 to 64 bits, then the edges.
fn exponents(rng: &mut Xoshiro256) -> Vec<u64> {
    let mut out: Vec<u64> = (0..CASES).map(|i| rng.next_u64() >> (i % 64)).collect();
    out.extend(EDGE_EXPONENTS);
    out.push(u64::MAX);
    out
}

#[test]
fn generator_table_matches_pow_mod() {
    let mut rng = Xoshiro256::new(34);
    for e in exponents(&mut rng) {
        assert_eq!(pow_generator(e), pow_mod(GENERATOR, e, MODULUS), "g^{e}");
    }
}

#[test]
fn montgomery_pow_matches_pow_mod() {
    let mut rng = Xoshiro256::new(35);
    let mut bases: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
    bases.extend([0, 1, 2, GENERATOR, MODULUS - 1, MODULUS, MODULUS + 1, u64::MAX]);
    for x in bases {
        for e in exponents(&mut rng) {
            assert_eq!(pow_mod_p(x, e), pow_mod(x, e, MODULUS), "{x}^{e}");
        }
    }
}

#[test]
fn public_key_decoding_matches_reference_check() {
    let reference = |x: u64| x > 1 && x < MODULUS && pow_mod(x, GROUP_ORDER, MODULUS) == 1;
    let mut rng = Xoshiro256::new(36);
    let mut values =
        vec![0, 1, 2, MODULUS - 1, MODULUS, MODULUS + 1, MODULUS - GENERATOR, u64::MAX];
    for _ in 0..CASES {
        let x = rng.next_u64();
        // Raw u64s are mostly `≥ p`; residues of p are half in the
        // subgroup; squares all are.
        values.extend([x, x % MODULUS, mul_mod(x, x, MODULUS)]);
    }
    let accepted = values.iter().filter(|&&x| reference(x)).count();
    assert!(accepted > CASES && accepted < values.len() - CASES, "both branches: {accepted}");
    for x in values {
        assert_eq!(PublicKey::from_u64(x).is_some(), reference(x), "x = {x}");
    }
}

#[test]
fn out_of_range_flipped_and_foreign_signatures_are_rejected() {
    let mut rng = Xoshiro256::new(37);
    for _ in 0..64 {
        let keys = Keypair::generate(rng.next_u64());
        let other = Keypair::generate(rng.next_u64());
        let msg = bytes_of(&mut rng, 1, 100);
        let sig = keys.sign(&msg);
        let bytes = sig.to_bytes();
        let (e, s) = (&bytes[..8], &bytes[8..]);
        assert!(keys.public().verify(&msg, &sig));
        assert!(!other.public().verify(&msg, &sig), "wrong key");

        let mut flipped = msg.clone();
        let bit = rng.next_range(msg.len() as u64 * 8);
        flipped[(bit / 8) as usize] ^= 1 << (bit % 8);
        assert!(!keys.public().verify(&flipped, &sig), "flipped bit {bit}");

        // `e ≥ q` or `s ≥ q` never decodes, so no caller can present one.
        for big in [GROUP_ORDER, GROUP_ORDER + 1 + rng.next_range(u64::MAX - GROUP_ORDER)] {
            let mut bad_e = [0u8; 16];
            bad_e[..8].copy_from_slice(&big.to_be_bytes());
            bad_e[8..].copy_from_slice(s);
            let mut bad_s = [0u8; 16];
            bad_s[..8].copy_from_slice(e);
            bad_s[8..].copy_from_slice(&big.to_be_bytes());
            assert_eq!(Signature::from_bytes(&bad_e), None);
            assert_eq!(Signature::from_bytes(&bad_s), None);
        }
    }
}

#[test]
fn rng_range_respects_bound() {
    let mut outer = Xoshiro256::new(31);
    for _ in 0..CASES {
        let seed = outer.next_u64();
        let bound = 1 + outer.next_range(1_000_000);
        let mut rng = Xoshiro256::new(seed);
        for _ in 0..32 {
            assert!(rng.next_range(bound) < bound);
        }
    }
}

#[test]
fn rng_same_seed_same_stream() {
    let mut outer = Xoshiro256::new(32);
    for _ in 0..CASES {
        let seed = outer.next_u64();
        let stream = outer.next_u64();
        let mut a = Xoshiro256::seed_from(seed, stream);
        let mut b = Xoshiro256::seed_from(seed, stream);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}

#[test]
fn scalars_in_range() {
    let mut rng = Xoshiro256::new(33);
    for _ in 0..64 {
        let seed = rng.next_u64();
        let msg = bytes_of(&mut rng, 0, 30);
        let sig = Keypair::generate(seed).sign(&msg);
        let bytes = sig.to_bytes();
        let e = u64::from_be_bytes(bytes[..8].try_into().unwrap());
        let s = u64::from_be_bytes(bytes[8..].try_into().unwrap());
        assert!(e < GROUP_ORDER && s < GROUP_ORDER);
    }
}
