//! Golden values for keys and signatures.
//!
//! Signing is deterministic, so every public key and signature the
//! scheme emits is a pure function of its seed and message. These
//! literals pin that function: any change to the group arithmetic, the
//! nonce derivation, the challenge hash or the wire encoding shows up
//! here as a mismatch, not only as a failure to verify.

use watchmen_crypto::rng::Xoshiro256;
use watchmen_crypto::schnorr::Keypair;
use watchmen_crypto::Sha256;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn public_keys_match_golden() {
    let cases = [
        (1, 2_935_668_074_909_516_714),
        (2, 858_460_385_492_591_241),
        (42, 837_891_927_751_477_631),
    ];
    for (seed, want) in cases {
        assert_eq!(Keypair::generate(seed).public().to_u64(), want, "seed {seed}");
    }
}

#[test]
fn signatures_match_golden() {
    let keys = Keypair::generate(42);
    let m200: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
    let cases: [(&[u8], &str); 3] = [
        (b"", "004a24f4806a2d300d862285371e3ad9"),
        (&[0xab; 88], "1bd7eb2d90d48b6b1ac2cb6c74effb16"),
        (&m200, "11eaa274dd69c1f01d459600d3241e7c"),
    ];
    for (msg, want) in cases {
        assert_eq!(hex(&keys.sign(msg).to_bytes()), want, "{}-byte message", msg.len());
    }
}

/// 512 random keys each sign one random message; the SHA-256 of every
/// public key and signature in order is pinned.
#[test]
fn many_keys_and_signatures_match_golden_digest() {
    let mut rng = Xoshiro256::new(2013);
    let mut h = Sha256::new();
    for _ in 0..512 {
        let keys = Keypair::generate(rng.next_u64());
        let len = rng.next_range(200);
        let msg: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        h.update(&keys.public().to_u64().to_be_bytes());
        h.update(&keys.sign(&msg).to_bytes());
    }
    assert_eq!(
        hex(&h.finalize()),
        "530df13d6301553e3b9fb948320d7093fe8be087146ba1e473c6f12d47c46cd0"
    );
}
