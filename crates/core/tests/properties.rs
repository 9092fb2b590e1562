//! Randomized property tests for the core architecture's invariants,
//! driven by the workspace's deterministic [`Xoshiro256`] generator.

use watchmen_core::msg::{
    Envelope, HandoffNotice, KillClaim, Payload, PositionUpdate, SignedEnvelope, StateUpdate,
};
use watchmen_core::proxy::ProxySchedule;
use watchmen_core::rating::{rate_deviation, CheatRating, Confidence};
use watchmen_core::subscription::SetKind;
use watchmen_crypto::rng::Xoshiro256;
use watchmen_crypto::schnorr::Keypair;
use watchmen_game::{PlayerId, WeaponKind};
use watchmen_math::{Aim, Vec3};
use watchmen_telemetry::TraceId;

const CASES: usize = 128;

fn f64_in(rng: &mut Xoshiro256, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

fn arb_vec3(rng: &mut Xoshiro256) -> Vec3 {
    Vec3::new(f64_in(rng, -1e4, 1e4), f64_in(rng, -1e4, 1e4), f64_in(rng, -1e4, 1e4))
}

fn arb_weapon(rng: &mut Xoshiro256) -> WeaponKind {
    match rng.next_range(4) {
        0 => WeaponKind::MachineGun,
        1 => WeaponKind::Shotgun,
        2 => WeaponKind::RocketLauncher,
        _ => WeaponKind::Railgun,
    }
}

fn arb_state(rng: &mut Xoshiro256) -> StateUpdate {
    StateUpdate {
        position: arb_vec3(rng),
        velocity: arb_vec3(rng),
        aim: Aim::new(f64_in(rng, -3.1, 3.1), f64_in(rng, -1.5, 1.5)),
        health: rng.next_range(200) as i32,
        armor: rng.next_range(100) as i32,
        weapon: arb_weapon(rng),
        ammo: rng.next_range(1000) as u32,
    }
}

fn arb_payload(rng: &mut Xoshiro256) -> Payload {
    match rng.next_range(5) {
        0 => Payload::State(arb_state(rng)),
        1 => Payload::Position(PositionUpdate { position: arb_vec3(rng) }),
        2 => Payload::Subscribe {
            target: PlayerId(rng.next_range(64) as u32),
            kind: if rng.next_bool(0.5) { SetKind::Interest } else { SetKind::Vision },
        },
        3 => Payload::Kill(KillClaim {
            victim: PlayerId(rng.next_range(64) as u32),
            weapon: arb_weapon(rng),
            attacker_position: arb_vec3(rng),
            victim_position: arb_vec3(rng),
        }),
        _ => {
            let mut digest = [0u8; 32];
            for b in &mut digest {
                *b = rng.next_u64() as u8;
            }
            Payload::Handoff(HandoffNotice {
                player: PlayerId(rng.next_range(64) as u32),
                epoch: rng.next_range(100),
                observed_frame: rng.next_range(10_000),
                last_state: arb_state(rng),
                worst_rating: 1 + rng.next_range(10) as u8,
                updates_seen: rng.next_range(100) as u32,
                predecessor_digest: digest,
            })
        }
    }
}

#[test]
fn envelope_codec_roundtrips() {
    let mut rng = Xoshiro256::new(41);
    for _ in 0..CASES {
        let env = Envelope {
            from: PlayerId(rng.next_range(64) as u32),
            seq: rng.next_u64(),
            frame: rng.next_u64(),
            payload: arb_payload(&mut rng),
        };
        assert_eq!(Envelope::decode(&env.encode()).unwrap(), env);
    }
}

#[test]
fn signed_envelope_roundtrips_and_verifies() {
    let mut rng = Xoshiro256::new(42);
    for _ in 0..32 {
        let keys = Keypair::generate(rng.next_u64());
        let payload = arb_payload(&mut rng);
        let signed = Envelope { from: PlayerId(1), seq: 1, frame: 1, payload }.sign(&keys);
        let decoded = SignedEnvelope::decode(&signed.encode()).unwrap();
        assert_eq!(decoded, signed);
        assert!(decoded.verify(&keys.public()));
    }
}

#[test]
fn envelope_decoder_never_panics_on_garbage() {
    let mut rng = Xoshiro256::new(43);
    for _ in 0..CASES {
        let n = rng.next_range(300);
        let bytes: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        let _ = Envelope::decode(&bytes);
        let _ = SignedEnvelope::decode(&bytes);
    }
}

#[test]
fn bitflip_always_breaks_signature() {
    let mut rng = Xoshiro256::new(44);
    for _ in 0..32 {
        let keys = Keypair::generate(rng.next_u64());
        let payload = arb_payload(&mut rng);
        let signed = Envelope { from: PlayerId(2), seq: 9, frame: 9, payload }.sign(&keys);
        let mut bytes = signed.encode();
        let idx = ((bytes.len() - 17) as f64 * rng.next_f64()) as usize; // within envelope
        bytes[idx] ^= 1 << rng.next_range(8);
        // Structural rejection (a decode error) is also acceptable.
        if let Ok(tampered) = SignedEnvelope::decode(&bytes) {
            assert!(!tampered.verify(&keys.public()));
        }
    }
}

#[test]
fn proxy_schedule_uniformity_rough() {
    let mut rng = Xoshiro256::new(47);
    for _ in 0..16 {
        let seed = rng.next_u64();
        let players = 4 + rng.next_range(20) as usize;
        let s = ProxySchedule::new(seed, players, 40);
        let target = PlayerId(0);
        let mut counts = vec![0u32; players];
        let epochs = 400u64;
        for e in 0..epochs {
            counts[s.proxy_of(target, e * 40).index()] += 1;
        }
        assert_eq!(counts[0], 0);
        let expected = epochs as f64 / (players - 1) as f64;
        for (i, &c) in counts.iter().enumerate().skip(1) {
            assert!(
                (c as f64) < expected * 3.0 + 10.0,
                "player {i} drawn {c} times (expected ~{expected})"
            );
        }
    }
}

#[test]
fn rate_deviation_monotone_in_deviation() {
    let mut rng = Xoshiro256::new(48);
    for _ in 0..CASES {
        let tolerance = f64_in(&mut rng, 0.1, 1e4);
        let a = f64_in(&mut rng, 0.0, 1e5);
        let b = f64_in(&mut rng, 0.0, 1e5);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(rate_deviation(lo, tolerance) <= rate_deviation(hi, tolerance));
    }
}

#[test]
fn trace_id_survives_encode_sign_decode_relay() {
    // The causal trace id is derived from the signed (origin, seq) pair,
    // so every hop — encode, sign, decode, and a byte-identical relay —
    // must recompute the same id the origin had.
    let mut rng = Xoshiro256::new(50);
    for _ in 0..32 {
        let keys = Keypair::generate(rng.next_u64());
        let env = Envelope {
            from: PlayerId(rng.next_range(64) as u32),
            seq: 1 + rng.next_u64() % (1 << 40),
            frame: rng.next_range(100_000),
            payload: arb_payload(&mut rng),
        };
        let origin_id = env.trace_id();
        assert!(origin_id.is_some(), "live messages always carry an id");

        let signed = env.sign(&keys);
        assert_eq!(signed.trace_id(), origin_id, "signing changes nothing");

        // First hop: the proxy decodes the wire bytes.
        let wire = signed.encode();
        let at_proxy = SignedEnvelope::decode(&wire).unwrap();
        assert_eq!(at_proxy.trace_id(), origin_id, "decode changes nothing");

        // Second hop: the proxy relays the *original* signed bytes, and
        // the subscriber decodes those.
        let relayed = at_proxy.encode();
        assert_eq!(relayed, wire, "relay forwards byte-identical frames");
        let at_subscriber = SignedEnvelope::decode(&relayed).unwrap();
        assert_eq!(at_subscriber.trace_id(), origin_id);
        assert!(at_subscriber.verify(&keys.public()), "signature survives too");
    }
}

#[test]
fn trace_id_no_collisions_in_ten_thousand_messages() {
    // 10k distinct (origin, seq) pairs across 64 players must map to 10k
    // distinct trace ids (the mix is bijective for origin < 2^24,
    // seq < 2^40).
    let mut rng = Xoshiro256::new(51);
    let mut seen = std::collections::HashSet::with_capacity(10_000);
    let mut seqs = vec![0u64; 64];
    for _ in 0..10_000 {
        let origin = rng.next_range(64) as u32;
        seqs[origin as usize] += 1;
        let id = TraceId::from_origin_seq(origin, seqs[origin as usize]);
        assert!(id.is_some());
        assert!(seen.insert(id), "collision at origin {origin} seq {}", seqs[origin as usize]);
    }
}

#[test]
fn suspicion_bounded_and_monotone_in_score() {
    let mut rng = Xoshiro256::new(49);
    for _ in 0..CASES {
        let score_a = 1 + rng.next_range(10) as u8;
        let score_b = 1 + rng.next_range(10) as u8;
        let staleness = rng.next_range(1000);
        let mk = |s| CheatRating::new(s, Confidence::Proxy, staleness).suspicion();
        let (sa, sb) = (mk(score_a), mk(score_b));
        assert!((0.0..=1.0).contains(&sa));
        if score_a <= score_b {
            assert!(sa <= sb + 1e-12);
        }
    }
}
