//! Cryptographic primitives for the Watchmen reproduction.
//!
//! The paper secures proxy-forwarded traffic with "lightweight (i.e., 100
//! bits, while state update messages are 700 bits on average) digital
//! signatures", and derives every player's proxy from a pseudo-random
//! number generator that all players evaluate identically. No cryptography
//! crates are available in this offline environment, so this crate builds
//! the required primitives from scratch:
//!
//! * [`Sha256`] — FIPS 180-4 SHA-256 (verified against NIST test vectors).
//! * [`schnorr`] — Schnorr signatures over a 63-bit safe-prime group,
//!   yielding 16-byte signatures: the same *size class* as the paper's
//!   100-bit scheme, with sign/verify costs far below the 50 ms frame
//!   budget.
//! * [`rng`] — SplitMix64 and Xoshiro256\*\* deterministic generators with a
//!   *stable, documented* output sequence. The verifiable proxy schedule
//!   depends on every node computing identical streams, so we do not use
//!   `rand`'s unspecified `StdRng` algorithm here.
//!
//! # Security disclaimer
//!
//! The Schnorr group modulus is 63 bits: **this is a research stand-in**,
//! faithful to the paper's "lightweight signature" size/cost trade-off, and
//! is trivially breakable by a determined adversary. Swap in a curve of
//! proper size for anything beyond protocol research.
//!
//! # Examples
//!
//! ```
//! use watchmen_crypto::schnorr::Keypair;
//!
//! let keys = Keypair::generate(7);
//! let sig = keys.sign(b"state update");
//! assert!(keys.public().verify(b"state update", &sig));
//! assert!(!keys.public().verify(b"forged update", &sig));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod field;
pub mod rng;
pub mod schnorr;
mod sha256;

pub use sha256::{sha256, Sha256};
