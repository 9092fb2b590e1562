//! reputation: the durable identity-and-reputation service on its own,
//! with no protocol running.
//!
//! A population of identities (about 10% repeat cheaters) plays 8-player
//! matches, one after another on one thread:
//!
//! * admission — candidates enter through `GameLobby::try_register`
//!   against the store's ban list;
//! * outcomes — each admitted player's interaction reports are drawn
//!   from the detector model `fleet::population` uses (cheaters fail at
//!   the detector's true-positive rate, honest players at its
//!   false-positive rate) and fed to the lobby's reputation;
//! * commit — the match's outcomes are committed durably
//!   (`commit_and_maybe_compact`, compaction triggered by WAL size) to a
//!   fresh `FsDir` before the next match is admitted;
//! * restart — at the end the store is reopened and the recovered state
//!   must equal the live one.
//!
//! An operation is one commit; it fails on a commit error or a false
//! ban. A run plays [`MATCHES_PER_SECOND`] matches per second of run
//! length, and never fewer than [`PREFIX`], the prefix whose counters
//! are printed. Throughput is the median over windows of [`WINDOW`]
//! matches, so a burst of slow fsyncs moves one window, not the run.

use std::path::PathBuf;
use std::time::Instant;

use watchmen_core::lobby::{AdmitError, GameLobby};
use watchmen_core::rating::{CheatRating, Confidence};
use watchmen_core::WatchmenConfig;
use watchmen_crypto::rng::Xoshiro256;
use watchmen_crypto::schnorr::{Keypair, PublicKey};
use watchmen_game::PlayerId;
use watchmen_store::{FsDir, ReputationStore, StorePolicy};

use crate::stats::{median, Samples};
use crate::trace::{ratio, Name, Tracer};
use crate::{peak_rss_mb, scratch_dir, Args, Outcome};

/// `fleet::population`'s default population and detector model.
const PLAYERS: usize = 256;
const CHEATER_PERMILLE: usize = 100;
const MATCH_SIZE: usize = 8;
const REPORTS_PER_PLAYER: u32 = 10;
const CHEAT_FAILED_PERMILLE: u64 = 300;
const HONEST_FAILED_PERMILLE: u64 = 20;
const COMPACT_WAL_BYTES: u64 = 64 * 1024;
/// Matches every run plays, however short; their counters are printed.
const PREFIX: u64 = 2000;
/// Matches per second of run length (the reference rate).
const MATCHES_PER_SECOND: f64 = 10_000.0;
/// Matches per throughput window.
const WINDOW: u64 = 2000;
const SETUP_REPEATS: usize = 15;
/// Spans written out by a traced run (the first matches).
const KEEP_SPANS: usize = 200_000;

/// The population: public keys and ground truth.
struct Population {
    keys: Vec<PublicKey>,
    cheater: Vec<bool>,
}

impl Population {
    fn generate(seed: u64) -> Self {
        let key_base = seed.wrapping_mul(1_000_003);
        let mut indices: Vec<usize> = (0..PLAYERS).collect();
        Xoshiro256::seed_from(seed, 0xCAFE).shuffle(&mut indices);
        let mut cheater = vec![false; PLAYERS];
        for &i in indices.iter().take(PLAYERS * CHEATER_PERMILLE / 1000) {
            cheater[i] = true;
        }
        let keys = (0..PLAYERS).map(|i| Keypair::generate(key_base + i as u64).public()).collect();
        Population { keys, cheater }
    }

    fn index_of(&self, identity: u64) -> Option<usize> {
        self.keys.iter().position(|k| k.to_u64() == identity)
    }
}

fn policy() -> StorePolicy {
    let config = WatchmenConfig::default();
    StorePolicy {
        ban_threshold: config.reputation_threshold,
        min_reports: config.reputation_min_reports,
    }
}

/// A fresh store directory under the benchmark's scratch directory.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = scratch_dir().join(format!("store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &PathBuf) -> ReputationStore {
    let fs = FsDir::open(dir).expect("create the store directory");
    ReputationStore::open(Box::new(fs), policy()).expect("open the store").0
}

/// Deterministic counters after some number of matches.
#[derive(Debug, Default, Clone, PartialEq)]
struct Tally {
    matches: u64,
    aborted: u64,
    commits: u64,
    commit_errors: u64,
    refused: u64,
    bans: u64,
    false_bans: u64,
    compactions: u64,
    wal_bytes: u64,
}

/// One population's matches against one store.
struct Service {
    pop: Population,
    store: ReputationStore,
    rng: Xoshiro256,
    seed: u64,
    tally: Tally,
    commit_us: Vec<f64>,
    banned_cheaters: usize,
    /// One log line per failed operation.
    failures: Vec<String>,
}

impl Service {
    fn new(pop: Population, store: ReputationStore, seed: u64) -> Self {
        Service {
            pop,
            store,
            rng: Xoshiro256::seed_from(seed, 0xCAFE),
            seed,
            tally: Tally::default(),
            commit_us: Vec::new(),
            banned_cheaters: 0,
            failures: Vec::new(),
        }
    }

    /// Admits, plays and commits one match inside its own root span.
    /// Returns whether it failed.
    fn play_match(&mut self, tr: &mut Tracer) -> bool {
        self.tally.matches += 1;
        tr.set_group(self.tally.matches);
        let root = tr.begin(Name::Match);
        let failed = self.admit_play_commit(tr);
        tr.end(root);
        failed
    }

    fn admit_play_commit(&mut self, tr: &mut Tracer) -> bool {
        let seed = self.seed ^ self.tally.matches.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let banned = tr.time(Name::StoreBanned, || self.store.banned_identities());
        let mut lobby = tr.time(Name::LobbyNew, || {
            GameLobby::new(seed, WatchmenConfig::default(), 60).with_banned_keys(banned)
        });
        let candidates: Vec<usize> = tr.time(Name::GameMatchmake, || {
            let mut pool: Vec<usize> = (0..PLAYERS).collect();
            self.rng.shuffle(&mut pool);
            pool.truncate(MATCH_SIZE * 2);
            pool
        });

        let mut admitted = Vec::with_capacity(MATCH_SIZE);
        for index in candidates {
            if admitted.len() == MATCH_SIZE {
                break;
            }
            let key = self.pop.keys[index];
            match tr.time(Name::LobbyAdmit, || lobby.try_register(key)) {
                Ok(_) => admitted.push(index),
                Err(AdmitError::Banned { .. }) => self.tally.refused += 1,
                Err(other) => panic!("pre-start registration cannot fail with {other}"),
            }
        }
        if admitted.len() < 2 {
            self.tally.aborted += 1;
            self.failures.push(format!("failed: match {} admitted < 2", self.tally.matches));
            return true;
        }
        tr.time(Name::LobbyStart, || lobby.start());

        let outcomes = tr.begin(Name::GameOutcomes);
        let mut draws = Xoshiro256::seed_from(seed, 0xF0F0);
        for (i, &index) in admitted.iter().enumerate() {
            let failed_permille = if self.pop.cheater[index] {
                CHEAT_FAILED_PERMILLE
            } else {
                HONEST_FAILED_PERMILLE
            };
            for _ in 0..REPORTS_PER_PLAYER {
                let rating = if draws.next_range(1000) < failed_permille {
                    CheatRating::new(10, Confidence::Proxy, 0)
                } else {
                    CheatRating::clean(Confidence::Proxy)
                };
                let reporter = PlayerId(((i + 1) % admitted.len()) as u32);
                tr.time(Name::LobbyReport, || lobby.report(reporter, PlayerId(i as u32), &rating));
            }
        }
        let results = lobby.match_outcomes();
        tr.end(outcomes);

        tr.time(Name::StoreNote, || {
            for (identity, ok, failed) in results {
                self.store.note_outcome(identity, ok as u32, failed as u32);
            }
        });
        let wal_before = self.store.wal_bytes();
        let compactions_before = self.store.stats().compactions;
        let t0 = Instant::now();
        let receipt = if tr.is_on() {
            // The same two steps `commit_and_maybe_compact` takes, spanned
            // one by one.
            let receipt = tr.time(Name::StoreCommit, || self.store.commit());
            if receipt.is_ok() && self.store.wal_bytes() >= COMPACT_WAL_BYTES {
                let _ = tr.time(Name::StoreCompact, || self.store.compact());
            }
            receipt
        } else {
            self.store.commit_and_maybe_compact(COMPACT_WAL_BYTES)
        };
        self.commit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let receipt = match receipt {
            Ok(receipt) => receipt,
            Err(e) => {
                self.tally.commit_errors += 1;
                self.failures.push(format!("failed: match {} commit: {e}", self.tally.matches));
                return true;
            }
        };
        self.tally.commits += 1;
        if self.store.stats().compactions == compactions_before {
            self.tally.wal_bytes += self.store.wal_bytes() - wal_before;
        }
        self.tally.compactions = self.store.stats().compactions;
        let mut failed = false;
        for (identity, _) in receipt.new_bans {
            self.tally.bans += 1;
            match self.pop.index_of(identity) {
                Some(i) if self.pop.cheater[i] => self.banned_cheaters += 1,
                _ => {
                    self.tally.false_bans += 1;
                    self.failures.push(format!(
                        "failed: match {} banned honest identity {identity:#x} ({:?})",
                        self.tally.matches,
                        self.store.state().entry(identity)
                    ));
                    failed = true;
                }
            }
        }
        failed
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let seed = args.seed ^ 0x2e90_7a7e;

    // Set-up: generate the population and open a fresh durable store.
    let mut setup_s = Vec::new();
    let mut ready = None;
    for k in 0..SETUP_REPEATS {
        let dir = fresh_dir(&format!("setup{k}"));
        let t0 = Instant::now();
        let pop = Population::generate(seed);
        let store = open(&dir);
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some((_, old)) = ready.replace(((pop, store), dir)) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    out.set("setup_s", median(&setup_s));
    let ((pop, store), dir) = ready.expect("set up at least once");

    let epoch = Instant::now();
    let mut tr = if args.trace { Tracer::on(epoch, KEEP_SPANS) } else { Tracer::off() };
    // A traced run plays half as many matches, then replays them untraced.
    let planned = args.planned(MATCHES_PER_SECOND, 2 * PREFIX) / if args.trace { 2 } else { 1 };
    let started = Instant::now();
    let mut window = Instant::now();
    let mut rates = Vec::new();
    let mut svc = Service::new(pop, store, seed);
    let mut prefix = None;
    while svc.tally.matches < planned {
        if svc.play_match(&mut tr) {
            out.failed += 1;
        }
        if svc.tally.matches == PREFIX {
            prefix = Some((svc.tally.clone(), hex(&svc.store.state().digest())));
            out.set("peak_rss_mb", peak_rss_mb());
        }
        if svc.tally.matches.is_multiple_of(WINDOW) {
            rates.push(WINDOW as f64 / window.elapsed().as_secs_f64());
            window = Instant::now();
            if svc.tally.matches >= PREFIX && args.over_cap(started) {
                out.note(format!("cut: {} of {planned} matches played", svc.tally.matches));
                break;
            }
        }
    }
    let (prefix, prefix_digest) = prefix.expect("prefix reached");
    out.note(format!("counters: {prefix:?} state_digest={prefix_digest}"));
    out.attempted = svc.tally.matches;

    // Restart: the recovered state must equal the live one.
    let live = svc.store.state().clone();
    let cheaters = svc.pop.cheater.iter().filter(|&&c| c).count();
    let Service { tally, commit_us, banned_cheaters, store, failures, .. } = svc;
    for line in failures {
        out.note(line);
    }
    drop(store);
    let t0 = Instant::now();
    let recovered = open(&dir);
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    out.check(*recovered.state() == live, "recovered state equals the live state");
    out.check(
        recovered.banned_identities() == live.banned_identities(),
        "recovered ban set equals the live ban set",
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
    out.check(banned_cheaters == cheaters, "every cheater banned by the end");
    out.note(format!("final: {tally:?} cheaters={cheaters} banned_cheaters={banned_cheaters}"));

    let commits = Samples::new(commit_us);
    out.note(format!("samples: {}", commits.describe("commit_us", &[50.0, 90.0, 99.0])));
    if !args.trace {
        out.note(format!("windows: {} of {WINDOW} matches", rates.len()));
        out.set("matches_per_s", median(&rates));
        out.set("op_us_p50", commits.pct(50.0));
        return out;
    }

    // The same matches again, untraced, on a fresh store: the counters
    // must agree, and the time gives tracing's overhead.
    let (an, spans) = tr.finish();
    let plain_dir = fresh_dir("untraced");
    let mut plain = Service::new(Population::generate(seed), open(&plain_dir), seed);
    let mut quiet = Tracer::off();
    let t0 = Instant::now();
    while plain.tally.matches < tally.matches {
        plain.play_match(&mut quiet);
    }
    let plain_s = t0.elapsed().as_secs_f64();
    out.check(
        plain.tally == tally && *plain.store.state() == live,
        "traced and untraced runs agree on every deterministic counter",
    );
    drop(plain);
    let _ = std::fs::remove_dir_all(&plain_dir);

    let ops = tally.commits.max(1) as f64;
    out.set("lobby.report_us", an.median_us(Name::LobbyReport));
    out.set("lobby.admit_us", an.median_us(Name::LobbyAdmit));
    out.set("lobby.refused", tally.refused as f64 / ops);
    out.set("store.commit_us_p99", an.samples(Name::StoreCommit).pct(99.0));
    out.set("store.compact_us", an.median_us(Name::StoreCompact));
    out.set("store.compactions", tally.compactions as f64 / ops);
    out.set(
        "store.wal_bytes_per_commit",
        ratio(tally.wal_bytes as f64, (tally.commits - tally.compactions) as f64),
    );
    out.set("store.recover_ms", recover_ms);
    out.set("trace.coverage", an.coverage());
    out.set("trace.overhead", an.wall_ns() as f64 / 1e9 / plain_s - 1.0);
    out.note(an.layer_line());
    out.note(format!(
        "coverage={} traced_wall_s={} untraced_s={plain_s}",
        an.coverage(),
        an.wall_ns() as f64 / 1e9
    ));
    out.spans.push(spans);
    out
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}
