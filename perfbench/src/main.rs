//! The Watchmen benchmark: two closed-loop workloads, an untraced run
//! for the end-to-end metrics and a traced run for the per-layer split.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet16|reputation --seed N --seconds S --trace 0|1
//! ```
//!
//! The seed is the benchmark's: every input (match seeds, rosters,
//! cheater scripts, the identity population) is generated from it and
//! handed to the program's public API. The run length fixes how much
//! work a run does, at a reference rate per workload (about `--seconds`
//! of work on a 2-vCPU x86-64 VM), rather than stopping on the clock:
//! a seed and a run length always play the same operations, so
//! `attempted` and `failed` repeat exactly from run to run. The last
//! line of standard output is one JSON object `{"correct", "attempted",
//! "failed", "metrics"}`; the lines before it give provenance, exact
//! sample counts and the deterministic counters of the run's fixed-size
//! prefix, which must repeat exactly for a seed, traced or not. Spans of
//! a traced run are written to `.perfbench/spans-<workload>.tsv` under
//! the working directory.
//!
//! Outputs are checked two ways. A wrong decision by the program — a
//! false verdict, a missed cheater, a bad signature on fleet16, a false
//! ban on reputation — fails its operation and is named on a `failed:`
//! line, so known baseline failures stay visible in `failed` without
//! stopping the run from being measured. A broken
//! invariant that the measurement itself rests on — simnet conservation,
//! replays agreeing with the wire, traced and untraced runs agreeing on
//! every deterministic counter, the recovered store equalling the live
//! one — sets `correct` to false.

mod fleet16;
mod play;
mod reputation;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::trace::Span;

/// End-to-end metrics, reported by every workload with tracing off.
/// An operation is a match on fleet16 and a durable commit on
/// reputation.
const END_TO_END: &[(&str, &str)] =
    &[("matches_per_s", "1/s"), ("op_us_p50", "us"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, reported by every workload with tracing on. A
/// layer a workload does not exercise reports 0. Counts are per
/// operation; shares are fractions of traced wall time.
const PER_LAYER: &[(&str, &str)] = &[
    ("crypto.verify_us", "us"),
    ("crypto.sign_us", "us"),
    ("crypto.verifies", "count/op"),
    ("crypto.signs", "count/op"),
    ("crypto.share", "fraction"),
    ("codec.decode_us", "us"),
    ("codec.bytes_per_datagram", "bytes"),
    ("core.tick_us_p50", "us"),
    ("core.tick_us_p99", "us"),
    ("core.datagram_us_p50", "us"),
    ("core.datagram_us_p99", "us"),
    ("core.logic_share", "fraction"),
    ("core.ttd_frames_p99", "frames"),
    ("subscription.compute_sets_us", "us"),
    ("net.send_us", "us"),
    ("net.advance_us", "us"),
    ("net.delivered", "count/op"),
    ("net.upload_kbps_per_player", "kbit/s"),
    ("net.update_age_ms_p99", "ms"),
    ("lobby.report_us", "us"),
    ("lobby.tick_us", "us"),
    ("lobby.admit_us", "us"),
    ("lobby.refused", "count/op"),
    ("audit.drain_us", "us"),
    ("audit.records", "count/op"),
    ("game.trace_ms", "ms"),
    ("fleet.scaling_eff", "fraction"),
    ("fleet.steals", "count/op"),
    ("fleet.worker_imbalance", "fraction"),
    ("store.commit_us_p99", "us"),
    ("store.compact_us", "us"),
    ("store.compactions", "count/op"),
    ("store.wal_bytes_per_commit", "bytes"),
    ("store.recover_ms", "ms"),
    ("trace.coverage", "fraction"),
    ("trace.overhead", "fraction"),
];

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Log lines printed before the result.
    pub notes: Vec<String>,
    /// Spans of a traced run, one batch per recorder.
    pub spans: Vec<Vec<Span>>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed check: the run is no longer correct.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.correct = false;
            self.note(format!("check failed: {what}"));
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("bad value {value:?} for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["fleet16", "reputation"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

impl Args {
    /// Operations a run plays: the run length at `per_second`, the
    /// workload's reference rate, and never fewer than `at_least`.
    #[must_use]
    pub fn planned(&self, per_second: f64, at_least: u64) -> u64 {
        ((self.seconds.as_secs_f64() * per_second).round() as u64).max(at_least)
    }

    /// Whether a run that started at `started` is past its time cap,
    /// four times its length: a program far slower than the reference
    /// stops early (with a `cut:` note) rather than overrunning.
    #[must_use]
    pub fn over_cap(&self, started: std::time::Instant) -> bool {
        started.elapsed() >= self.seconds * 4
    }
}

/// Worker threads available to the benchmark.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
/// Workloads read it when their fixed-size prefix is done, so it does
/// not grow with how much work the run length allowed.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where the benchmark keeps its scratch files: `.perfbench` under the
/// working directory (the checkout root).
#[must_use]
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// FNV-1a over the program's sources, so a result names the code it
/// measured even where no git metadata exists.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench").join("src"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let rel = path.strip_prefix(&root).unwrap_or(&path).to_string_lossy().into_owned();
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in rel.bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// The git revision, when the sources sit in a git checkout.
fn git_rev() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "none".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workers = if args.workload == "fleet16" { nproc() } else { 1 };
    println!(
        "provenance: {{\"rev\":\"{}\",\"source_digest\":\"{}\",\"nproc\":{},\"workers\":{workers},\
         \"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{}}}",
        git_rev(),
        source_digest(),
        nproc(),
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace)
    );

    let mut out = match args.workload.as_str() {
        "fleet16" => fleet16::run(&args),
        _ => reputation::run(&args),
    };

    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in END_TO_END.iter().filter(|_| !args.trace) {
        out.check(out.metrics.contains_key(name), &format!("metric {name} measured"));
    }
    out.check(out.attempted > 0, "at least one operation attempted");
    if args.trace {
        let path = scratch_dir().join(format!("spans-{}.tsv", args.workload));
        match trace::write_spans(&path, &out.spans) {
            Ok(()) => out.note(format!("spans: {}", path.display())),
            Err(e) => out.check(false, &format!("write spans: {e}")),
        }
    }
    for line in &out.notes {
        println!("{line}");
    }
    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            let value = out.metrics.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_number(value))
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
}
