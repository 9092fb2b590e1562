//! fleet16: the product's throughput path. 16-player × 160-frame matches
//! over the fleet cell's constant 8 ms simnet, a scripted speed-hacker in
//! every 8th match, scheduled by the fleet's work-stealing pool on
//! `nproc` workers.
//!
//! The untraced run is the orchestrator itself: specs from
//! `FleetConfig::specs`, one `MatchCell` per match, `pool::run_tasks` —
//! what `run_fleet` composes — with each cell wrapped only to time its
//! quanta. A run plays [`BATCHES_PER_SECOND`] batches of [`BATCH`]
//! matches per second of run length. An operation is one match (the
//! set-up's warm-up matches included); it fails on a panic, a false
//! verdict, a missed cheater or a bad signature.
//!
//! The traced run plays the first half of the batches through the
//! benchmark's own match loop ([`crate::play`]) on the same pool, with
//! spans, and then re-runs a prefix of them through `MatchCell`
//! untraced: every
//! `MatchReport` must be identical, field for field. A last pass on one
//! worker gives the pool's scaling efficiency.

use std::time::{Duration, Instant};

use watchmen_crypto::rng::SplitMix64;
use watchmen_fleet::pool::{run_tasks, PoolRun, WorkerStats};
use watchmen_fleet::{
    FleetConfig, MatchCell, MatchReport, MatchSpec, PoolConfig, Quantum, ShardContext, Task,
    TaskOutcome,
};
use watchmen_sim::quality::UNDETECTED;

use crate::play::{failure_note, Match, Measured, Plan};
use crate::stats::{median, Samples};
use crate::trace::{ratio, Analysis, Name, Span, Tracer};
use crate::{nproc, peak_rss_mb, Args, Outcome};

/// Matches per pool run.
const BATCH: u64 = 32;
/// Pool runs per second of run length (the reference rate).
const BATCHES_PER_SECOND: f64 = 1.0;
/// Matches of the first traced batch whose spans are written out.
const KEEP_MATCHES: u64 = 4;
/// Warm-up pool runs timed as set-up; the median is reported.
const SETUP_REPEATS: usize = 5;
const FRAMES: u64 = 160;
const PLAYERS: usize = 16;

fn config(seed: u64, matches: u64, workers: usize) -> FleetConfig {
    FleetConfig {
        matches,
        players: PLAYERS,
        frames: FRAMES,
        workers,
        seed,
        ..FleetConfig::default()
    }
}

/// A `MatchCell` that also reports the time its quanta took.
struct Timed {
    cell: MatchCell,
    busy: Duration,
}

impl Task for Timed {
    type Output = (MatchReport, Duration);

    fn run_quantum(&mut self, cx: &ShardContext) -> Quantum<Self::Output> {
        let t0 = Instant::now();
        let q = self.cell.run_quantum(cx);
        self.busy += t0.elapsed();
        match q {
            Quantum::Pending { ticks } => Quantum::Pending { ticks },
            Quantum::Complete { ticks, output } => {
                Quantum::Complete { ticks, output: (output, self.busy) }
            }
        }
    }
}

/// One pool run of real cells.
struct Batch {
    reports: Vec<MatchReport>,
    busy_us: Vec<f64>,
    panics: u64,
    wall_s: f64,
    workers: Vec<WorkerStats>,
}

fn run_cells(specs: Vec<MatchSpec>, workers: usize) -> Batch {
    let tasks: Vec<Timed> = specs
        .into_iter()
        .map(|s| Timed { cell: MatchCell::new(s), busy: Duration::ZERO })
        .collect();
    let t0 = Instant::now();
    let run: PoolRun<(MatchReport, Duration)> =
        run_tasks(&PoolConfig { workers, max_local: FleetConfig::default().max_local }, tasks);
    let wall_s = t0.elapsed().as_secs_f64();
    let mut batch =
        Batch { reports: Vec::new(), busy_us: Vec::new(), panics: 0, wall_s, workers: run.workers };
    for outcome in run.outcomes {
        match outcome {
            TaskOutcome::Completed((report, busy)) => {
                batch.reports.push(report);
                batch.busy_us.push(busy.as_secs_f64() * 1e6);
            }
            TaskOutcome::Panicked(_) => batch.panics += 1,
        }
    }
    batch
}

fn match_failed(r: &MatchReport) -> bool {
    r.false_verdicts > 0 || r.bad_signatures > 0 || (r.cheaters > 0 && !r.detected)
}

/// Counts one pool run's matches as operations: a panic, a false
/// verdict, a bad signature or a missed cheater fails its match (the
/// fleet gates: completed == matches, zero false verdicts, zero bad
/// signatures, detected == cheater matches), and each failure is named
/// in the log.
fn count_ops(out: &mut Outcome, fleet_seed: u64, reports: &[MatchReport], panics: u64) {
    out.attempted += reports.len() as u64 + panics;
    out.failed += panics;
    if panics > 0 {
        out.note(format!("failed: seed={fleet_seed} {panics} matches panicked"));
    }
    for r in reports.iter().filter(|r| match_failed(r)) {
        out.failed += 1;
        out.note(failure_note(fleet_seed, r));
    }
}

/// The fleet gates over every match of the run, for the log.
fn gates_line(reports: &[MatchReport], panics: u64) -> String {
    let cheater = reports.iter().filter(|r| r.cheaters > 0).count();
    let detected = reports.iter().filter(|r| r.cheaters > 0 && r.detected).count();
    format!(
        "gates: matches={} completed={} false_verdicts={} bad_signatures={} \
         cheater_matches={cheater} detected={detected}",
        reports.len() as u64 + panics,
        reports.len(),
        reports.iter().map(|r| r.false_verdicts).sum::<u64>(),
        reports.iter().map(|r| r.bad_signatures).sum::<u64>(),
    )
}

fn ttd_samples(reports: &[MatchReport]) -> Samples {
    Samples::new(
        reports
            .iter()
            .flat_map(|r| r.quality.ttd_frames.iter().copied())
            .filter(|&t| t != UNDETECTED)
            .map(|t| t as f64)
            .collect(),
    )
}

fn prefix_counters(reports: &[MatchReport]) -> String {
    let mut lines: Vec<String> = reports.iter().map(MatchReport::summary_line).collect();
    lines.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines.join("\n").bytes() {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    let messages: u64 = reports.iter().map(|r| r.messages).sum();
    let severe: u64 = reports.iter().map(|r| r.severe_verdicts).sum();
    let ttd: Vec<String> =
        reports.iter().flat_map(|r| r.quality.ttd_frames.iter().map(u64::to_string)).collect();
    format!(
        "matches={} messages={messages} severe={severe} false_verdicts={} banned={} ttd=[{}] \
         report_digest={hash:016x}",
        reports.len(),
        reports.iter().map(|r| r.false_verdicts).sum::<u64>(),
        reports.iter().map(|r| r.banned).sum::<u64>(),
        ttd.join(",")
    )
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let workers = nproc();
    let mut seeds = SplitMix64::new(args.seed ^ 0xf1ee_7016);

    // Set-up: spec expansion plus a warm-up pool run of one match per
    // worker, which spawns the threads and fills the allocator.
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let warm_seed = seeds.next_u64();
        let t0 = Instant::now();
        let warm = run_cells(config(warm_seed, workers as u64, workers).specs(), workers);
        setup_s.push(t0.elapsed().as_secs_f64());
        count_ops(&mut out, warm_seed, &warm.reports, warm.panics);
    }
    out.set("setup_s", median(&setup_s));

    let batch_seeds: Vec<u64> =
        (0..args.planned(BATCHES_PER_SECOND, 1)).map(|_| seeds.next_u64()).collect();
    if args.trace {
        run_traced(args, &mut out, &batch_seeds, workers);
        return out;
    }

    let started = Instant::now();
    let mut reports = Vec::new();
    let mut busy_us = Vec::new();
    let mut rates = Vec::new();
    let mut panics = 0;
    for (b, &seed) in batch_seeds.iter().enumerate() {
        let batch = run_cells(config(seed, BATCH, workers).specs(), workers);
        if b == 0 {
            out.note(format!("counters: {}", prefix_counters(&batch.reports)));
            out.set("peak_rss_mb", peak_rss_mb());
        }
        count_ops(&mut out, seed, &batch.reports, batch.panics);
        rates.push(BATCH as f64 / batch.wall_s);
        panics += batch.panics;
        reports.extend(batch.reports);
        busy_us.extend(batch.busy_us);
        if b + 1 < batch_seeds.len() && args.over_cap(started) {
            out.note(format!("cut: {} of {} batches played", b + 1, batch_seeds.len()));
            break;
        }
    }
    out.note(gates_line(&reports, panics));

    let busy = Samples::new(busy_us);
    out.note(format!("samples: {}", busy.describe("match_busy_us", &[50.0, 90.0, 99.0])));
    out.note(format!("samples: {}", ttd_samples(&reports).describe("ttd_frames", &[50.0, 99.0])));
    out.note(format!("batches: {} rates={rates:?}", rates.len()));
    out.set("matches_per_s", median(&rates));
    out.set("op_us_p50", busy.pct(50.0));
    out
}

/// The benchmark's own cell: the same match as `MatchCell`, played by
/// [`crate::play`] with spans on.
struct Traced {
    plan: Plan,
    epoch: Instant,
    /// Spans to keep verbatim for writing out.
    keep: usize,
    state: Option<Match>,
    tracer: Option<Tracer>,
    busy: Duration,
}

struct TracedOutput {
    report: MatchReport,
    measured: Measured,
    analysis: Analysis,
    replay_ns: u64,
    spans: Vec<Span>,
    busy: Duration,
}

impl Task for Traced {
    type Output = TracedOutput;

    fn run_quantum(&mut self, _cx: &ShardContext) -> Quantum<TracedOutput> {
        let t0 = Instant::now();
        let tr = self.tracer.get_or_insert_with(|| Tracer::on(self.epoch, self.keep));
        tr.set_group(self.plan.id);
        let root = tr.begin(Name::Match);
        let m = self.state.get_or_insert_with(|| Match::build(self.plan.clone(), tr));
        let quantum = FleetConfig::default().tick_quantum;
        let mut ticks = 0;
        while ticks < quantum && !m.done() {
            m.step(tr);
            ticks += 1;
        }
        if !m.done() {
            tr.end(root);
            self.busy += t0.elapsed();
            return Quantum::Pending { ticks };
        }
        let (report, measured) = self.state.take().expect("match in progress").finish(tr);
        tr.end(root);
        self.busy += t0.elapsed();
        let (analysis, spans) = tr.finish();
        Quantum::Complete {
            ticks,
            output: TracedOutput {
                report,
                measured,
                replay_ns: analysis.replay_ns(),
                analysis,
                spans,
                busy: self.busy,
            },
        }
    }
}

fn plan_of(spec: &MatchSpec) -> Plan {
    Plan {
        id: spec.match_id,
        players: spec.players,
        frames: spec.frames,
        seed: spec.seed,
        cheaters: spec.cheaters.clone(),
    }
}

fn run_traced(args: &Args, out: &mut Outcome, batch_seeds: &[u64], workers: usize) {
    let epoch = Instant::now();
    let started = Instant::now();
    let mut analysis = Analysis::default();
    let mut spans = Vec::new();
    let mut traced: Vec<Vec<TracedOutput>> = Vec::new();
    let mut measured = Measured::default();
    let mut panics = 0;
    // Half the batches, traced: spans and replays make each one slower.
    let planned = batch_seeds.len().div_ceil(2);
    for (b, &seed) in batch_seeds.iter().take(planned).enumerate() {
        let tasks: Vec<Traced> = config(seed, BATCH, workers)
            .specs()
            .iter()
            .map(|s| Traced {
                plan: plan_of(s),
                epoch,
                keep: if traced.is_empty() && s.match_id < KEEP_MATCHES { usize::MAX } else { 0 },
                state: None,
                tracer: None,
                busy: Duration::ZERO,
            })
            .collect();
        let run =
            run_tasks(&PoolConfig { workers, max_local: FleetConfig::default().max_local }, tasks);
        let mut batch = Vec::new();
        for outcome in run.outcomes {
            match outcome {
                TaskOutcome::Completed(mut o) => {
                    analysis.merge(std::mem::take(&mut o.analysis));
                    if !o.spans.is_empty() {
                        spans.push(std::mem::take(&mut o.spans));
                    }
                    measured.sent += o.measured.sent;
                    measured.sent_bytes += o.measured.sent_bytes;
                    measured.audit_records += o.measured.audit_records;
                    measured.update_age_ms.extend_from_slice(&o.measured.update_age_ms);
                    out.check(o.measured.net_invariant, "simnet NetStats invariant holds");
                    out.check(o.measured.replay_mismatches == 0, "replays agree with the wire");
                    count_ops(out, seed, std::slice::from_ref(&o.report), 0);
                    batch.push(o);
                }
                TaskOutcome::Panicked(_) => {
                    panics += 1;
                    count_ops(out, seed, &[], 1);
                }
            }
        }
        traced.push(batch);
        if b + 1 < planned && args.over_cap(started) {
            out.note(format!("cut: {} of {planned} traced batches played", b + 1));
            break;
        }
    }
    let reports: Vec<MatchReport> = traced.iter().flatten().map(|o| o.report.clone()).collect();
    out.note(gates_line(&reports, panics));
    let first: Vec<MatchReport> = traced[0].iter().map(|o| o.report.clone()).collect();
    out.note(format!("counters: {}", prefix_counters(&first)));

    // The same matches through the orchestrator's own cells, untraced.
    let replayed = traced.len().div_ceil(2);
    let mut plain_busy = 0.0;
    let mut traced_busy = 0.0;
    let mut steals = 0;
    let mut imbalance = Vec::new();
    let mut rate_n = 0.0;
    for (b, batch) in traced.iter().take(replayed).enumerate() {
        let cells = run_cells(config(batch_seeds[b], BATCH, workers).specs(), workers);
        let same = cells.reports.len() == batch.len()
            && cells.reports.iter().zip(batch).all(|(a, o)| *a == o.report);
        out.check(same, "traced match loop reproduces every MatchCell report exactly");
        plain_busy += cells.busy_us.iter().sum::<f64>();
        for o in batch {
            traced_busy += o.busy.as_secs_f64() * 1e6 - o.replay_ns as f64 / 1e3;
        }
        steals += cells.workers.iter().map(|w| w.steals).sum::<u64>();
        let ticks: Vec<f64> = cells.workers.iter().map(|w| w.ticks as f64).collect();
        let mean = ticks.iter().sum::<f64>() / ticks.len() as f64;
        imbalance.push(ticks.iter().copied().fold(0.0, f64::max) / mean - 1.0);
        if b == 0 {
            rate_n = BATCH as f64 / cells.wall_s;
        }
    }
    let single = run_cells(config(batch_seeds[0], BATCH, 1).specs(), 1);
    let rate_1 = BATCH as f64 / single.wall_s;

    let ops = reports.len() as f64;
    let frames = FRAMES * reports.len() as u64;
    fill_play_layers(out, &analysis, ops, &measured, PLAYERS, frames);
    out.set("core.ttd_frames_p99", ttd_samples(&reports).pct(99.0));
    out.set("game.trace_ms", analysis.median_us(Name::GameRecord) / 1e3);
    out.set("fleet.scaling_eff", rate_n / (workers as f64 * rate_1));
    out.set("fleet.steals", steals as f64 / (replayed as u64 * BATCH) as f64);
    out.set("fleet.worker_imbalance", median(&imbalance));
    out.set("trace.overhead", traced_busy / plain_busy - 1.0);
    out.note(format!("samples: {}", ttd_samples(&reports).describe("ttd_frames", &[50.0, 99.0])));
    out.note(format!(
        "scaling: rate_{workers}w={rate_n} rate_1w={rate_1} replayed_batches={replayed}"
    ));
    out.spans = spans;
}

/// The per-layer figures of the traced match loop.
fn fill_play_layers(
    out: &mut Outcome,
    an: &Analysis,
    ops: f64,
    m: &Measured,
    players: usize,
    frames: u64,
) {
    let frame_ms = watchmen_core::WatchmenConfig::default().frame_ms;
    let wall = an.wall_ns() as f64;
    let crypto_ns = an.total_ns(Name::CryptoVerify) + an.total_ns(Name::CryptoSign);
    let codec_ns = an.total_ns(Name::CodecDecode);
    let core_ns = an.total_ns(Name::CoreTick) + an.total_ns(Name::CoreDatagram);
    out.set("crypto.verify_us", an.median_us(Name::CryptoVerify));
    out.set("crypto.sign_us", an.median_us(Name::CryptoSign));
    out.set("crypto.verifies", an.count(Name::CryptoVerify) as f64 / ops);
    out.set("crypto.signs", an.count(Name::CryptoSign) as f64 / ops);
    out.set("crypto.share", ratio(crypto_ns, wall));
    out.set("codec.decode_us", an.median_us(Name::CodecDecode));
    out.set("codec.bytes_per_datagram", ratio(m.sent_bytes as f64, m.sent as f64));
    let tick = an.samples(Name::CoreTick);
    let datagram = an.samples(Name::CoreDatagram);
    out.set("core.tick_us_p50", tick.pct(50.0));
    out.set("core.tick_us_p99", tick.pct(99.0));
    out.set("core.datagram_us_p50", datagram.pct(50.0));
    out.set("core.datagram_us_p99", datagram.pct(99.0));
    out.set("core.logic_share", ratio((core_ns - crypto_ns - codec_ns).max(0.0), core_ns));
    out.set("subscription.compute_sets_us", an.median_us(Name::SubscriptionComputeSets));
    out.set("net.send_us", an.median_us(Name::NetSend));
    out.set("net.advance_us", an.median_us(Name::NetAdvance));
    out.set("net.delivered", an.count(Name::CoreDatagram) as f64 / ops);
    out.set("net.upload_kbps_per_player", m.upload_kbps_per_player(players, frames, frame_ms));
    out.set("net.update_age_ms_p99", Samples::new(m.update_age_ms.clone()).pct(99.0));
    out.set("lobby.report_us", an.median_us(Name::LobbyReport));
    out.set("lobby.tick_us", an.median_us(Name::LobbyTick));
    out.set("audit.drain_us", an.median_us(Name::AuditDrain));
    out.set("audit.records", m.audit_records as f64 / ops);
    out.set("trace.coverage", an.coverage());
    out.note(format!("samples: {}", tick.describe("core.tick_us", &[50.0, 99.0])));
    out.note(format!("samples: {}", datagram.describe("core.datagram_us", &[50.0, 99.0])));
    out.note(format!(
        "samples: {}",
        Samples::new(m.update_age_ms.clone()).describe("update_age_ms", &[50.0, 99.0])
    ));
    out.note(an.layer_line());
    out.note(format!("coverage={} wall_ms={}", an.coverage(), wall / 1e6));
}
