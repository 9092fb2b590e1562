//! In-memory spans recorded around the calls the benchmark makes into
//! each layer's public API.
//!
//! A span has a name, a start, an end and the span that caused it;
//! spans of one match share a group id (the match id). Spans are kept in
//! memory while the benchmark runs and written out when it ends; to keep
//! memory bounded on long runs, every span is folded into per-name
//! aggregates as it closes and only a prefix of each recorder's spans is
//! kept verbatim. Self time is a span's duration minus the durations of
//! its direct children.
//!
//! Crypto, codec and subscription work happens inside
//! `ProtocolCore`, where a caller cannot put a span. The traced run
//! therefore *replays* that work beside the core (decode and verify
//! every delivered datagram, re-sign every newly originated envelope,
//! recompute every node's subscription sets). Replay spans, and the
//! `replay` span that batches a frame's receive and subscription
//! replays, are excluded from coverage and from traced wall time, and
//! used only for the `crypto.*`, `codec.*`, `subscription.*` and
//! `core.logic_share` figures.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

use crate::stats::Samples;

/// Every span name the benchmark records. The text before the first
/// `.` is the layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// Root: one scheduler quantum (fleet16) or one whole match.
    Match,
    /// One simulated frame (deliver, then tick every node).
    Frame,
    /// The post-match sweep delivering what is still in flight.
    Drain,
    GameRecord,
    GameMatchmake,
    GameOutcomes,
    CryptoKeygen,
    CoreNew,
    CoreTick,
    CoreDatagram,
    NetNew,
    NetSend,
    NetAdvance,
    LobbyNew,
    LobbyRegister,
    LobbyAdmit,
    LobbyStart,
    LobbyHeartbeat,
    LobbyReport,
    LobbyTick,
    AuditDrain,
    AuditEvaluate,
    StoreBanned,
    StoreNote,
    StoreCommit,
    StoreCompact,
    /// Replays (see the module docs); `Replay` groups a batch of them.
    Replay,
    CryptoVerify,
    CryptoSign,
    CodecDecode,
    SubscriptionComputeSets,
}

impl Name {
    /// Every name, in declaration order (`Name as usize` indexes it).
    pub const ALL: [Name; 31] = [
        Name::Match,
        Name::Frame,
        Name::Drain,
        Name::GameRecord,
        Name::GameMatchmake,
        Name::GameOutcomes,
        Name::CryptoKeygen,
        Name::CoreNew,
        Name::CoreTick,
        Name::CoreDatagram,
        Name::NetNew,
        Name::NetSend,
        Name::NetAdvance,
        Name::LobbyNew,
        Name::LobbyRegister,
        Name::LobbyAdmit,
        Name::LobbyStart,
        Name::LobbyHeartbeat,
        Name::LobbyReport,
        Name::LobbyTick,
        Name::AuditDrain,
        Name::AuditEvaluate,
        Name::StoreBanned,
        Name::StoreNote,
        Name::StoreCommit,
        Name::StoreCompact,
        Name::Replay,
        Name::CryptoVerify,
        Name::CryptoSign,
        Name::CodecDecode,
        Name::SubscriptionComputeSets,
    ];

    /// The span's printed name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Match => "match",
            Name::Frame => "frame",
            Name::Drain => "drain",
            Name::GameRecord => "game.record",
            Name::GameMatchmake => "game.matchmake",
            Name::GameOutcomes => "game.outcomes",
            Name::CryptoKeygen => "crypto.keygen",
            Name::CoreNew => "core.new",
            Name::CoreTick => "core.tick",
            Name::CoreDatagram => "core.datagram",
            Name::NetNew => "net.new",
            Name::NetSend => "net.send",
            Name::NetAdvance => "net.advance",
            Name::LobbyNew => "lobby.new",
            Name::LobbyRegister => "lobby.register",
            Name::LobbyAdmit => "lobby.admit",
            Name::LobbyStart => "lobby.start",
            Name::LobbyHeartbeat => "lobby.heartbeat",
            Name::LobbyReport => "lobby.report",
            Name::LobbyTick => "lobby.tick",
            Name::AuditDrain => "audit.drain",
            Name::AuditEvaluate => "audit.evaluate",
            Name::StoreBanned => "store.banned",
            Name::StoreNote => "store.note",
            Name::StoreCommit => "store.commit",
            Name::StoreCompact => "store.compact",
            Name::Replay => "replay",
            Name::CryptoVerify => "crypto.verify",
            Name::CryptoSign => "crypto.sign",
            Name::CodecDecode => "codec.decode",
            Name::SubscriptionComputeSets => "subscription.compute_sets",
        }
    }

    /// Structural spans group work; they belong to no layer.
    #[must_use]
    pub fn is_structural(self) -> bool {
        matches!(self, Name::Match | Name::Frame | Name::Drain)
    }

    /// Replayed work (see the module docs).
    #[must_use]
    pub fn is_replay(self) -> bool {
        matches!(
            self,
            Name::Replay
                | Name::CryptoVerify
                | Name::CryptoSign
                | Name::CodecDecode
                | Name::SubscriptionComputeSets
        )
    }
}

const ROOT: u32 = u32::MAX;

/// One closed span. Times are nanoseconds since the run's epoch; `id`
/// and `parent` number the spans of one recorder in opening order.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub group: u32,
    pub id: u32,
    pub parent: u32,
    pub name: Name,
    pub start: u64,
    pub end: u64,
}

/// A handle to an open span (or nothing, when tracing is off).
#[must_use]
pub struct Open(u32);

/// An open span: its record, and the time its children took so far.
#[derive(Debug)]
struct Frame {
    span: Span,
    child_ns: u64,
}

/// A span recorder. When off, `begin`/`end` cost one branch.
///
/// Closed spans are folded into an [`Analysis`] as they close, so memory
/// stays bounded however long the run; the first `keep` spans are also
/// kept verbatim for writing out (a prefix in opening order, so every
/// kept span's parent is kept too).
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    group: u32,
    next_id: u32,
    keep: usize,
    kept: Vec<Span>,
    stack: Vec<Frame>,
    analysis: Analysis,
}

impl Tracer {
    /// A recorder that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            group: 0,
            next_id: 0,
            keep: 0,
            kept: Vec::new(),
            stack: Vec::new(),
            analysis: Analysis::default(),
        }
    }

    /// A recorder timing against `epoch` that keeps its first `keep`
    /// spans for writing.
    #[must_use]
    pub fn on(epoch: Instant, keep: usize) -> Self {
        Tracer { on: true, epoch, keep, ..Tracer::off() }
    }

    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the group id stamped on spans opened from now on.
    pub fn set_group(&mut self, group: u64) {
        self.group = group as u32;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: Name) -> Open {
        if !self.on {
            return Open(ROOT);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map_or(ROOT, |f| f.span.id);
        let start = self.now();
        let span = Span { group: self.group, id, parent, name, start, end: start };
        self.stack.push(Frame { span, child_ns: 0 });
        Open(id)
    }

    /// Closes `open`, which must be the innermost open span, and
    /// returns its duration in ns (0 when tracing is off).
    pub fn end(&mut self, open: Open) -> u64 {
        if !self.on {
            return 0;
        }
        let end = self.now();
        let mut frame = self.stack.pop().expect("end() without an open span");
        assert_eq!(frame.span.id, open.0, "spans must close innermost first");
        frame.span.end = end;
        let ns = end - frame.span.start;
        let parent = self.stack.last_mut();
        let parent_name = parent.as_ref().map(|p| p.span.name);
        if let Some(p) = parent {
            p.child_ns += ns;
        }
        self.analysis.fold(&frame.span, frame.child_ns, parent_name);
        if (frame.span.id as usize) < self.keep {
            self.kept.push(frame.span);
        }
        ns
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: Name, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Hands over the analysis and the kept spans (sorted by id).
    pub fn finish(&mut self) -> (Analysis, Vec<Span>) {
        assert!(self.stack.is_empty(), "finish() with open spans");
        let mut kept = std::mem::take(&mut self.kept);
        kept.sort_by_key(|s| s.id);
        (std::mem::take(&mut self.analysis), kept)
    }
}

/// Per-name aggregates over closed spans.
#[derive(Debug)]
pub struct Analysis {
    /// Durations in µs, per name (indexed by `Name as usize`).
    durations: Vec<Vec<f64>>,
    /// Total and self time in ns, per name.
    total_ns: Vec<u64>,
    self_ns: Vec<u64>,
    /// Root span time: the traced wall time before removing replays.
    root_ns: u64,
    /// Time inside outermost replay spans.
    replay_ns: u64,
    /// Time inside layer spans whose parent is structural or the root.
    layer_ns: u64,
}

impl Default for Analysis {
    fn default() -> Self {
        Analysis {
            durations: vec![Vec::new(); Name::ALL.len()],
            total_ns: vec![0; Name::ALL.len()],
            self_ns: vec![0; Name::ALL.len()],
            root_ns: 0,
            replay_ns: 0,
            layer_ns: 0,
        }
    }
}

impl Analysis {
    /// Folds one closed span whose direct children took `child_ns`.
    fn fold(&mut self, span: &Span, child_ns: u64, parent: Option<Name>) {
        let ns = span.end - span.start;
        let i = span.name as usize;
        self.durations[i].push(ns as f64 / 1e3);
        self.total_ns[i] += ns;
        self.self_ns[i] += ns.saturating_sub(child_ns);
        if parent.is_none() {
            self.root_ns += ns;
        }
        if span.name.is_replay() {
            if !parent.is_some_and(Name::is_replay) {
                self.replay_ns += ns;
            }
        } else if !span.name.is_structural() && parent.is_none_or(Name::is_structural) {
            self.layer_ns += ns;
        }
    }

    /// Adds another recorder's analysis to this one.
    pub fn merge(&mut self, mut other: Analysis) {
        for i in 0..Name::ALL.len() {
            self.durations[i].append(&mut other.durations[i]);
            self.total_ns[i] += other.total_ns[i];
            self.self_ns[i] += other.self_ns[i];
        }
        self.root_ns += other.root_ns;
        self.replay_ns += other.replay_ns;
        self.layer_ns += other.layer_ns;
    }

    /// Traced wall time with the replays taken out, ns.
    #[must_use]
    pub fn wall_ns(&self) -> u64 {
        self.root_ns.saturating_sub(self.replay_ns)
    }

    /// Time inside replay spans, ns.
    #[must_use]
    pub fn replay_ns(&self) -> u64 {
        self.replay_ns
    }

    /// Share of traced wall time covered by layer spans.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        ratio(self.layer_ns as f64, self.wall_ns() as f64)
    }

    /// Exact samples of one span's durations (µs).
    #[must_use]
    pub fn samples(&self, name: Name) -> Samples {
        Samples::new(self.durations[name as usize].clone())
    }

    /// How many spans of `name` closed.
    #[must_use]
    pub fn count(&self, name: Name) -> usize {
        self.durations[name as usize].len()
    }

    /// Total time (ns) in spans of `name`.
    #[must_use]
    pub fn total_ns(&self, name: Name) -> f64 {
        self.total_ns[name as usize] as f64
    }

    /// Self time (ns) in spans of `name`.
    #[must_use]
    pub fn self_ns(&self, name: Name) -> u64 {
        self.self_ns[name as usize]
    }

    /// Median span duration in µs (0 when none closed).
    #[must_use]
    pub fn median_us(&self, name: Name) -> f64 {
        self.samples(name).median()
    }

    /// Self time per layer for the log: `layer_self_ms: core=… net=…`.
    #[must_use]
    pub fn layer_line(&self) -> String {
        let mut per_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for name in Name::ALL {
            let layer = name.as_str().split('.').next().unwrap_or("");
            *per_layer.entry(layer).or_insert(0.0) += self.self_ns(name) as f64 / 1e6;
        }
        let parts: Vec<String> = per_layer.iter().map(|(l, ms)| format!("{l}={ms:.3}")).collect();
        format!("layer_self_ms: {}", parts.join(" "))
    }
}

/// `a / b`, or 0 when `b` is 0.
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Writes spans as tab-separated lines:
/// `group id parent name start_ns end_ns` (`parent` is `-` for roots;
/// ids number the spans of one recorder, one batch per recorder).
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_spans(path: &std::path::Path, batches: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# group\tid\tparent\tname\tstart_ns\tend_ns")?;
    for spans in batches {
        for s in spans {
            let parent = if s.parent == ROOT { "-".to_owned() } else { s.parent.to_string() };
            writeln!(
                out,
                "{}\t{}\t{parent}\t{}\t{}\t{}",
                s.group,
                s.id,
                s.name.as_str(),
                s.start,
                s.end
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closed(t: &mut Tracer, name: Name, f: impl FnOnce(&mut Tracer)) {
        let open = t.begin(name);
        f(t);
        t.end(open);
    }

    #[test]
    fn self_time_coverage_and_kept_prefix_follow_the_tree() {
        let mut t = Tracer::on(Instant::now(), 3);
        closed(&mut t, Name::Match, |t| {
            closed(t, Name::Frame, |t| {
                closed(t, Name::CoreTick, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                closed(t, Name::CryptoVerify, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(1))
                });
                closed(t, Name::GameOutcomes, |t| closed(t, Name::LobbyReport, |_| ()));
            });
        });
        let (a, kept) = t.finish();
        assert_eq!(a.count(Name::CoreTick), 1);
        assert_eq!(a.total_ns(Name::Match) as u64, a.root_ns);
        assert!(a.replay_ns >= 1_000_000);
        // Layer spans under the frame: tick and outcomes, not the nested report.
        let layer = a.total_ns(Name::CoreTick) + a.total_ns(Name::GameOutcomes);
        assert_eq!(a.layer_ns, layer as u64);
        let children = layer + a.total_ns(Name::CryptoVerify);
        assert_eq!(a.self_ns(Name::Frame), (a.total_ns(Name::Frame) - children) as u64);
        assert!(a.coverage() > 0.9 && a.coverage() <= 1.0);
        let ids: Vec<u32> = kept.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(kept[2].parent, 1);
    }

    #[test]
    fn all_names_index_themselves() {
        for (i, name) in Name::ALL.iter().enumerate() {
            assert_eq!(*name as usize, i, "{}", name.as_str());
        }
    }

    #[test]
    fn off_records_nothing() {
        let mut off = Tracer::off();
        closed(&mut off, Name::Match, |_| ());
        let (a, kept) = off.finish();
        assert!(kept.is_empty());
        assert_eq!(a.count(Name::Match), 0);
    }
}
