//! The benchmark's own deliver-then-tick match loop over
//! `ProtocolCore`, `SimNetwork` and `GameLobby`.
//!
//! It makes the same public calls, in the same order, as
//! `watchmen_fleet::cell::MatchCell` and folds them into the same
//! [`MatchReport`], so a traced match can be checked field for field
//! against the orchestrator's own cell. Around each call it can open a
//! span (see [`crate::trace`]).

use watchmen_core::audit::AuditRecord;
use watchmen_core::lobby::{GameLobby, LobbyEvent};
use watchmen_core::msg::SignedEnvelope;
use watchmen_core::node::{NodeEvent, Outgoing, WatchmenNode};
use watchmen_core::sans_io::ProtocolCore;
use watchmen_core::subscription::{compute_sets, NoRecency};
use watchmen_core::verify::checks;
use watchmen_core::WatchmenConfig;
use watchmen_crypto::schnorr::{Keypair, PublicKey, SIGNATURE_LEN};
use watchmen_fleet::MatchReport;
use watchmen_game::trace::{GameTrace, PlayerFrame};
use watchmen_game::PlayerId;
use watchmen_math::Vec3;
use watchmen_net::{latency, SimNetwork};
use watchmen_sim::quality::{evaluate, DetectionQuality, GroundTruth};
use watchmen_sim::workload::match_workload;
use watchmen_world::{GameMap, PhysicsConfig};

use crate::trace::{Name, Tracer};

// The fleet cell's private constants, mirrored so a fleet16 match played
// here is the match the orchestrator plays.
const RECORDER_CAPACITY: usize = 128;
const FLEET_LATENCY_MS: f64 = 8.0;
const CHEAT_OFFSET: f64 = 30.0;
const FIRST_CHEAT_FRAME: u64 = 4;

/// Severe-verdict bar shared by every gate in the repository.
const SEVERE: u8 = 6;

/// Everything that defines one match.
#[derive(Debug, Clone)]
pub struct Plan {
    pub id: u64,
    pub players: usize,
    pub frames: u64,
    pub seed: u64,
    pub cheaters: Vec<u32>,
}

/// What a match measured beyond its [`MatchReport`].
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Simulated age (ms) of every State update a subscriber received
    /// from a relaying proxy.
    pub update_age_ms: Vec<f64>,
    /// Datagrams and bytes handed to the simnet.
    pub sent: u64,
    pub sent_bytes: u64,
    /// Whether the simnet's conservation invariant held at the end.
    pub net_invariant: bool,
    /// Replayed decode/verify/sign results that disagreed with the wire.
    pub replay_mismatches: u64,
    /// Audit records drained.
    pub audit_records: u64,
}

impl Measured {
    /// Upload per player in kbit/s of simulated time.
    #[must_use]
    pub fn upload_kbps_per_player(&self, players: usize, frames: u64, frame_ms: f64) -> f64 {
        let seconds = frames as f64 * frame_ms / 1000.0;
        self.sent_bytes as f64 * 8.0 / 1000.0 / players as f64 / seconds
    }
}

/// One match in progress.
pub struct Match {
    plan: Plan,
    config: WatchmenConfig,
    cores: Vec<ProtocolCore>,
    keys: Vec<Keypair>,
    directory: Vec<PublicKey>,
    net: SimNetwork<Vec<u8>>,
    lobby: GameLobby,
    trace: GameTrace,
    map: GameMap,
    frame: u64,
    per_cheater: Vec<u64>,
    false_verdicts: u64,
    bad_signatures: u64,
    banned: u64,
    audit: Vec<AuditRecord>,
    /// Highest sequence number each node has originated (sign replay).
    signed_upto: Vec<Option<u64>>,
    /// This frame's delivered datagrams and tick inputs, kept for the
    /// frame's replay batch (traced runs only).
    received: Vec<Vec<u8>>,
    ticked: Vec<PlayerFrame>,
    measured: Measured,
}

impl Match {
    /// Builds the match world from the plan: recorded game trace, keys,
    /// lobby, one secured core per player, simnet.
    #[must_use]
    pub fn build(plan: Plan, tr: &mut Tracer) -> Self {
        let config = WatchmenConfig::default();
        let (players, seed) = (plan.players, plan.seed);
        let workload = tr.time(Name::GameRecord, || match_workload(players, seed, plan.frames));
        let keys: Vec<Keypair> = tr.time(Name::CryptoKeygen, || {
            (0..players).map(|i| Keypair::generate(seed ^ i as u64)).collect()
        });
        let mut lobby = tr.time(Name::LobbyNew, || {
            GameLobby::new(seed, config, plan.frames + 1)
                .with_keys(Keypair::generate(seed ^ 0xf1ee7))
        });
        tr.time(Name::LobbyRegister, || {
            for k in &keys {
                lobby.register(k.public());
            }
        });
        tr.time(Name::LobbyStart, || lobby.start());
        let lobby_key = lobby.lobby_key().expect("lobby built with keys");
        let directory = lobby.directory().to_vec();
        let cores: Vec<ProtocolCore> = tr.time(Name::CoreNew, || {
            keys.iter()
                .enumerate()
                .map(|(i, k)| {
                    ProtocolCore::new(
                        WatchmenNode::new(
                            PlayerId(i as u32),
                            k.clone(),
                            directory.clone(),
                            seed,
                            config,
                            workload.map.clone(),
                            PhysicsConfig::default(),
                        )
                        .with_lobby_key(lobby_key)
                        .with_recorder_capacity(RECORDER_CAPACITY),
                    )
                })
                .collect()
        });
        let net = tr.time(Name::NetNew, || {
            SimNetwork::new(players, latency::constant(FLEET_LATENCY_MS), 0.0, seed)
        });
        Match {
            per_cheater: vec![0; plan.cheaters.len()],
            signed_upto: vec![None; players],
            received: Vec::new(),
            ticked: Vec::new(),
            config,
            cores,
            keys,
            directory,
            net,
            lobby,
            trace: workload.trace,
            map: workload.map,
            frame: 0,
            false_verdicts: 0,
            bad_signatures: 0,
            banned: 0,
            audit: Vec::new(),
            measured: Measured::default(),
            plan,
        }
    }

    /// Whether every playable frame has run.
    #[must_use]
    pub fn done(&self) -> bool {
        self.frame >= self.plan.frames
    }

    /// One frame: deliver what is due, then tick every node, feeding
    /// suspicions to the lobby; then the lobby's tick and the audit drain.
    pub fn step(&mut self, tr: &mut Tracer) {
        let frame_span = tr.begin(Name::Frame);
        let f = self.frame;
        let now_ms = f as f64 * self.config.frame_ms;
        let deliveries = tr.time(Name::NetAdvance, || self.net.advance_to(now_ms));
        for d in deliveries {
            let out = tr.time(Name::CoreDatagram, || {
                self.cores[d.to].datagram(f, PlayerId(d.from as u32), &d.payload)
            });
            if tr.is_on() {
                self.replay_sign(tr, d.to, &out.datagrams);
            }
            for e in &out.events {
                if let NodeEvent::Delivery { about, class: "state", gen_frame } = e {
                    if about.index() != d.from {
                        let born = *gen_frame as f64 * self.config.frame_ms;
                        self.measured.update_age_ms.push(d.deliver_ms - born);
                    }
                }
            }
            self.tally(tr, d.to, &out.events);
            self.send(tr, d.to, out.datagrams);
            if tr.is_on() {
                self.received.push(d.payload);
            }
        }

        for i in 0..self.plan.players {
            let mut state = self.trace.frames[f as usize].states[i];
            if self.plan.cheaters.contains(&(i as u32)) && f > 0 && f.is_multiple_of(4) {
                state.position.x += CHEAT_OFFSET;
            }
            let out = tr.time(Name::CoreTick, || self.cores[i].tick(f, &state));
            if tr.is_on() {
                self.ticked.push(state);
                self.replay_sign(tr, i, &out.datagrams);
            }
            self.tally(tr, i, &out.events);
            self.send(tr, i, out.datagrams);
            tr.time(Name::LobbyHeartbeat, || self.lobby.heartbeat(PlayerId(i as u32), f));
        }

        let events = tr.time(Name::LobbyTick, || self.lobby.tick(f));
        self.banned += events.iter().filter(|e| matches!(e, LobbyEvent::Banned(_))).count() as u64;
        self.drain_audit(tr);
        self.frame += 1;
        self.replay_batch(tr);
        tr.end(frame_span);
    }

    /// After the last frame: deliver everything still in flight (sending
    /// nothing new), check the simnet invariant and fold the report.
    pub fn finish(mut self, tr: &mut Tracer) -> (MatchReport, Measured) {
        let drain_span = tr.begin(Name::Drain);
        let f = self.plan.frames;
        let horizon = (f as f64 + 2.0) * self.config.frame_ms + 10.0 * FLEET_LATENCY_MS;
        let deliveries = tr.time(Name::NetAdvance, || self.net.advance_to(horizon));
        for d in deliveries {
            let out = tr.time(Name::CoreDatagram, || {
                self.cores[d.to].datagram(f, PlayerId(d.from as u32), &d.payload)
            });
            self.tally(tr, d.to, &out.events);
            if tr.is_on() {
                self.received.push(d.payload);
            }
        }
        self.replay_batch(tr);
        self.measured.net_invariant = self.net.stats().check_invariant().is_ok();
        self.drain_audit(tr);

        let truth = GroundTruth {
            cheaters: self.plan.cheaters.clone(),
            first_cheat_frame: FIRST_CHEAT_FRAME,
            expected_check: checks::POSITION,
            expected_overrides: Vec::new(),
        };
        let quality: DetectionQuality =
            tr.time(Name::AuditEvaluate, || evaluate(&truth, &self.audit));
        tr.end(drain_span);

        let report = MatchReport {
            match_id: self.plan.id,
            players: self.plan.players,
            frames: self.plan.frames,
            cheaters: self.plan.cheaters.len(),
            detected: !self.plan.cheaters.is_empty() && self.per_cheater.iter().all(|&n| n > 0),
            severe_verdicts: self.per_cheater.iter().sum(),
            false_verdicts: self.false_verdicts,
            bad_signatures: self.bad_signatures,
            banned: self.banned,
            messages: self.net.stats().delivered,
            audit_records: self.audit.len() as u64,
            quality,
            audit_lines: Vec::new(),
        };
        self.measured.audit_records = report.audit_records;
        (report, self.measured)
    }

    fn send(&mut self, tr: &mut Tracer, from: usize, datagrams: Vec<Outgoing>) {
        for o in datagrams {
            let size = o.bytes.len();
            self.measured.sent += 1;
            self.measured.sent_bytes += size as u64;
            tr.time(Name::NetSend, || self.net.send(from, o.to.index(), o.bytes, size));
        }
    }

    /// The cell's verdict accounting: every suspicion goes to the lobby;
    /// severe ones split into detections and false verdicts.
    fn tally(&mut self, tr: &mut Tracer, observer: usize, events: &[NodeEvent]) {
        for e in events {
            match e {
                NodeEvent::Suspicion { subject, rating, .. } => {
                    let reporter = PlayerId(observer as u32);
                    tr.time(Name::LobbyReport, || self.lobby.report(reporter, *subject, rating));
                    if rating.score >= SEVERE {
                        match self.plan.cheaters.iter().position(|&c| c == subject.0) {
                            Some(slot) => self.per_cheater[slot] += 1,
                            None => self.false_verdicts += 1,
                        }
                    }
                }
                NodeEvent::BadSignature { .. } => self.bad_signatures += 1,
                _ => {}
            }
        }
    }

    fn drain_audit(&mut self, tr: &mut Tracer) {
        tr.time(Name::AuditDrain, || {
            for core in &mut self.cores {
                self.audit.append(&mut core.drain_audit());
            }
            self.audit.append(&mut self.lobby.drain_audit());
        });
    }

    /// Replays, in one batch at the end of a frame, the receive path of
    /// every datagram delivered in it and the subscription sets of every
    /// node that ticked. The batch sits in one replay span, so its
    /// bookkeeping stays out of the traced wall time too.
    fn replay_batch(&mut self, tr: &mut Tracer) {
        if !tr.is_on() {
            return;
        }
        let batch = tr.begin(Name::Replay);
        let received = std::mem::take(&mut self.received);
        for bytes in &received {
            self.replay_receive(tr, bytes);
        }
        let ticked = std::mem::take(&mut self.ticked);
        for (node, state) in ticked.iter().enumerate() {
            self.replay_sets(tr, node, state);
        }
        self.received = received;
        self.received.clear();
        self.ticked = ticked;
        self.ticked.clear();
        tr.end(batch);
    }

    /// Replays the receive path's codec and crypto: decode the datagram,
    /// verify it against its origin's key.
    fn replay_receive(&mut self, tr: &mut Tracer, bytes: &[u8]) {
        let decoded = tr.time(Name::CodecDecode, || SignedEnvelope::decode(bytes));
        let ok = match decoded {
            Ok(msg) => match self.directory.get(msg.envelope.from.index()) {
                Some(key) => tr.time(Name::CryptoVerify, || msg.verify(key)),
                None => false,
            },
            Err(_) => false,
        };
        if !ok {
            self.measured.replay_mismatches += 1;
        }
    }

    /// Replays signing for each envelope `node` newly originated in
    /// `datagrams` (forwards and resends carry no new signature). Nonces
    /// are deterministic, so the replayed signature must equal the wire.
    fn replay_sign(&mut self, tr: &mut Tracer, node: usize, datagrams: &[Outgoing]) {
        for o in datagrams {
            let bytes = &o.bytes;
            if bytes.len() < 12 + SIGNATURE_LEN {
                self.measured.replay_mismatches += 1;
                continue;
            }
            let from = u32::from_be_bytes(bytes[0..4].try_into().expect("4 bytes"));
            let seq = u64::from_be_bytes(bytes[4..12].try_into().expect("8 bytes"));
            if from as usize != node || self.signed_upto[node].is_some_and(|s| seq <= s) {
                continue;
            }
            self.signed_upto[node] = Some(seq);
            let (body, wire_sig) = bytes.split_at(bytes.len() - SIGNATURE_LEN);
            let sig = tr.time(Name::CryptoSign, || self.keys[node].sign(body));
            if sig.to_bytes() != wire_sig {
                self.measured.replay_mismatches += 1;
            }
        }
    }

    /// Replays the node's subscription-set computation from its learned
    /// knowledge, exactly as the node builds its input table.
    fn replay_sets(&mut self, tr: &mut Tracer, node: usize, mine: &PlayerFrame) {
        let far = Vec3::new(-1e6, -1e6, 0.0);
        let view = self.cores[node].node();
        let states: Vec<PlayerFrame> = (0..self.plan.players)
            .map(|j| {
                if j == node {
                    return *mine;
                }
                match view.known_state(PlayerId(j as u32)) {
                    Some(s) => PlayerFrame {
                        position: s.position,
                        velocity: s.velocity,
                        aim: s.aim,
                        health: s.health,
                        armor: s.armor,
                        weapon: s.weapon,
                        ammo: s.ammo,
                    },
                    None => PlayerFrame { position: far, ..*mine },
                }
            })
            .collect();
        let id = PlayerId(node as u32);
        let (map, config) = (&self.map, &self.config);
        let sets = tr.time(Name::SubscriptionComputeSets, || {
            compute_sets(id, &states, map, config, &NoRecency)
        });
        std::hint::black_box(sets);
    }
}

/// Names a failed match well enough to replay it: the seed it was
/// generated from (the fleet seed of its batch), its report, and which
/// checks misfired.
#[must_use]
pub fn failure_note(seed: u64, r: &MatchReport) -> String {
    let checks: Vec<String> = r
        .quality
        .per_check
        .iter()
        .filter(|(_, c)| c.false_pos > 0 || c.false_neg > 0)
        .map(|(name, c)| format!("{name}:fp={},fn={}", c.false_pos, c.false_neg))
        .collect();
    format!("failed: seed={seed} {} checks=[{}]", r.summary_line(), checks.join(" "))
}
