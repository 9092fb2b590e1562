//! Message-flow drivers: replaying a recorded game over a simulated
//! network under each architecture.
//!
//! This is the reproduction of the paper's replay engine, which "can
//! replay game traces and generate the same network traffic repeatedly and
//! under different networking and proxy architectures to measure different
//! aspects of the performance (e.g., latency)". Four drivers share the
//! [`OverlayReport`] output:
//!
//! * [`run_watchmen`] — the protocol itself: one real [`ProtocolCore`] per
//!   player on a [`MatchLoop`], so ages come from the nodes' verified
//!   deliveries and bandwidth from the encoded bytes they put on the wire.
//! * [`run_donnybrook`] — the multi-resolution baseline: direct frequent
//!   updates to interest-set subscribers, dead reckoning to everyone else.
//! * [`run_client_server`] — the optimal-exposure baseline: one server
//!   relays frequent updates for PVS-visible avatars only.
//! * [`run_hybrid`] — one trusted server proxies every player.
//!
//! The three baselines are small message-flow models that charge each
//! message its [`WireSizes`] class size.

use std::collections::BTreeMap;
use std::sync::Arc;

use watchmen_crypto::schnorr::Keypair;
use watchmen_game::trace::GameTrace;
use watchmen_game::PlayerId;
use watchmen_math::stats::Histogram;
use watchmen_net::{latency::LatencyModel, Delivery, SimNetwork};
use watchmen_telemetry as telemetry;
use watchmen_world::{potentially_visible_set, GameMap, PhysicsConfig};

use crate::match_loop::MatchLoop;
use crate::node::{NodeEvent, WatchmenNode};
use crate::sans_io::ProtocolCore;
use crate::subscription::{compute_sets, NoRecency, SetKind};
use crate::WatchmenConfig;

/// Wire sizes in bytes per message class, as the signed [`crate::msg`]
/// codec encodes them (envelope + 16-byte signature; state ≈ the paper's
/// 700-bit updates, signature ≈ the 100-bit class). The baselines charge
/// each message its class size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireSizes {
    /// Frequent full state update.
    pub state: usize,
    /// Dead-reckoning guidance.
    pub guidance: usize,
    /// Infrequent position-only update.
    pub position: usize,
    /// Subscribe/unsubscribe control message.
    pub subscribe: usize,
}

impl Default for WireSizes {
    fn default() -> Self {
        // Pinned to the codec by `wire_sizes_match_the_signed_codec`.
        WireSizes { state: 114, guidance: 133, position: 61, subscribe: 42 }
    }
}

/// The simulated wire message exchanged by the baseline drivers.
#[derive(Debug, Clone, PartialEq)]
pub enum OverlayMsg {
    /// An update about `about`, generated in `gen_frame`.
    Update {
        /// Update class.
        class: UpdateClass,
        /// The player the update describes.
        about: PlayerId,
        /// Frame the update was generated in.
        gen_frame: u64,
        /// `true` while on the player → server leg.
        to_proxy: bool,
    },
    /// A subscription request to the hybrid architecture's server.
    Subscribe {
        /// Who subscribes.
        subscriber: PlayerId,
        /// Whose updates are requested.
        target: PlayerId,
        /// IS or VS.
        kind: SetKind,
    },
}

/// The three update classes of the subscription model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateClass {
    /// Frequent full state (IS subscribers).
    State,
    /// Dead-reckoning guidance (VS subscribers).
    Guidance,
    /// Infrequent position (others).
    Position,
}

/// Metrics from one overlay run — the raw material for Figure 7 and the
/// scalability table.
#[derive(Debug)]
pub struct OverlayReport {
    /// Which driver produced this.
    pub architecture: &'static str,
    /// Latency model name.
    pub latency_model: String,
    /// Frames replayed.
    pub frames: u64,
    /// Player count (excluding any server node).
    pub players: usize,
    /// Histogram of delivered-update ages in frames (Figure 7's PDF).
    pub ages: Histogram,
    /// Updates arriving `loss_age_frames` or older, plus network drops,
    /// as a fraction of all updates sent to final consumers.
    pub late_or_lost: f64,
    /// Mean per-player upload in kbps.
    pub mean_up_kbps: f64,
    /// Maximum per-player upload in kbps.
    pub max_up_kbps: f64,
    /// Mean per-player download in kbps.
    pub mean_down_kbps: f64,
    /// Server upload in kbps (client/server only, else 0).
    pub server_up_kbps: f64,
    /// Total updates delivered to final consumers.
    pub updates_delivered: u64,
    /// Messages dropped by the network.
    pub network_dropped: u64,
}

impl OverlayReport {
    /// The fraction of delivered updates with age `< frames`.
    #[must_use]
    pub fn fraction_younger_than(&self, frames: u64) -> f64 {
        (0..frames.min(self.ages.buckets() as u64)).map(|i| self.ages.fraction(i as usize)).sum()
    }
}

/// Shared age/accounting state, mirrored into the global telemetry
/// registry labelled by driver architecture.
struct Metrics {
    ages: Histogram,
    frame_ms: f64,
    delivered: u64,
    late: u64,
    loss_age: u64,
    delivered_total: Arc<telemetry::Counter>,
    late_total: Arc<telemetry::Counter>,
    age_frames: Arc<telemetry::Histogram>,
}

impl Metrics {
    fn new(config: &WatchmenConfig, architecture: &'static str) -> Self {
        let t = telemetry::global();
        t.describe("sim_updates_delivered_total", "Updates delivered to final consumers");
        t.describe("sim_updates_late_total", "Delivered updates at or past the loss-age bound");
        t.describe("sim_update_age_frames", "Age of delivered updates in frames");
        let arch = &[("arch", architecture)];
        Metrics {
            ages: Histogram::new(0.0, 10.0, 10),
            frame_ms: config.frame_ms,
            delivered: 0,
            late: 0,
            loss_age: config.loss_age_frames,
            delivered_total: t.counter_with("sim_updates_delivered_total", arch),
            late_total: t.counter_with("sim_updates_late_total", arch),
            age_frames: t.histogram_with("sim_update_age_frames", arch),
        }
    }

    fn record(&mut self, gen_frame: u64, deliver_ms: f64) {
        let arrival_frame = (deliver_ms / self.frame_ms).floor() as u64;
        let age = arrival_frame.saturating_sub(gen_frame) as f64;
        self.ages.push(age);
        self.age_frames.record(age);
        self.delivered += 1;
        self.delivered_total.inc();
        if age >= self.loss_age as f64 {
            self.late += 1;
            self.late_total.inc();
        }
    }
}

fn finish_report<T>(
    architecture: &'static str,
    net: &SimNetwork<T>,
    metrics: Metrics,
    players: usize,
    frames: u64,
    config: &WatchmenConfig,
    server: Option<usize>,
) -> OverlayReport {
    let elapsed_ms = frames as f64 * config.frame_ms;
    let ups: Vec<f64> = (0..players).map(|i| net.meter(i).up_kbps(elapsed_ms)).collect();
    let downs: Vec<f64> = (0..players).map(|i| net.meter(i).down_kbps(elapsed_ms)).collect();
    let t = telemetry::global();
    t.describe("sim_player_up_kbps", "Per-player upstream bandwidth over a full run");
    t.describe("sim_player_down_kbps", "Per-player downstream bandwidth over a full run");
    let arch = &[("arch", architecture)];
    let up_hist = t.histogram_with("sim_player_up_kbps", arch);
    let down_hist = t.histogram_with("sim_player_down_kbps", arch);
    for (&up, &down) in ups.iter().zip(&downs) {
        up_hist.record(up);
        down_hist.record(down);
    }
    let dropped = net.stats().dropped;
    let denominator = (metrics.delivered + dropped).max(1);
    OverlayReport {
        architecture,
        latency_model: net.latency_name().to_owned(),
        frames,
        players,
        late_or_lost: (metrics.late + dropped) as f64 / denominator as f64,
        mean_up_kbps: ups.iter().sum::<f64>() / players as f64,
        max_up_kbps: ups.iter().copied().fold(0.0, f64::max),
        mean_down_kbps: downs.iter().sum::<f64>() / players as f64,
        server_up_kbps: server.map_or(0.0, |s| net.meter(s).up_kbps(elapsed_ms)),
        updates_delivered: metrics.delivered,
        network_dropped: dropped,
        ages: metrics.ages,
    }
}

/// Per-proxied-player subscriber bookkeeping at a proxy.
#[derive(Debug, Clone, Default)]
struct SubscriberLists {
    /// subscriber → expiry frame.
    is_subs: BTreeMap<PlayerId, u64>,
    vs_subs: BTreeMap<PlayerId, u64>,
}

impl SubscriberLists {
    fn add(&mut self, subscriber: PlayerId, kind: SetKind, expiry: u64) {
        match kind {
            SetKind::Interest => {
                self.is_subs.insert(subscriber, expiry);
            }
            SetKind::Vision => {
                self.vs_subs.insert(subscriber, expiry);
            }
            SetKind::Others => {}
        }
    }

    fn expire(&mut self, frame: u64) {
        self.is_subs.retain(|_, &mut e| e > frame);
        self.vs_subs.retain(|_, &mut e| e > frame);
    }
}

/// Replays the trace through the real protocol: one secured
/// [`ProtocolCore`] per player (keys from `Keypair::generate(seed ^ i)`,
/// proxy schedule from `seed`) on a [`MatchLoop`] over the given
/// network. Every verified [`NodeEvent::Delivery`] counts as a delivered
/// update, aged `floor(deliver_ms / frame_ms) − gen_frame`; bandwidth is
/// what the simnet meters saw, the real encoded bytes.
///
/// # Panics
///
/// Panics if the trace has fewer than 2 players or is empty.
#[must_use]
pub fn run_watchmen(
    trace: &GameTrace,
    map: &GameMap,
    config: &WatchmenConfig,
    latency: Box<dyn LatencyModel>,
    loss_rate: f64,
    seed: u64,
) -> OverlayReport {
    assert!(trace.players >= 2 && !trace.is_empty());
    let n = trace.players;
    let keys: Vec<Keypair> = (0..n).map(|i| Keypair::generate(seed ^ i as u64)).collect();
    let directory: Vec<_> = keys.iter().map(Keypair::public).collect();
    let cores = keys
        .into_iter()
        .enumerate()
        .map(|(i, k)| {
            Some(ProtocolCore::new(WatchmenNode::new(
                PlayerId(i as u32),
                k,
                directory.clone(),
                seed,
                *config,
                map.clone(),
                PhysicsConfig::default(),
            )))
        })
        .collect();
    let net = SimNetwork::new(n, latency, loss_rate, seed);
    let mut lp = MatchLoop::new(cores, net, config.frame_ms);
    let mut metrics = Metrics::new(config, "watchmen");

    let frames = trace.len() as u64;
    for f in 0..frames {
        let states = &trace.frames[f as usize].states;
        lp.run_frame(
            f,
            |i| states[i],
            |_, at_ms, e| {
                if let NodeEvent::Delivery { gen_frame, .. } = e {
                    metrics.record(*gen_frame, at_ms);
                }
            },
        );
    }
    finish_report("watchmen", &lp.net, metrics, n, frames, config, None)
}

/// Runs the Donnybrook baseline: frequent updates direct to interest-set
/// subscribers, dead-reckoning broadcast to everyone else at 1 Hz.
///
/// # Panics
///
/// Panics if the trace has fewer than 2 players or is empty.
#[must_use]
pub fn run_donnybrook(
    trace: &GameTrace,
    map: &GameMap,
    config: &WatchmenConfig,
    latency: Box<dyn LatencyModel>,
    loss_rate: f64,
    seed: u64,
) -> OverlayReport {
    assert!(trace.players >= 2 && !trace.is_empty());
    let n = trace.players;
    let sizes = WireSizes::default();
    let mut net: SimNetwork<OverlayMsg> = SimNetwork::new(n, latency, loss_rate, seed);
    let mut metrics = Metrics::new(config, "donnybrook");

    let frames = trace.len() as u64;
    for frame in 0..frames {
        let frame_end = (frame + 1) as f64 * config.frame_ms;
        while net.next_delivery_ms().is_some_and(|t| t <= frame_end) {
            let t = net.next_delivery_ms().expect("peeked");
            for d in net.advance_to(t) {
                if let OverlayMsg::Update { gen_frame, .. } = d.payload {
                    metrics.record(gen_frame, t);
                }
            }
        }
        if net.now_ms() < frame as f64 * config.frame_ms {
            let _ = net.advance_to(frame as f64 * config.frame_ms);
        }

        let states = &trace.frames[frame as usize].states;
        // Interest sets determine who receives whose frequent updates.
        for p in 0..n {
            let pid = PlayerId(p as u32);
            if !states[p].is_alive() {
                continue;
            }
            let sets = compute_sets(pid, states, map, config, &NoRecency);
            // Donnybrook: p receives frequent updates about its IS — the
            // *members* send them directly to p.
            for member in &sets.interest {
                net.send(
                    member.index(),
                    p,
                    OverlayMsg::Update {
                        class: UpdateClass::State,
                        about: *member,
                        gen_frame: frame,
                        to_proxy: false,
                    },
                    sizes.state,
                );
            }
            // 1 Hz dead reckoning from p to everyone (not in their IS —
            // approximated as broadcast, the paper's lower bound remark).
            if config.is_guidance_frame(frame, p) {
                for q in 0..n {
                    if q != p {
                        net.send(
                            p,
                            q,
                            OverlayMsg::Update {
                                class: UpdateClass::Guidance,
                                about: pid,
                                gen_frame: frame,
                                to_proxy: false,
                            },
                            sizes.guidance,
                        );
                    }
                }
            }
        }
    }

    finish_report("donnybrook", &net, metrics, n, frames, config, None)
}

/// Runs the optimal Client/Server baseline: every player sends its state
/// to the server each frame; the server relays to exactly the players
/// whose PVS contains the sender, and nothing else.
///
/// # Panics
///
/// Panics if the trace has fewer than 2 players or is empty.
#[must_use]
pub fn run_client_server(
    trace: &GameTrace,
    map: &GameMap,
    config: &WatchmenConfig,
    latency: Box<dyn LatencyModel>,
    loss_rate: f64,
    seed: u64,
) -> OverlayReport {
    assert!(trace.players >= 2 && !trace.is_empty());
    let n = trace.players;
    let server = n; // extra node
    let sizes = WireSizes::default();
    let mut net: SimNetwork<OverlayMsg> = SimNetwork::new(n + 1, latency, loss_rate, seed);
    let mut metrics = Metrics::new(config, "client-server");

    // Per-frame PVS cache: visibility is symmetric in open space but we
    // store the full per-observer sets; recomputed once per frame rather
    // than per delivery (PVS per delivery is quadratic in players).
    let mut pvs_cache: Vec<Vec<usize>> = Vec::new();

    let frames = trace.len() as u64;
    for frame in 0..frames {
        let frame_end = (frame + 1) as f64 * config.frame_ms;
        let states = &trace.frames[frame as usize].states;
        let positions: Vec<_> = states.iter().map(|s| s.position).collect();
        pvs_cache.clear();
        for q in 0..n {
            pvs_cache.push(potentially_visible_set(map, &positions, q, config.vision_radius));
        }

        while net.next_delivery_ms().is_some_and(|t| t <= frame_end) {
            let t = net.next_delivery_ms().expect("peeked");
            let batch: Vec<Delivery<OverlayMsg>> = net.advance_to(t);
            for d in batch {
                if let OverlayMsg::Update { class, about, gen_frame, to_proxy } = d.payload {
                    if d.to == server && to_proxy {
                        // Relay to players whose PVS contains `about`.
                        for q in 0..n {
                            if q == about.index() || !states[q].is_alive() {
                                continue;
                            }
                            if pvs_cache[q].contains(&about.index()) {
                                net.send(
                                    server,
                                    q,
                                    OverlayMsg::Update { class, about, gen_frame, to_proxy: false },
                                    sizes.state,
                                );
                            }
                        }
                    } else if d.to != server {
                        metrics.record(gen_frame, t);
                    }
                }
            }
        }
        if net.now_ms() < frame as f64 * config.frame_ms {
            let _ = net.advance_to(frame as f64 * config.frame_ms);
        }

        #[allow(clippy::needless_range_loop)] // states indexed by player id
        for p in 0..n {
            if !states[p].is_alive() {
                continue;
            }
            net.send(
                p,
                server,
                OverlayMsg::Update {
                    class: UpdateClass::State,
                    about: PlayerId(p as u32),
                    gen_frame: frame,
                    to_proxy: true,
                },
                sizes.state,
            );
        }
    }

    finish_report("client-server", &net, metrics, n, frames, config, Some(server))
}

/// Runs the hybrid architecture of §VI: "if game servers exist they can
/// be easily incorporated by providing the game lobby, extra bandwidth,
/// and becoming the proxy for some or all players". Here one trusted
/// server node is the proxy for *all* players — the same multi-resolution
/// subscription model as Watchmen, but with proxy duty centralized, so no
/// randomization/handoff traffic is needed.
///
/// # Panics
///
/// Panics if the trace has fewer than 2 players or is empty.
#[must_use]
pub fn run_hybrid(
    trace: &GameTrace,
    map: &GameMap,
    config: &WatchmenConfig,
    latency: Box<dyn LatencyModel>,
    loss_rate: f64,
    seed: u64,
) -> OverlayReport {
    assert!(trace.players >= 2 && !trace.is_empty());
    let n = trace.players;
    let server = n;
    let sizes = WireSizes::default();
    let mut net: SimNetwork<OverlayMsg> = SimNetwork::new(n + 1, latency, loss_rate, seed);
    let mut metrics = Metrics::new(config, "hybrid");

    // All subscriber lists live at the server.
    let mut lists: BTreeMap<PlayerId, SubscriberLists> = BTreeMap::new();
    let mut my_subs: Vec<BTreeMap<(PlayerId, SetKind), u64>> = vec![BTreeMap::new(); n];

    let frames = trace.len() as u64;
    for frame in 0..frames {
        let frame_end = (frame + 1) as f64 * config.frame_ms;
        while net.next_delivery_ms().is_some_and(|t| t <= frame_end) {
            let t = net.next_delivery_ms().expect("peeked");
            let batch: Vec<Delivery<OverlayMsg>> = net.advance_to(t);
            for d in batch {
                match d.payload {
                    OverlayMsg::Update { class, about, gen_frame, to_proxy } => {
                        if d.to == server && to_proxy {
                            let now_frame = (t / config.frame_ms) as u64;
                            let entry = lists.entry(about).or_default();
                            entry.expire(now_frame);
                            let (targets, size): (Vec<PlayerId>, usize) = match class {
                                UpdateClass::State => {
                                    (entry.is_subs.keys().copied().collect(), sizes.state)
                                }
                                UpdateClass::Guidance => {
                                    (entry.vs_subs.keys().copied().collect(), sizes.guidance)
                                }
                                UpdateClass::Position => {
                                    let explicit: Vec<PlayerId> = entry
                                        .is_subs
                                        .keys()
                                        .chain(entry.vs_subs.keys())
                                        .copied()
                                        .collect();
                                    let all = (0..n as u32)
                                        .map(PlayerId)
                                        .filter(|&p| p != about && !explicit.contains(&p))
                                        .collect();
                                    (all, sizes.position)
                                }
                            };
                            for target in targets {
                                net.send(
                                    server,
                                    target.index(),
                                    OverlayMsg::Update { class, about, gen_frame, to_proxy: false },
                                    size,
                                );
                            }
                        } else if d.to != server {
                            metrics.record(gen_frame, t);
                        }
                    }
                    OverlayMsg::Subscribe { subscriber, target, kind } => {
                        // Single hop: subscriptions land directly at the
                        // trusted server.
                        let now_frame = (t / config.frame_ms) as u64;
                        lists.entry(target).or_default().add(
                            subscriber,
                            kind,
                            now_frame + config.subscription_retention,
                        );
                    }
                }
            }
        }
        if net.now_ms() < frame as f64 * config.frame_ms {
            let _ = net.advance_to(frame as f64 * config.frame_ms);
        }

        let states = &trace.frames[frame as usize].states;
        #[allow(clippy::needless_range_loop)] // parallel arrays indexed by player
        for p in 0..n {
            let pid = PlayerId(p as u32);
            if !states[p].is_alive() {
                continue;
            }
            let sets = compute_sets(pid, states, map, config, &NoRecency);
            let wanted: Vec<(PlayerId, SetKind)> = sets
                .interest
                .iter()
                .map(|&t| (t, SetKind::Interest))
                .chain(sets.vision.iter().map(|&t| (t, SetKind::Vision)))
                .collect();
            for (target, kind) in wanted {
                let refresh_due = my_subs[p]
                    .get(&(target, kind))
                    .is_none_or(|&last| frame >= last + config.subscription_retention / 2);
                if refresh_due {
                    my_subs[p].insert((target, kind), frame);
                    net.send(
                        p,
                        server,
                        OverlayMsg::Subscribe { subscriber: pid, target, kind },
                        sizes.subscribe,
                    );
                }
            }
            my_subs[p].retain(|_, &mut last| frame < last + 4 * config.subscription_retention);

            net.send(
                p,
                server,
                OverlayMsg::Update {
                    class: UpdateClass::State,
                    about: pid,
                    gen_frame: frame,
                    to_proxy: true,
                },
                sizes.state,
            );
            if config.is_guidance_frame(frame, p) {
                net.send(
                    p,
                    server,
                    OverlayMsg::Update {
                        class: UpdateClass::Guidance,
                        about: pid,
                        gen_frame: frame,
                        to_proxy: true,
                    },
                    sizes.guidance,
                );
            }
            if config.is_others_frame(frame, p) {
                net.send(
                    p,
                    server,
                    OverlayMsg::Update {
                        class: UpdateClass::Position,
                        about: pid,
                        gen_frame: frame,
                        to_proxy: true,
                    },
                    sizes.position,
                );
            }
        }
    }

    finish_report("hybrid", &net, metrics, n, frames, config, Some(server))
}

#[cfg(test)]
mod tests {
    use super::*;
    use watchmen_game::trace::standard_trace;
    use watchmen_net::latency;
    use watchmen_world::maps;

    fn small_inputs() -> (GameTrace, GameMap, WatchmenConfig) {
        (standard_trace(8, 3, 200), maps::q3dm17_like(), WatchmenConfig::default())
    }

    #[test]
    fn wire_sizes_match_the_signed_codec() {
        use crate::dead_reckoning::Guidance;
        use crate::msg::{Envelope, Payload, PositionUpdate, StateUpdate};

        let (trace, _, config) = small_inputs();
        let keys = Keypair::generate(3);
        let player = &trace.frames[10].states[1];
        let size = |payload| {
            Envelope { from: PlayerId(1), seq: 10, frame: 10, payload }.sign(&keys).encode().len()
        };
        let guidance = Guidance::from_state(player, 10, config.guidance_period, 0.05);
        let sizes = WireSizes::default();
        assert_eq!(sizes.state, size(Payload::State(StateUpdate::from(player))));
        assert_eq!(sizes.guidance, size(Payload::Guidance(guidance)));
        assert_eq!(
            sizes.position,
            size(Payload::Position(PositionUpdate { position: player.position }))
        );
        assert_eq!(
            sizes.subscribe,
            size(Payload::Subscribe { target: PlayerId(2), kind: SetKind::Interest })
        );
    }

    #[test]
    fn watchmen_delivers_updates_with_low_age() {
        let (trace, map, config) = small_inputs();
        let report = run_watchmen(&trace, &map, &config, latency::constant(20.0), 0.0, 7);
        assert!(report.updates_delivered > 1000, "{}", report.updates_delivered);
        // Two constant 20 ms hops = 40 ms < 1 frame budget for most.
        assert!(
            report.fraction_younger_than(3) > 0.9,
            "young fraction {}",
            report.fraction_younger_than(3)
        );
        assert!(report.mean_up_kbps > 0.0);
    }

    #[test]
    fn watchmen_loss_counts_drops() {
        let (trace, map, config) = small_inputs();
        let lossless = run_watchmen(&trace, &map, &config, latency::constant(20.0), 0.0, 7);
        let lossy = run_watchmen(&trace, &map, &config, latency::constant(20.0), 0.05, 7);
        assert_eq!(lossless.network_dropped, 0);
        assert!(lossy.network_dropped > 0);
        assert!(lossy.late_or_lost > lossless.late_or_lost);
    }

    #[test]
    fn donnybrook_delivers_one_hop_faster_legs() {
        let (trace, map, config) = small_inputs();
        let report = run_donnybrook(&trace, &map, &config, latency::constant(20.0), 0.0, 7);
        assert!(report.updates_delivered > 1000);
        // Single 20 ms hop: virtually everything inside 1 frame.
        assert!(report.fraction_younger_than(2) > 0.95);
    }

    #[test]
    fn client_server_relays_pvs_only() {
        let (trace, map, config) = small_inputs();
        let report = run_client_server(&trace, &map, &config, latency::constant(10.0), 0.0, 7);
        assert!(report.updates_delivered > 0);
        assert!(report.server_up_kbps > 0.0, "server should relay");
        // Two 10 ms hops stay within the budget.
        assert!(report.fraction_younger_than(3) > 0.9);
    }

    #[test]
    fn deterministic_runs() {
        let (trace, map, config) = small_inputs();
        let a = run_watchmen(&trace, &map, &config, latency::king_like(8, 5), 0.01, 5);
        let b = run_watchmen(&trace, &map, &config, latency::king_like(8, 5), 0.01, 5);
        assert_eq!(a.updates_delivered, b.updates_delivered);
        assert_eq!(a.network_dropped, b.network_dropped);
        assert_eq!(a.mean_up_kbps, b.mean_up_kbps);
    }

    #[test]
    fn hybrid_centralizes_proxy_duty() {
        let (trace, map, config) = small_inputs();
        let hybrid = run_hybrid(&trace, &map, &config, latency::constant(15.0), 0.0, 13);
        let p2p = run_watchmen(&trace, &map, &config, latency::constant(15.0), 0.0, 13);
        assert!(hybrid.updates_delivered > 1000);
        // The trusted server carries the forwarding load…
        assert!(hybrid.server_up_kbps > hybrid.mean_up_kbps * 2.0);
        // …so player uplinks are lighter than in pure P2P Watchmen.
        assert!(
            hybrid.mean_up_kbps < p2p.mean_up_kbps,
            "hybrid {} vs p2p {}",
            hybrid.mean_up_kbps,
            p2p.mean_up_kbps
        );
        // And latency behaviour is the same two-hop class.
        assert!(hybrid.fraction_younger_than(3) > 0.9);
    }

    #[test]
    fn watchmen_bandwidth_beats_full_broadcast() {
        let (trace, map, config) = small_inputs();
        let report = run_watchmen(&trace, &map, &config, latency::constant(20.0), 0.0, 11);
        // Full mesh would be state-size × (n−1) × 20 Hz per player
        // upstream ≈ 107·8·7·20 bits/ms. Watchmen's multi-resolution +
        // proxy scheme must come in well under the all-pairs bound for
        // the publisher leg… but proxies forward, so compare mean.
        let full_mesh_kbps = (107.0 * 8.0 * 7.0 * 20.0) / 1000.0;
        assert!(
            report.mean_up_kbps < full_mesh_kbps,
            "mean {} vs mesh {}",
            report.mean_up_kbps,
            full_mesh_kbps
        );
    }
}
