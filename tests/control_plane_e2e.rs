//! End-to-end exercise of the loss-tolerant control plane: a 16-node
//! cluster runs over [`watchmen::net::SimNetwork`] with a hostile
//! [`watchmen::net::fault::FaultPlan`] — Gilbert–Elliott burst loss,
//! duplication, reordering and one scripted proxy crash — and must still
//! deliver every handoff chain, fall back deterministically around the
//! crashed proxy, and raise **zero** severe cheat verdicts against the
//! all-honest population.

use watchmen::core::match_loop::MatchLoop;
use watchmen::core::node::{NodeEvent, WatchmenNode};
use watchmen::core::proxy::ProxySchedule;
use watchmen::core::sans_io::ProtocolCore;
use watchmen::core::WatchmenConfig;
use watchmen::crypto::schnorr::{Keypair, PublicKey};
use watchmen::game::trace::GameTrace;
use watchmen::game::{GameConfig, PlayerId};
use watchmen::net::fault::{FaultPlan, GilbertElliott};
use watchmen::net::{latency, SimNetwork};
use watchmen::world::{maps, PhysicsConfig};

const PLAYERS: usize = 16;
const SEED: u64 = 2013;
const FRAME_MS: f64 = 50.0;
/// Eight proxy epochs of active play…
const FRAMES: u64 = 320;
/// …then a drain period for retransmissions to finish.
const DRAIN: u64 = 60;

#[test]
fn handoff_chains_survive_loss_duplication_and_a_proxy_crash() {
    let config = WatchmenConfig {
        // Presume a proxy crashed after two silent relay periods (40
        // frames): quick enough that the fallback engages within the
        // crash window of this test, but tolerant of a single lost
        // broadcast cycle (k = 1 flaps under 5% burst loss, and a false
        // crash presumption diverts traffic away from the live proxy).
        proxy_liveness_k: 2,
        ..WatchmenConfig::default()
    };
    config.validate();

    // The crash victim: whichever node the shared schedule makes player
    // 0's proxy in epoch 2, so the fallback path is guaranteed to be
    // exercised. Crashing frames 55..125 spans the epoch boundary at 80.
    let schedule = ProxySchedule::new(SEED, PLAYERS, config.proxy_period);
    let crashed = schedule.proxy_of(PlayerId(0), 2 * config.proxy_period);
    let crash_from_ms = 55.0 * FRAME_MS;
    let crash_to_ms = 125.0 * FRAME_MS;

    let plan = FaultPlan::new(0xeb10)
        .with_burst_loss(GilbertElliott::with_mean_loss(0.05))
        .with_duplication(0.01)
        // Extra delay stays under one frame so reordering produces
        // single-frame swaps, not multi-frame time travel.
        .with_reordering(0.25, 40.0)
        .with_crash(crashed.index(), crash_from_ms, crash_to_ms);

    let mut net: SimNetwork<Vec<u8>> = SimNetwork::new(PLAYERS, latency::constant(8.0), 0.0, 77);
    net.set_fault_plan(plan);

    let keys: Vec<Keypair> = (0..PLAYERS).map(|i| Keypair::generate(SEED ^ i as u64)).collect();
    let directory: Vec<PublicKey> = keys.iter().map(Keypair::public).collect();
    // An open arena: this test exercises the control plane, and the
    // wall-geometry corner cases of the position checker (corner-clip
    // lerp samples, platform landings) fire even on a perfectly honest
    // q3dm17 trace — they are a physics-check concern, not a transport
    // one.
    let map = maps::arena(32, 10.0);
    let cores: Vec<Option<ProtocolCore>> = keys
        .into_iter()
        .enumerate()
        .map(|(i, k)| {
            Some(ProtocolCore::new(WatchmenNode::new(
                PlayerId(i as u32),
                k,
                directory.clone(),
                SEED,
                config,
                map.clone(),
                PhysicsConfig::default(),
            )))
        })
        .collect();
    // The loop skips crashed receivers: the simnet already eats their
    // deliveries, and a dead process neither runs its handler nor ticks.
    // On recovery a node's own gap detection resets its liveness view and
    // suppresses the partially-observed epoch's summary.
    let mut lp = MatchLoop::new(cores, net, FRAME_MS);

    let trace = GameTrace::record(
        GameConfig { map: map.clone(), ..GameConfig::default() },
        PLAYERS,
        SEED,
        FRAMES + DRAIN,
    );
    let mut severe: Vec<String> = Vec::new();
    let mut handoffs_received = 0u64;

    for f in 0..FRAMES + DRAIN {
        let states = &trace.frames[f as usize].states;
        lp.run_frame(
            f,
            |i| states[i],
            |node, _, e| {
                if let NodeEvent::Suspicion { subject, rating, check } = e {
                    if rating.score >= 6 {
                        severe.push(format!(
                            "frame {f}: node {node} rated p{} {}/10 on {check}",
                            subject.0, rating.score
                        ));
                    }
                }
                if matches!(e, NodeEvent::HandoffReceived { .. }) {
                    handoffs_received += 1;
                }
            },
        );
    }

    // --- No false cheat verdicts, ever.
    assert!(severe.is_empty(), "honest cluster raised severe verdicts:\n{}", severe.join("\n"));

    // --- The fault plan actually bit: bursts dropped messages, the
    // duplicator fired, and the conservation invariant held throughout.
    let stats = lp.net.stats();
    stats.assert_invariant("end of control-plane e2e");
    assert!(stats.dropped > 100, "loss plan never engaged: {stats:?}");
    assert!(stats.duplicated > 0, "duplication plan never engaged: {stats:?}");

    // --- The reliable layer did real work and fully recovered.
    let mut retransmits = 0u64;
    let mut abandoned = 0u64;
    let mut fallbacks = 0u64;
    for (i, core) in lp.cores.iter().enumerate() {
        let n = core.as_ref().expect("every node stays in the match").node();
        let cs = n.control_stats();
        retransmits += cs.retransmits;
        abandoned += cs.abandoned;
        fallbacks += cs.proxy_fallbacks;
        assert_eq!(
            n.pending_handoffs(),
            0,
            "node {i} still has unrecovered handoff chains after drain"
        );
    }
    assert!(retransmits > 0, "5% burst loss must force retransmissions");
    assert_eq!(abandoned, 0, "no control message may be abandoned");
    assert!(fallbacks >= 1, "the crashed proxy must trigger at least one fallback");
    assert!(handoffs_received > 0, "no handoff chains delivered at all");
}
