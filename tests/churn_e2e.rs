//! End-to-end churn tolerance: a 16-veteran cluster over a lossy
//! [`watchmen::net::SimNetwork`] absorbs four mid-game joins, two
//! graceful leaves and two crash-evictions — all under 5% burst loss —
//! while every honest node keeps an **identical epoch-versioned roster at
//! every renewal boundary**, every joiner receives its bootstrap snapshot
//! and enters the veterans' pipelines within one epoch, and **zero**
//! cheat verdicts are raised against the all-honest population.

use std::collections::BTreeMap;

use watchmen::core::lobby::GameLobby;
use watchmen::core::match_loop::MatchLoop;
use watchmen::core::node::{NodeEvent, WatchmenNode};
use watchmen::core::sans_io::ProtocolCore;
use watchmen::core::WatchmenConfig;
use watchmen::crypto::schnorr::Keypair;
use watchmen::game::trace::GameTrace;
use watchmen::game::{GameConfig, PlayerId};
use watchmen::net::fault::{FaultPlan, GilbertElliott};
use watchmen::net::{latency, SimNetwork};
use watchmen::world::{maps, PhysicsConfig};

const VETERANS: usize = 16;
const JOINERS: usize = 4;
const TOTAL: usize = VETERANS + JOINERS;
const SEED: u64 = 4177;
const FRAME_MS: f64 = 50.0;
/// Enough epochs (period 40) for all joins, both leaves, and the
/// membership-timeout evictions to be announced and applied…
const FRAMES: u64 = 840;
/// …then a drain period for retransmissions to finish.
const DRAIN: u64 = 40;

/// The churn script, in frames. Windows are deliberately non-overlapping:
/// each join's lobby snapshot is taken while no departure delta is still
/// in flight (see DESIGN.md §10 on the snapshot/activation window).
const JOIN_FRAMES: [u64; JOINERS] = [50, 130, 210, 290];
const LEAVES: [(usize, u64); 2] = [(3, 370), (5, 450)];
const CRASHED: [usize; 2] = [7, 9];
const CRASH_FRAME: u64 = 530;

/// The node in slot `i`, if one has joined.
fn node(lp: &MatchLoop, i: usize) -> Option<&WatchmenNode> {
    lp.cores[i].as_ref().map(ProtocolCore::node)
}

#[test]
fn churn_run_keeps_rosters_agreed_and_raises_no_false_verdicts() {
    let config = WatchmenConfig { proxy_liveness_k: 2, ..WatchmenConfig::default() };
    config.validate();
    let period = config.proxy_period;

    // The lobby owns admission: veterans register up front, joiners get
    // signed tickets mid-match.
    let mut lobby = GameLobby::new(SEED, config, config.membership_timeout_frames)
        .with_keys(Keypair::generate(SEED ^ 0x10bb));
    let keys: Vec<Keypair> = (0..TOTAL).map(|i| Keypair::generate(SEED ^ i as u64)).collect();
    for k in keys.iter().take(VETERANS) {
        lobby.register(k.public());
    }
    lobby.start();
    let lobby_key = lobby.lobby_key().expect("lobby has keys");

    let mut plan = FaultPlan::new(0xc4u64)
        .with_burst_loss(GilbertElliott::with_mean_loss(0.05))
        .with_duplication(0.01);
    for (j, &f) in JOIN_FRAMES.iter().enumerate() {
        plan = plan.with_join(VETERANS + j, f as f64 * FRAME_MS);
    }
    for &(leaver, announce) in &LEAVES {
        // The node unplugs a few frames after its announced departure
        // boundary, leaving room for final acks.
        let unplug = ((announce.div_ceil(period) + 1) * period + 10) as f64 * FRAME_MS;
        plan = plan.with_leave(leaver, unplug);
    }
    for &c in &CRASHED {
        plan = plan.with_crash(c, CRASH_FRAME as f64 * FRAME_MS, f64::INFINITY);
    }
    let mut net: SimNetwork<Vec<u8>> = SimNetwork::new(TOTAL, latency::constant(8.0), 0.0, 77);
    net.set_fault_plan(plan);

    let map = maps::arena(32, 10.0);
    let mut cores: Vec<Option<ProtocolCore>> = keys
        .iter()
        .take(VETERANS)
        .enumerate()
        .map(|(i, k)| {
            Some(ProtocolCore::new(
                WatchmenNode::new(
                    PlayerId(i as u32),
                    k.clone(),
                    lobby.directory().to_vec(),
                    SEED,
                    config,
                    map.clone(),
                    PhysicsConfig::default(),
                )
                .with_lobby_key(lobby_key),
            ))
        })
        .collect();
    cores.resize_with(TOTAL, || None);
    // Crashed and unplugged slots neither tick nor run handlers.
    let mut lp = MatchLoop::new(cores, net, FRAME_MS);

    let trace = GameTrace::record(
        GameConfig { map: map.clone(), ..GameConfig::default() },
        TOTAL,
        SEED,
        FRAMES + DRAIN,
    );

    let mut severe: Vec<String> = Vec::new();
    let mut bad_signatures: Vec<String> = Vec::new();
    let mut bootstrap_frame: BTreeMap<usize, u64> = BTreeMap::new();
    let mut admit_frames: BTreeMap<usize, u64> = BTreeMap::new();
    let mut boundaries_checked = 0u64;
    let mut join_cursor = 0usize;

    for f in 0..FRAMES + DRAIN {
        // --- Scripted churn drivers.
        if join_cursor < JOINERS && f == JOIN_FRAMES[join_cursor] {
            let idx = VETERANS + join_cursor;
            let (id, ticket, roster) =
                lobby.admit_midgame(keys[idx].public(), f).expect("mid-game admission");
            assert_eq!(id.index(), idx, "lobby must hand out dense ids");
            admit_frames.insert(idx, ticket.admit_frame);
            lp.cores[idx] = Some(ProtocolCore::new(WatchmenNode::new_joining(
                id,
                keys[idx].clone(),
                roster,
                ticket,
                lobby_key,
                SEED,
                config,
                map.clone(),
                PhysicsConfig::default(),
            )));
            join_cursor += 1;
        }
        for &(leaver, announce) in &LEAVES {
            if f == announce {
                lobby.leave(PlayerId(leaver as u32), f);
                let outs = lp.cores[leaver].as_mut().expect("leaver exists").announce_leave(f);
                lp.send(leaver, outs.datagrams);
            }
        }

        // --- Deliveries due by this frame, then every live node's tick.
        let states = &trace.frames[f as usize].states;
        lp.run_frame(
            f,
            |i| states[i],
            |node, _, e| match e {
                NodeEvent::Suspicion { subject, rating, check } if rating.score >= 6 => {
                    severe.push(format!(
                        "frame {f}: node {node} rated p{} {}/10 on {check}",
                        subject.0, rating.score
                    ));
                }
                NodeEvent::BadSignature { claimed_from } => {
                    bad_signatures.push(format!("frame {f}: node {node} vs p{}", claimed_from.0));
                }
                NodeEvent::BootstrapReceived { .. } => {
                    bootstrap_frame.entry(node).or_insert(f);
                }
                _ => {}
            },
        );

        // --- (a) Roster agreement at every renewal boundary: every
        // online, active member holds the identical epoch and digest.
        if f > 0 && f % period == 0 {
            let views: Vec<(usize, u64, [u8; 32])> = (0..TOTAL)
                .filter(|&i| lp.is_live(i))
                .filter_map(|i| {
                    node(&lp, i)
                        .filter(|n| n.is_active_member())
                        .map(|n| (i, n.roster_epoch(), n.roster_digest()))
                })
                .collect();
            let (_, e0, d0) = views[0];
            for &(i, e, d) in &views {
                assert_eq!(
                    (e, d),
                    (e0, d0),
                    "boundary {f}: node {i} roster (epoch {e}) diverged from node {}'s (epoch {e0})",
                    views[0].0
                );
            }
            boundaries_checked += 1;
        }
    }

    // --- (c) No false cheat verdicts and no signature rejections, ever.
    assert!(severe.is_empty(), "honest cluster raised severe verdicts:\n{}", severe.join("\n"));
    assert!(
        bad_signatures.is_empty(),
        "churn traffic scored as signature failures:\n{}",
        bad_signatures.join("\n")
    );
    assert!(boundaries_checked >= 20, "only {boundaries_checked} boundaries checked");

    // --- (b) Every joiner received its bootstrap within one epoch of its
    // admission boundary, and entered the veterans' pipelines.
    for (j, &admit) in &admit_frames {
        let got = bootstrap_frame
            .get(j)
            .unwrap_or_else(|| panic!("joiner {j} (admitted at {admit}) never got a bootstrap"));
        assert!(
            *got <= admit + period,
            "joiner {j}: bootstrap at frame {got}, later than one epoch past admission {admit}"
        );
        let joiner = node(&lp, *j).expect("joiner exists");
        assert!(joiner.is_active_member(), "joiner {j} never became active");
        assert!(joiner.churn_stats().bootstraps_received >= 1);
        // At least one other active node tracks the joiner's state — it
        // entered the interest/vision pipelines, not just the roster.
        let seen = (0..TOTAL).any(|i| {
            i != *j && node(&lp, i).is_some_and(|n| n.known_state(PlayerId(*j as u32)).is_some())
        });
        assert!(seen, "no active node ever learned joiner {j}'s state");
    }

    // --- The full lifecycle actually ran, observed from a veteran that
    // survived to the end.
    let witness = node(&lp, 0).expect("node 0 lives");
    let cs = witness.churn_stats();
    assert_eq!(cs.joins_applied, JOINERS as u64, "joins applied: {cs:?}");
    assert_eq!(cs.leaves_applied, LEAVES.len() as u64, "leaves applied: {cs:?}");
    assert_eq!(cs.evictions_applied, CRASHED.len() as u64, "evictions applied: {cs:?}");
    for &(leaver, _) in &LEAVES {
        assert!(!witness.roster().is_active(PlayerId(leaver as u32)));
    }
    for &c in &CRASHED {
        assert!(!witness.roster().is_active(PlayerId(c as u32)));
    }
    // Exactly the 16 veterans minus 2 leavers minus 2 evicted, plus 4
    // joiners, remain active.
    assert_eq!(witness.roster().active_count(), VETERANS - 4 + JOINERS);

    // --- The loss plan actually bit, and conservation held throughout.
    let stats = lp.net.stats();
    stats.assert_invariant("end of churn e2e");
    assert!(stats.dropped > 100, "loss plan never engaged: {stats:?}");

    // --- (d) Minimum-pool robustness is a unit-test concern
    // (`eviction_degrades_to_single_proxy_instead_of_aborting`); here the
    // whole run completing under churn without a panic, with zero
    // abandoned control messages on surviving nodes, is the guarantee.
    for i in (0..TOTAL).filter(|&i| lp.is_live(i)) {
        let n = node(&lp, i).expect("live slots hold a core");
        assert_eq!(n.control_stats().abandoned, 0, "node {i} abandoned control traffic");
    }
}
