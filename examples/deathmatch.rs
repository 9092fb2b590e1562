//! A full 48-player deathmatch on the q3dm17-like arena: the paper's
//! headline workload, with a live scoreboard, the Figure 1 presence
//! heatmap, a network replay over the simnet, a secured-node segment
//! (including a scripted cheater whose violations trigger flight-recorder
//! dumps), and a final telemetry snapshot in Prometheus text format.
//!
//! ```sh
//! cargo run --release --example deathmatch [players] [frames]
//! ```
//!
//! Set `WATCHMEN_TRACE=dump` to print the violation dumps in full, or
//! `WATCHMEN_TRACE=chrome:<path>` to additionally write a merged Chrome
//! `trace_event` JSON (load it at `ui.perfetto.dev` or
//! `chrome://tracing`). Set `WATCHMEN_METRICS_ADDR=127.0.0.1:9464` to
//! serve the global registry live on `/metrics` while the match runs
//! (`WATCHMEN_METRICS_HOLD_MS=<ms>` keeps it up after the final
//! snapshot).

use std::sync::Arc;

use watchmen::core::match_loop::MatchLoop;
use watchmen::core::node::{NodeEvent, WatchmenNode};
use watchmen::core::overlay::run_watchmen;
use watchmen::core::proxy::ProxySchedule;
use watchmen::core::sans_io::ProtocolCore;
use watchmen::core::WatchmenConfig;
use watchmen::crypto::schnorr::{Keypair, PublicKey};
use watchmen::game::heatmap::Heatmap;
use watchmen::game::trace::GameTrace;
use watchmen::game::{GameConfig, GameEvent, PlayerId};
use watchmen::net::fault::FaultPlan;
use watchmen::net::{latency, SimNetwork};
use watchmen::telemetry::{
    causal_chain, export, global, FlightDump, FlightRecorder, MetricValue, MetricsServer, TraceMode,
};
use watchmen::world::{maps, GameMap, PhysicsConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > 2 {
        usage_error(&format!("expected at most 2 arguments, got {}", args.len()));
    }
    let players: usize = match args.first() {
        None => 48,
        Some(a) => a.parse().unwrap_or_else(|_| usage_error(&format!("bad players {a:?}"))),
    };
    let frames: u64 = match args.get(1) {
        None => 2400,
        Some(a) => a.parse().unwrap_or_else(|_| usage_error(&format!("bad frames {a:?}"))),
    };
    if players < 2 {
        usage_error("players must be >= 2");
    }

    // The live scrape endpoint over the process-wide registry, when
    // WATCHMEN_METRICS_ADDR asks for one.
    let metrics_server = match MetricsServer::from_env(
        Arc::new(|| global().snapshot()),
        Arc::new(|name| global().help_for(name)),
    ) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("failed to bind WATCHMEN_METRICS_ADDR: {e}");
            std::process::exit(1);
        }
    };
    if let Some(server) = &metrics_server {
        println!("metrics endpoint listening on {}", server.local_addr());
    }

    let map = maps::q3dm17_like();
    println!("map: {map}");
    println!("{}\n", map.to_ascii());

    println!(
        "running a {players}-player deathmatch for {frames} frames ({}s of play)…",
        frames / 20
    );
    let config = GameConfig { map: map.clone(), ..GameConfig::default() };
    let trace = GameTrace::record(config, players, 2013, frames);

    // Event tally.
    let (mut shots, mut hits, mut kills, mut falls, mut pickups) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut scores = vec![0i64; players];
    for frame in &trace.frames {
        for e in &frame.events {
            match e {
                GameEvent::Shot { .. } => shots += 1,
                GameEvent::Hit { .. } => hits += 1,
                GameEvent::Kill { attacker, victim, .. } => {
                    kills += 1;
                    if attacker != victim {
                        scores[attacker.index()] += 1;
                    }
                    scores[victim.index()] -= 0; // deaths tracked implicitly
                }
                GameEvent::Fall { victim } => {
                    falls += 1;
                    scores[victim.index()] -= 1;
                }
                GameEvent::Pickup { .. } => pickups += 1,
                GameEvent::Respawn { .. } => {}
            }
        }
    }
    println!("events: {shots} shots, {hits} hits, {kills} kills, {falls} falls, {pickups} pickups");

    // Top 5 scoreboard.
    let mut board: Vec<(usize, i64)> = scores.iter().copied().enumerate().collect();
    board.sort_by_key(|&(_, s)| std::cmp::Reverse(s));
    println!("\ntop fraggers:");
    for (rank, (p, s)) in board.iter().take(5).enumerate() {
        println!("  {}. p{p} with {s} frags", rank + 1);
    }

    // Figure 1: the presence heatmap.
    let heat = Heatmap::from_trace(&map, &trace);
    println!("\npresence heatmap (log-normalized, '9' = hottest):");
    println!("{}", heat.to_ascii());
    println!(
        "\nconcentration: top decile of visited cells holds {:.0}% of presence (gini {:.2})",
        heat.top_share(0.1) * 100.0,
        heat.gini()
    );

    // --- Network replay: the same match over the simulated internet.
    let net_frames = frames.min(600);
    let mut net_trace = trace.clone();
    net_trace.frames.truncate(net_frames as usize);
    let watchmen_config = WatchmenConfig::default();
    println!("\nreplaying {net_frames} frames over the simnet (king-like latency, 1% loss)…");
    let report = run_watchmen(
        &net_trace,
        &map,
        &watchmen_config,
        latency::king_like(players, 2013),
        0.01,
        2013,
    );
    println!(
        "overlay: {} updates delivered, {} dropped, {:.1}% late-or-lost, \
         mean up {:.1} kbps (max {:.1}), mean down {:.1} kbps",
        report.updates_delivered,
        report.network_dropped,
        report.late_or_lost * 100.0,
        report.mean_up_kbps,
        report.max_up_kbps,
        report.mean_down_kbps,
    );

    // --- Secured segment: a small cluster of full WatchmenNodes (signed
    // envelopes, proxy supervision, handoffs) over an instant bus, enough
    // frames to cross several proxy epochs.
    let cluster_size = players.clamp(3, 12);
    let cluster_frames = (net_frames as usize).min(130);
    println!(
        "\nrunning {cluster_size} secured nodes for {cluster_frames} frames \
         (signatures, proxies, handoffs; p2 speed-hacks, p1 replays)…"
    );
    let (recorders, dumps) = run_secured_segment(&trace, &map, cluster_size, cluster_frames);
    report_violations(&recorders, &dumps);

    // --- Faulted segment: with `WATCHMEN_FAULTS` set (e.g.
    // `loss=0.05,dup=0.01,reorder=0.25,reorder_ms=40`), run a 16-node
    // secured cluster over the simnet under the requested fault plan plus
    // one scripted proxy crash, and report how the reliable control plane
    // coped. The `fault summary:` line is machine-parseable; ci.sh gates
    // on it.
    if let Some(plan) = FaultPlan::from_env() {
        run_faulted_segment(plan);
    }

    // --- Churn segment: with `WATCHMEN_CHURN` set (any non-empty value),
    // run a 16-veteran secured cluster under 5% burst loss through four
    // mid-game joins, two graceful leaves and two crash-evictions — a
    // membership event roughly every other second, the densest the
    // one-epoch join window admits — and report the outcome on the
    // machine-parseable `churn summary:` line that ci.sh gates on.
    if std::env::var("WATCHMEN_CHURN").is_ok_and(|v| !v.trim().is_empty()) {
        run_churn_segment();
    }

    // --- Telemetry: what the instrumented layers recorded.
    let snap = global().snapshot();
    println!("\ntelemetry highlights:");
    println!("  proxy handoffs sent:       {}", snap.counter_sum("proxy_handoffs_total"));
    println!("  network messages dropped:  {}", snap.counter_sum("net_messages_dropped_total"));
    println!("  updates delivered:         {}", snap.counter_sum("sim_updates_delivered_total"));
    if let Some(MetricValue::Histogram { count, p50, p90, p99, max, .. }) =
        snap.get_with("sim_player_up_kbps", &[("arch", "watchmen")])
    {
        println!(
            "  per-player upload kbps:    p50 {p50:.1}  p90 {p90:.1}  p99 {p99:.1}  \
             max {max:.1}  ({count} players)"
        );
    }
    if let Some(MetricValue::Histogram { count, p50, p99, .. }) = snap.get("node_tick_duration_ms")
    {
        println!("  node tick ms:              p50 {p50:.3}  p99 {p99:.3}  ({count} ticks)");
    }

    println!("\nfull snapshot (Prometheus text format):");
    print!("{}", export::prometheus_text_with_help(&snap, &|n| global().help_for(n)));

    // Keep the endpoint up for scrapers that want the settled snapshot.
    if metrics_server.is_some() {
        if let Ok(ms) = std::env::var("WATCHMEN_METRICS_HOLD_MS") {
            if let Ok(ms) = ms.trim().parse::<u64>() {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
        }
    }
    drop(metrics_server);
}

/// Rejects malformed CLI input loudly: silently soaking the default
/// workload under a typo'd argument burns minutes and gates on the wrong
/// run.
fn usage_error(reason: &str) -> ! {
    eprintln!("error: {reason}");
    eprintln!("usage: deathmatch [players] [frames]   (defaults: 48 players, 2400 frames)");
    std::process::exit(2);
}

/// Drives a small cluster of [`WatchmenNode`]s over an in-memory instant
/// bus, feeding them the first `cluster_size` players' recorded states —
/// except player 2, who speed-hacks every fourth frame, and player 1,
/// whose first state update is replayed verbatim once. Returns every
/// node's flight recorder and the violation dumps they captured.
fn run_secured_segment(
    trace: &GameTrace,
    map: &GameMap,
    cluster_size: usize,
    frames: usize,
) -> (Vec<Arc<FlightRecorder>>, Vec<FlightDump>) {
    let seed = 2013u64;
    let keys: Vec<Keypair> =
        (0..cluster_size).map(|i| Keypair::generate(seed ^ i as u64)).collect();
    let directory: Vec<PublicKey> = keys.iter().map(Keypair::public).collect();
    let mut cores: Vec<ProtocolCore> = keys
        .into_iter()
        .enumerate()
        .map(|(i, k)| {
            ProtocolCore::new(WatchmenNode::new(
                PlayerId(i as u32),
                k,
                directory.clone(),
                seed,
                WatchmenConfig::default(),
                map.clone(),
                PhysicsConfig::default(),
            ))
        })
        .collect();
    let mut bus: std::collections::VecDeque<(PlayerId, PlayerId, Vec<u8>)> =
        std::collections::VecDeque::new();
    let mut replayed: Option<(PlayerId, PlayerId, Vec<u8>)> = None;
    for frame in 0..frames as u64 {
        let states = &trace.frames[frame as usize].states;
        for i in 0..cluster_size {
            let mut state = states[i];
            // The scripted cheater: p2 reports a teleported position
            // every fourth frame, which its proxy's physics check flags.
            if i == 2 && frame > 0 && frame % 4 == 0 {
                state.position.x += 30.0;
            }
            let output = cores[i].tick(frame, &state);
            for o in output.datagrams {
                if i == 1 && replayed.is_none() && o.bytes.len() > 60 {
                    // Keep p1's first state update for a later replay.
                    replayed = Some((PlayerId(1), o.to, o.bytes.clone()));
                }
                bus.push_back((PlayerId(i as u32), o.to, o.bytes));
            }
        }
        // Half-way through, re-deliver the captured bytes: a replay cheat
        // the anti-replay window rejects and dumps.
        if frame == frames as u64 / 2 {
            if let Some(r) = replayed.take() {
                bus.push_back(r);
            }
        }
        while let Some((sender, to, bytes)) = bus.pop_front() {
            let output = cores[to.index()].datagram(frame, sender, &bytes);
            for o in output.datagrams {
                bus.push_back((to, o.to, o.bytes));
            }
        }
    }
    let recorders = cores.iter().map(|c| c.node().recorder()).collect();
    let dumps = cores.iter_mut().flat_map(|c| c.node_mut().take_flight_dumps()).collect();
    (recorders, dumps)
}

/// Runs a 16-node secured cluster over the simnet under the given fault
/// plan, plus a scripted crash of player 0's epoch-2 proxy so the
/// liveness fallback is always exercised. All players are honest: every
/// severe verdict is by construction a false one, and the printed
/// `fault summary:` line reports it alongside the reliable-layer
/// counters (ci.sh parses that line and fails the build on any
/// unrecovered handoff chain or false verdict).
fn run_faulted_segment(plan: FaultPlan) {
    const PLAYERS: usize = 16;
    const SEED: u64 = 2013;
    const FRAME_MS: f64 = 50.0;
    const FRAMES: u64 = 320;
    const DRAIN: u64 = 60;

    let config = WatchmenConfig { proxy_liveness_k: 2, ..WatchmenConfig::default() };
    let schedule = ProxySchedule::new(SEED, PLAYERS, config.proxy_period);
    let crashed = schedule.proxy_of(PlayerId(0), 2 * config.proxy_period);
    let plan = plan.with_crash(crashed.index(), 55.0 * FRAME_MS, 125.0 * FRAME_MS);
    println!(
        "\nWATCHMEN_FAULTS set: {PLAYERS} secured nodes for {} frames under faults \
         (scripted crash of p{} in frames 55..125)…",
        FRAMES + DRAIN,
        crashed.0
    );

    let mut net: SimNetwork<Vec<u8>> = SimNetwork::new(PLAYERS, latency::constant(8.0), 0.0, 77);
    net.set_fault_plan(plan);

    let keys: Vec<Keypair> = (0..PLAYERS).map(|i| Keypair::generate(SEED ^ i as u64)).collect();
    let directory: Vec<PublicKey> = keys.iter().map(Keypair::public).collect();
    // An open arena: the faulted segment gates on *transport*-level
    // recovery, and the position checker's wall-geometry corner cases
    // fire even on honest q3dm17 traces.
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
    let mut lp = MatchLoop::new(cores, net, FRAME_MS);

    let fault_trace = GameTrace::record(
        GameConfig { map, ..GameConfig::default() },
        PLAYERS,
        SEED,
        FRAMES + DRAIN,
    );
    let mut severe = 0u64;
    for f in 0..FRAMES + DRAIN {
        let states = &fault_trace.frames[f as usize].states;
        lp.run_frame(
            f,
            |i| states[i],
            |_, _, e| {
                if let NodeEvent::Suspicion { rating, .. } = e {
                    if rating.score >= 6 {
                        severe += 1;
                    }
                }
            },
        );
    }

    let stats = lp.net.stats();
    stats.assert_invariant("deathmatch faulted segment");
    let (mut retransmits, mut acks, mut fallbacks, mut abandoned, mut pending) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for c in lp.cores.iter().flatten() {
        let n = c.node();
        let cs = n.control_stats();
        retransmits += cs.retransmits;
        acks += cs.acks_received;
        fallbacks += cs.proxy_fallbacks;
        abandoned += cs.abandoned;
        pending += n.pending_handoffs() as u64;
    }
    println!(
        "fault summary: retransmits={retransmits} acks={acks} fallbacks={fallbacks} \
         abandoned={abandoned} pending_handoffs={pending} severe_false_verdicts={severe} \
         dup={} dropped={}",
        stats.duplicated, stats.dropped
    );
}

/// The churn soak: 16 veterans plus a lobby with signing keys absorb
/// four mid-game joins, two graceful leaves and two crash-evictions
/// under 5% burst loss. Roster agreement is checked at every renewal
/// boundary across all online active members; the `churn summary:` line
/// reports the counters ci.sh gates on (joins/leaves/evictions applied,
/// joiner convergence, roster agreement, false verdicts).
fn run_churn_segment() {
    use watchmen::core::lobby::GameLobby;
    use watchmen::net::fault::GilbertElliott;

    const VETERANS: usize = 16;
    const JOINERS: usize = 4;
    const TOTAL: usize = VETERANS + JOINERS;
    const SEED: u64 = 4177;
    const FRAME_MS: f64 = 50.0;
    const FRAMES: u64 = 840;
    const DRAIN: u64 = 40;
    const JOIN_FRAMES: [u64; JOINERS] = [50, 130, 210, 290];
    const LEAVES: [(usize, u64); 2] = [(3, 370), (5, 450)];
    const CRASHED: [usize; 2] = [7, 9];
    const CRASH_FRAME: u64 = 530;

    let config = WatchmenConfig { proxy_liveness_k: 2, ..WatchmenConfig::default() };
    let period = config.proxy_period;
    println!(
        "\nWATCHMEN_CHURN set: {VETERANS} veterans for {} frames under 5% burst loss — \
         {JOINERS} mid-game joins, {} graceful leaves, {} crash-evictions…",
        FRAMES + DRAIN,
        LEAVES.len(),
        CRASHED.len()
    );

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
    let mut lp = MatchLoop::new(cores, net, FRAME_MS);

    let churn_trace =
        GameTrace::record(GameConfig { map, ..GameConfig::default() }, TOTAL, SEED, FRAMES + DRAIN);

    let (mut severe, mut bad_sigs) = (0u64, 0u64);
    let mut bootstrap_frame: std::collections::BTreeMap<usize, u64> = Default::default();
    let mut admit_frames: std::collections::BTreeMap<usize, u64> = Default::default();
    let mut agreement_ok = true;
    let mut boundaries = 0u64;
    let mut join_cursor = 0usize;

    for f in 0..FRAMES + DRAIN {
        if join_cursor < JOINERS && f == JOIN_FRAMES[join_cursor] {
            let idx = VETERANS + join_cursor;
            let (id, ticket, roster) =
                lobby.admit_midgame(keys[idx].public(), f).expect("mid-game admission");
            admit_frames.insert(idx, ticket.admit_frame);
            lp.cores[idx] = Some(ProtocolCore::new(WatchmenNode::new_joining(
                id,
                keys[idx].clone(),
                roster,
                ticket,
                lobby_key,
                SEED,
                config,
                maps::arena(32, 10.0),
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

        let states = &churn_trace.frames[f as usize].states;
        lp.run_frame(
            f,
            |i| states[i],
            |node, _, e| match e {
                NodeEvent::Suspicion { rating, .. } if rating.score >= 6 => severe += 1,
                NodeEvent::BadSignature { .. } => bad_sigs += 1,
                NodeEvent::BootstrapReceived { .. } => {
                    bootstrap_frame.entry(node).or_insert(f);
                }
                _ => {}
            },
        );

        if f > 0 && f % period == 0 {
            let views: Vec<(u64, [u8; 32])> = (0..TOTAL)
                .filter(|&i| lp.is_live(i))
                .filter_map(|i| {
                    lp.cores[i]
                        .as_ref()
                        .map(ProtocolCore::node)
                        .filter(|n| n.is_active_member())
                        .map(|n| (n.roster_epoch(), n.roster_digest()))
                })
                .collect();
            if views.windows(2).any(|w| w[0] != w[1]) {
                agreement_ok = false;
            }
            boundaries += 1;
        }
    }

    lp.net.stats().assert_invariant("deathmatch churn segment");
    let cores = &lp.cores;
    let witness = cores[0].as_ref().expect("node 0 lives").node();
    let cs = witness.churn_stats();
    let joiners_converged = admit_frames
        .iter()
        .filter(|(j, &admit)| {
            bootstrap_frame.get(j).is_some_and(|&got| got <= admit + period)
                && cores[**j].as_ref().is_some_and(|c| c.node().is_active_member())
        })
        .count();
    let (mut bootstraps_sent, mut stale_drops) = (0u64, 0u64);
    for c in cores.iter().flatten() {
        bootstraps_sent += c.node().churn_stats().bootstraps_sent;
        stale_drops += c.node().churn_stats().stale_drops;
    }
    println!(
        "churn summary: joins={} leaves={} evictions={} bootstraps_sent={bootstraps_sent} \
         joiners_converged={joiners_converged} boundaries={boundaries} roster_agreement={} \
         stale_drops={stale_drops} false_verdicts={severe} bad_signatures={bad_sigs}",
        cs.joins_applied,
        cs.leaves_applied,
        cs.evictions_applied,
        u64::from(agreement_ok),
    );
}

/// Prints what the flight recorders captured around the scripted
/// violations: a summary per dump, the cross-node causal chain of the
/// first position violation, and — per `WATCHMEN_TRACE` — either the full
/// dumps (`dump`) or a merged Chrome trace file (`chrome:<path>`).
fn report_violations(recorders: &[Arc<FlightRecorder>], dumps: &[FlightDump]) {
    println!("\nflight-recorder violations captured: {}", dumps.len());
    for d in dumps.iter().take(6) {
        println!(
            "  {} on p{} ({} events retained, trace {})",
            d.reason,
            d.subject,
            d.events.len(),
            d.trace_id,
        );
    }

    // Reconstruct the causal chain of one offending message across every
    // node: origin send → proxy relay → verifier's verdict.
    let refs: Vec<&FlightRecorder> = recorders.iter().map(Arc::as_ref).collect();
    if let Some(dump) = dumps.iter().find(|d| d.trace_id.is_some()) {
        let chain = causal_chain(&refs, dump.trace_id);
        println!(
            "\ncausal chain of the offending message (trace {}, \"{}\"):",
            dump.trace_id, dump.reason
        );
        for e in &chain {
            println!("  {e}");
        }
    }

    match TraceMode::from_env() {
        TraceMode::Off => {
            println!("\n(set WATCHMEN_TRACE=dump or chrome:<path> for full trace output)");
        }
        TraceMode::Dump => {
            for d in dumps {
                println!("\n{d}");
            }
        }
        TraceMode::Chrome(path) => {
            let mut events = Vec::new();
            for r in &refs {
                events.extend(r.snapshot());
            }
            events.sort_by_key(|e| e.at_us);
            let json = export::chrome_trace(&events);
            match std::fs::write(&path, &json) {
                Ok(()) => println!(
                    "\nwrote {} trace events to {path} (load at ui.perfetto.dev)",
                    events.len()
                ),
                Err(e) => eprintln!("\nfailed to write chrome trace to {path}: {e}"),
            }
        }
    }
}
