//! The simnet driver: one deliver-then-tick loop over real protocol cores.
//!
//! Every simulated match in the repo — fleet cells, the faulted and churn
//! soaks, the e2e suites, and the Figure 7 / bandwidth replays behind
//! [`crate::overlay::run_watchmen`] — runs the same frame cycle over the
//! same [`ProtocolCore`]s. [`MatchLoop`] is that cycle, written once. One
//! frame `f` does four things, in order:
//!
//! 1. advance the simnet to `f · frame_ms`;
//! 2. hand each delivery to its receiver's core (skipping empty slots and
//!    nodes the network reports crashed or offline);
//! 3. send the datagrams that core produced;
//! 4. tick every live core with the caller's state for it, then send its
//!    datagrams.
//!
//! Every [`NodeEvent`] goes to the caller's closure with the node that
//! raised it and the virtual millisecond it happened at (the delivery's
//! `deliver_ms`, or the frame start for tick events). Joins, leaves and
//! lobby or audit calls are the caller's business, between frames: the
//! loop's fields are public for exactly that.

use watchmen_game::trace::PlayerFrame;
use watchmen_game::PlayerId;
use watchmen_net::SimNetwork;

use crate::node::{NodeEvent, Outgoing};
use crate::sans_io::{CoreOutput, ProtocolCore};

/// One match's cores on one simnet. See the module docs.
#[derive(Debug)]
pub struct MatchLoop {
    /// One slot per simnet node; `None` is a player not (yet) in the match.
    pub cores: Vec<Option<ProtocolCore>>,
    /// The network the cores talk over.
    pub net: SimNetwork<Vec<u8>>,
    /// Frame length in virtual milliseconds.
    frame_ms: f64,
}

impl MatchLoop {
    /// Hosts `cores` on `net`, one slot per simnet node.
    ///
    /// # Panics
    ///
    /// Panics if the slot count differs from the network's node count.
    #[must_use]
    pub fn new(cores: Vec<Option<ProtocolCore>>, net: SimNetwork<Vec<u8>>, frame_ms: f64) -> Self {
        assert_eq!(cores.len(), net.node_count(), "one core slot per simnet node");
        MatchLoop { cores, net, frame_ms }
    }

    /// Whether `node` runs right now: it has a core, and the network
    /// reports it neither crashed nor offline.
    #[must_use]
    pub fn is_live(&self, node: usize) -> bool {
        self.cores[node].is_some() && !self.net.is_crashed(node) && !self.net.is_offline(node)
    }

    /// Runs frame `f`: deliver what is due, then tick every live core
    /// with `state(node)`. Events go to `on_event(node, at_ms, event)`.
    pub fn run_frame(
        &mut self,
        f: u64,
        mut state: impl FnMut(usize) -> PlayerFrame,
        mut on_event: impl FnMut(usize, f64, &NodeEvent),
    ) {
        let now_ms = f as f64 * self.frame_ms;
        for d in self.net.advance_to(now_ms) {
            let Some(out) =
                self.handle(d.to, |core| core.datagram(f, PlayerId(d.from as u32), &d.payload))
            else {
                continue;
            };
            for e in &out.events {
                on_event(d.to, d.deliver_ms, e);
            }
            self.send(d.to, out.datagrams);
        }
        for i in 0..self.cores.len() {
            let Some(out) = self.handle(i, |core| core.tick(f, &state(i))) else { continue };
            for e in &out.events {
                on_event(i, now_ms, e);
            }
            self.send(i, out.datagrams);
        }
    }

    /// Delivers everything still in flight, presented at frame `f`, and
    /// sends nothing new: the match is over.
    pub fn drain(&mut self, f: u64, mut on_event: impl FnMut(usize, f64, &NodeEvent)) {
        while let Some(t) = self.net.next_delivery_ms() {
            for d in self.net.advance_to(t) {
                let Some(out) =
                    self.handle(d.to, |core| core.datagram(f, PlayerId(d.from as u32), &d.payload))
                else {
                    continue;
                };
                for e in &out.events {
                    on_event(d.to, d.deliver_ms, e);
                }
            }
        }
    }

    /// Puts `datagrams` from `from` on the network, charging each its
    /// encoded length.
    pub fn send(&mut self, from: usize, datagrams: Vec<Outgoing>) {
        for o in datagrams {
            let size = o.bytes.len();
            self.net.send(from, o.to.index(), o.bytes, size);
        }
    }

    /// Feeds one input to `node`'s core if it is live.
    fn handle(
        &mut self,
        node: usize,
        input: impl FnOnce(&mut ProtocolCore) -> CoreOutput,
    ) -> Option<CoreOutput> {
        if !self.is_live(node) {
            return None;
        }
        self.cores[node].as_mut().map(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use watchmen_crypto::schnorr::Keypair;
    use watchmen_game::trace::GameTrace;
    use watchmen_game::GameConfig;
    use watchmen_net::fault::FaultPlan;
    use watchmen_net::latency;
    use watchmen_world::{maps, PhysicsConfig};

    use crate::node::WatchmenNode;
    use crate::WatchmenConfig;

    fn build(n: usize, seed: u64, net: SimNetwork<Vec<u8>>) -> MatchLoop {
        let map = maps::arena(16, 10.0);
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
                    WatchmenConfig::default(),
                    map.clone(),
                    PhysicsConfig::default(),
                )))
            })
            .collect();
        MatchLoop::new(cores, net, WatchmenConfig::default().frame_ms)
    }

    fn record(n: usize, seed: u64, frames: u64) -> GameTrace {
        let map = maps::arena(16, 10.0);
        GameTrace::record(GameConfig { map, ..GameConfig::default() }, n, seed, frames)
    }

    #[test]
    fn frames_deliver_verified_updates_and_drain_empties_the_net() {
        const N: usize = 5;
        let trace = record(N, 3, 40);
        let mut lp = build(N, 3, SimNetwork::new(N, latency::constant(8.0), 0.0, 3));
        let mut deliveries = 0u64;
        let mut late_tick_event = false;
        for f in 0..40 {
            lp.run_frame(
                f,
                |i| trace.frames[f as usize].states[i],
                |_, at_ms, e| {
                    if matches!(e, NodeEvent::Delivery { .. }) {
                        deliveries += 1;
                    }
                    late_tick_event |= at_ms > f as f64 * 50.0;
                },
            );
        }
        assert!(deliveries > 0, "verified updates must surface as events");
        assert!(!late_tick_event, "no event is stamped after its frame starts");
        let sent = lp.net.stats().sent;
        lp.drain(40, |_, _, _| {});
        assert_eq!(lp.net.in_flight(), 0);
        assert_eq!(lp.net.stats().sent, sent, "the drain sends nothing new");
        lp.net.stats().assert_invariant("match loop drain");
    }

    #[test]
    fn crashed_and_empty_slots_neither_tick_nor_receive() {
        const N: usize = 5;
        let trace = record(N, 4, 20);
        let mut net = SimNetwork::new(N, latency::constant(8.0), 0.0, 4);
        net.set_fault_plan(FaultPlan::new(4).with_crash(1, 0.0, f64::INFINITY));
        let mut lp = build(N, 4, net);
        lp.cores[2] = None;
        let mut raised = [0u64; N];
        for f in 0..20 {
            lp.run_frame(f, |i| trace.frames[f as usize].states[i], |node, _, _| raised[node] += 1);
        }
        assert!(!lp.is_live(1) && !lp.is_live(2) && lp.is_live(0));
        assert_eq!(raised[1], 0, "a crashed node runs no handler");
        assert_eq!(raised[2], 0, "an empty slot runs no handler");
        assert_eq!(lp.net.meter(1).up_bytes(), 0, "a crashed node never ticks");
        assert_eq!(lp.net.meter(2).up_bytes(), 0, "an empty slot never ticks");
    }
}
