//! In-process message network with injected channel faults.
//!
//! Every node owns an [`Endpoint`]: a mailbox ([`std::sync::mpsc`]
//! receiver) plus a cloneable [`NetSender`] that can address any node.
//! All sends funnel through one shared [`pdisk::NetFaultModel`] decision
//! point, which may drop, delay, or duplicate each message or drop it at
//! a partition boundary — so the coordinator/shard protocol is exercised
//! against the same seeded, scriptable adversary the disk layers face.
//!
//! A *delayed* message is parked until `n` further sends have entered
//! the network, then delivered — a bounded reordering.  Because
//! heartbeats keep entering the network, parked messages and partition
//! windows always eventually release.

use crate::msg::{Envelope, Msg};
use pdisk::sync::Mutex;
use pdisk::{Delivery, NetFault, NetFaultModel};
use std::collections::HashMap;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Counters for the whole network's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages offered to the network.
    pub sent: u64,
    /// Messages actually delivered (duplicates count twice).
    pub delivered: u64,
    /// Messages dropped (seeded, scripted, or partition).
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages delivered late (reordered).
    pub delayed: u64,
}

struct NetState {
    model: NetFaultModel,
    /// Global send ordinal (counts every offered message).
    global: u64,
    /// Per-edge send ordinals.
    edges: HashMap<(u32, u32), u64>,
    /// Parked messages: `(release_at_global_ordinal, envelope)`.
    parked: Vec<(u64, Envelope)>,
    /// Current mailbox of each node.  [`Network::reconnect`] swaps in a
    /// fresh one when a replacement takes over a node ID — the dead
    /// instance keeps its old receiver, which nothing feeds anymore.
    mailboxes: Vec<Sender<Envelope>>,
    stats: NetStats,
}

/// The cloneable sending half of a node's endpoint: a heartbeat thread
/// gets a clone while the node itself keeps the receiving half.
#[derive(Clone)]
pub struct NetSender {
    node: u32,
    state: Arc<Mutex<NetState>>,
}

impl NetSender {
    /// Offer `msg` to the network; the fault model decides its fate.
    pub fn send(&self, dst: u32, epoch: u64, msg: Msg) {
        let env = Envelope {
            src: self.node,
            dst,
            epoch,
            msg,
        };
        let mut st = self.state.lock();
        let global = st.global;
        st.global += 1;
        let edge = st.edges.entry((self.node, dst)).or_insert(0);
        let edge_ordinal = *edge;
        *edge += 1;
        st.stats.sent += 1;
        match st.model.decide(self.node, dst, edge_ordinal, global) {
            Delivery::Deliver => {
                st.stats.delivered += 1;
                Self::dispatch(&st.mailboxes, env);
            }
            Delivery::Fault(NetFault::Drop) => st.stats.dropped += 1,
            Delivery::Fault(NetFault::Duplicate) => {
                st.stats.delivered += 2;
                st.stats.duplicated += 1;
                Self::dispatch(&st.mailboxes, env.clone());
                Self::dispatch(&st.mailboxes, env);
            }
            Delivery::Fault(NetFault::Delay(n)) => {
                st.stats.delayed += 1;
                st.parked.push((global + n, env));
            }
        }
        // Release parked messages whose reorder window has elapsed (the
        // n-th further send pushes them out), in release order so equal
        // windows stay deterministic.
        let now = st.global;
        if !st.parked.is_empty() {
            st.parked.sort_by_key(|(at, _)| *at);
            while st.parked.first().is_some_and(|(at, _)| *at < now) {
                let (_, env) = st.parked.remove(0);
                st.stats.delivered += 1;
                Self::dispatch(&st.mailboxes, env);
            }
        }
    }

    fn dispatch(mailboxes: &[Sender<Envelope>], env: Envelope) {
        if let Some(tx) = mailboxes.get(env.dst as usize) {
            // A hung-up receiver (node already exited) is not an error:
            // the network just drops mail addressed to the dead.
            let _ = tx.send(env);
        }
    }
}

/// One node's connection to the network.
pub struct Endpoint {
    sender: NetSender,
    rx: Receiver<Envelope>,
}

impl Endpoint {
    /// A cloneable sending half (for heartbeat threads).
    pub fn sender(&self) -> NetSender {
        self.sender.clone()
    }

    /// Offer `msg` to the network.
    pub fn send(&self, dst: u32, epoch: u64, msg: Msg) {
        self.sender.send(dst, epoch, msg)
    }

    /// Wait up to `timeout` for the next delivered message.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        match self.rx.recv_timeout(timeout) {
            Ok(env) => Some(env),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Drain one message if immediately available.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.rx.try_recv().ok()
    }
}

/// The shared network: build once, hand one [`Endpoint`] to each node.
pub struct Network {
    state: Arc<Mutex<NetState>>,
}

impl Network {
    /// A network of `nodes` endpoints under `model`'s fault regime.
    pub fn new(nodes: u32, model: NetFaultModel) -> (Network, Vec<Endpoint>) {
        let mut txs = Vec::with_capacity(nodes as usize);
        let mut rxs = Vec::with_capacity(nodes as usize);
        for _ in 0..nodes {
            let (tx, rx) = mpsc::channel();
            txs.push(tx);
            rxs.push(rx);
        }
        let state = Arc::new(Mutex::new(NetState {
            model,
            global: 0,
            edges: HashMap::new(),
            parked: Vec::new(),
            mailboxes: txs,
            stats: NetStats::default(),
        }));
        let endpoints = rxs
            .into_iter()
            .enumerate()
            .map(|(i, rx)| Endpoint {
                sender: NetSender {
                    node: i as u32,
                    state: Arc::clone(&state),
                },
                rx,
            })
            .collect();
        (Network { state }, endpoints)
    }

    /// Rebind node `node`'s mailbox to a fresh channel and return the
    /// new endpoint — how a **replacement instance** takes over a dead
    /// node's identity.  The superseded instance still holds the old
    /// receiver, but all traffic now flows to the new one, so even a
    /// falsely-suspected survivor is cut off (its sends are additionally
    /// rejected by the epoch stamp).
    pub fn reconnect(&self, node: u32) -> Endpoint {
        let (tx, rx) = mpsc::channel();
        let mut st = self.state.lock();
        if let Some(slot) = st.mailboxes.get_mut(node as usize) {
            *slot = tx;
        }
        Endpoint {
            sender: NetSender {
                node,
                state: Arc::clone(&self.state),
            },
            rx,
        }
    }

    /// Lifetime counters so far.
    pub fn stats(&self) -> NetStats {
        self.state.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdisk::NetFaultModel;

    fn ping(i: u64) -> Msg {
        Msg::Pass { pass: i }
    }

    /// The pings waiting in `ep`'s mailbox, in delivery order.
    fn passes(ep: &Endpoint) -> Vec<u64> {
        std::iter::from_fn(|| ep.try_recv())
            .map(|e| match e.msg {
                Msg::Pass { pass } => pass,
                _ => u64::MAX,
            })
            .collect()
    }

    #[test]
    fn quiet_network_delivers_in_order() {
        let (net, mut eps) = Network::new(2, NetFaultModel::none());
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        for i in 0..10 {
            a.send(1, 0, ping(i));
        }
        for i in 0..10 {
            let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(env.msg, ping(i));
            assert_eq!(env.src, 0);
        }
        assert_eq!(net.stats().delivered, 10);
        assert_eq!(net.stats().dropped, 0);
    }

    #[test]
    fn scripted_drop_loses_exactly_that_message() {
        let model = NetFaultModel::seeded(3).script(0, 1, 2, pdisk::NetFault::Drop);
        let (net, mut eps) = Network::new(2, model);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        for i in 0..5 {
            a.send(1, 0, ping(i));
        }
        let got = passes(&b);
        assert_eq!(got, vec![0, 1, 3, 4]);
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn scripted_duplicate_delivers_twice() {
        let model = NetFaultModel::seeded(3).script(0, 1, 1, pdisk::NetFault::Duplicate);
        let (_net, mut eps) = Network::new(2, model);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        for i in 0..3 {
            a.send(1, 0, ping(i));
        }
        let got = passes(&b);
        assert_eq!(got, vec![0, 1, 1, 2]);
    }

    #[test]
    fn delayed_message_is_reordered_then_released() {
        let model = NetFaultModel::seeded(3).script(0, 1, 0, pdisk::NetFault::Delay(2));
        let (_net, mut eps) = Network::new(2, model);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        for i in 0..4 {
            a.send(1, 0, ping(i));
        }
        let got = passes(&b);
        // Message 0 waits until two further sends have entered the net.
        assert_eq!(got, vec![1, 2, 0, 3]);
    }

    #[test]
    fn partition_drops_crossing_traffic_until_it_heals() {
        let model = NetFaultModel::seeded(3).partition(1, 0, 3);
        let (net, mut eps) = Network::new(3, model);
        let _c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(1, 0, ping(0)); // global 0: dropped
        a.send(2, 0, ping(1)); // global 1: 0→2 does not cross, delivered
        a.send(1, 0, ping(2)); // global 2: dropped
        a.send(1, 0, ping(3)); // global 3: healed, delivered
        let got = passes(&b);
        assert_eq!(got, vec![3]);
        assert_eq!(net.stats().dropped, 2);
    }
}
