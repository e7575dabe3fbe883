//! Seeded fault model for **message channels** between simulated nodes.
//!
//! [`crate::faulty`] decides the fate of *disk operations*; this module is
//! its sibling for the links of a distributed sort (`srm-dist`): every
//! message send is a pure-hash trial that may **drop**, **delay**
//! (reorder behind later traffic), or **duplicate** the message, plus
//! scripted per-edge faults and **partition windows** that cut one node
//! off from the rest for a span of sends.
//!
//! Like the disk fault model, decisions are a *pure function* of
//! `(seed, src, dst, edge ordinal)` — no shared RNG stream — so the same
//! seed produces the same fault schedule regardless of thread
//! interleaving, and a recovery run re-deciding the same edge ordinals
//! sees the same faults.  The model only *decides*; the channel wrapper
//! that owns the mailboxes (in `srm-dist`) applies the verdicts.

/// What happens to one message on one edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The message vanishes; the sender learns nothing.
    Drop,
    /// Delivery is deferred until `n` further sends have entered the
    /// network (a bounded reordering, as on a retransmitting link).
    Delay(u64),
    /// The message is delivered twice (as after an ack loss and
    /// retransmit at a lower layer).
    Duplicate,
}

/// A fault pinned to one `(src, dst)` edge's `ordinal`-th send, for
/// deterministic drills — the channel analogue of
/// [`crate::faulty::ScriptedFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptedNetFault {
    /// Sending node (the coordinator is node ID `P` by `srm-dist`
    /// convention; shards are `0..P`).
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// Zero-based count of sends on this edge before the fault fires.
    pub ordinal: u64,
    /// The injected fault.
    pub fault: NetFault,
}

/// A span of global send ordinals during which `node` is cut off from
/// every other node: messages with exactly one endpoint equal to `node`
/// are dropped while `from <= global_ordinal < until`.
///
/// The window is measured in *sends*, not wall time, so it is
/// deterministic under any interleaving — and because heartbeats keep
/// entering the network (and being dropped), the global ordinal keeps
/// advancing and every partition eventually heals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// The isolated node.
    pub node: u32,
    /// First global send ordinal inside the partition.
    pub from: u64,
    /// First global send ordinal after the partition heals.
    pub until: u64,
}

/// The model's verdict for one send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver normally.
    Deliver,
    /// Apply the given fault.
    Fault(NetFault),
}

/// Seeded, scriptable fault model for node-to-node messages.
///
/// All rates are probabilities in `[0, 1)`, tried independently per send
/// in the order *partition → scripted → drop → duplicate → delay*; the
/// first verdict wins.
#[derive(Debug, Clone, Default)]
pub struct NetFaultModel {
    seed: u64,
    drop_rate: f64,
    dup_rate: f64,
    delay_rate: f64,
    max_delay: u64,
    scripted: Vec<ScriptedNetFault>,
    partitions: Vec<PartitionWindow>,
}

impl NetFaultModel {
    /// A model that never injects anything.
    pub fn none() -> Self {
        NetFaultModel::default()
    }

    /// A seeded model with all rates zero; compose with the builders.
    pub fn seeded(seed: u64) -> Self {
        NetFaultModel {
            seed,
            max_delay: 4,
            ..NetFaultModel::default()
        }
    }

    /// Set the per-send drop probability.
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "drop rate must be in [0, 1)");
        self.drop_rate = rate;
        self
    }

    /// Set the per-send duplication probability.
    pub fn with_dup_rate(mut self, rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "dup rate must be in [0, 1)");
        self.dup_rate = rate;
        self
    }

    /// Set the per-send delay probability; a delayed message waits
    /// between 1 and `max_delay` further sends before delivery.
    pub fn with_delay_rate(mut self, rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "delay rate must be in [0, 1)");
        self.delay_rate = rate;
        self
    }

    /// Bound the reordering window of seeded delays (default 4 sends).
    pub fn with_max_delay(mut self, max_delay: u64) -> Self {
        assert!(max_delay >= 1, "max delay must be at least one send");
        self.max_delay = max_delay;
        self
    }

    /// Script a fault on the `ordinal`-th send from `src` to `dst`.
    pub fn script(mut self, src: u32, dst: u32, ordinal: u64, fault: NetFault) -> Self {
        self.scripted.push(ScriptedNetFault {
            src,
            dst,
            ordinal,
            fault,
        });
        self
    }

    /// Cut `node` off from everyone for global send ordinals
    /// `[from, until)`.
    pub fn partition(mut self, node: u32, from: u64, until: u64) -> Self {
        assert!(from < until, "partition window must be non-empty");
        self.partitions.push(PartitionWindow { node, from, until });
        self
    }

    /// True if a `src → dst` message at `global_ordinal` crosses an open
    /// partition boundary.
    pub fn partitioned(&self, src: u32, dst: u32, global_ordinal: u64) -> bool {
        self.partitions.iter().any(|w| {
            (w.from..w.until).contains(&global_ordinal) && ((src == w.node) != (dst == w.node))
        })
    }

    /// A uniform `[0, 1)` draw that is a pure function of
    /// `(seed, src, dst, edge ordinal, salt)`: splitmix64 over the packed
    /// trial identity, exactly as [`crate::faulty`] does for disk ops.
    /// `salt` separates the drop, duplicate, and delay trials one send
    /// makes on the same edge.
    fn trial(&self, src: u32, dst: u32, edge_ordinal: u64, salt: u64) -> f64 {
        let edge_tag = (u64::from(src) << 32) | u64::from(dst);
        let mut x = self
            .seed
            .wrapping_add(edge_ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(edge_tag.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(salt.wrapping_mul(0x94D0_49BB_1331_11EB));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Decide the fate of the `edge_ordinal`-th send from `src` to `dst`,
    /// which is the `global_ordinal`-th send network-wide.  Pure: the
    /// same arguments always yield the same verdict.
    pub fn decide(
        &self,
        src: u32,
        dst: u32,
        edge_ordinal: u64,
        global_ordinal: u64,
    ) -> Delivery {
        if self.partitioned(src, dst, global_ordinal) {
            return Delivery::Fault(NetFault::Drop);
        }
        if let Some(s) = self
            .scripted
            .iter()
            .find(|s| s.src == src && s.dst == dst && s.ordinal == edge_ordinal)
        {
            return Delivery::Fault(s.fault);
        }
        if self.drop_rate > 0.0 && self.trial(src, dst, edge_ordinal, 1) < self.drop_rate {
            return Delivery::Fault(NetFault::Drop);
        }
        if self.dup_rate > 0.0 && self.trial(src, dst, edge_ordinal, 2) < self.dup_rate {
            return Delivery::Fault(NetFault::Duplicate);
        }
        if self.delay_rate > 0.0 && self.trial(src, dst, edge_ordinal, 3) < self.delay_rate {
            let span = self.max_delay.max(1);
            let slots = 1 + (self.trial(src, dst, edge_ordinal, 4) * span as f64) as u64;
            return Delivery::Fault(NetFault::Delay(slots.min(span)));
        }
        Delivery::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_model_always_delivers() {
        let m = NetFaultModel::none();
        for i in 0..100 {
            assert_eq!(m.decide(0, 1, i, i), Delivery::Deliver);
        }
    }

    #[test]
    fn decisions_are_pure_functions_of_identity() {
        let m = NetFaultModel::seeded(42).with_drop_rate(0.3).with_delay_rate(0.3);
        for i in 0..200 {
            assert_eq!(m.decide(2, 7, i, i), m.decide(2, 7, i, i + 1000));
        }
        // A clone decides identically: no hidden mutable state.
        let m2 = m.clone();
        for i in 0..200 {
            assert_eq!(m.decide(1, 3, i, 0), m2.decide(1, 3, i, 0));
        }
    }

    #[test]
    fn drop_rate_is_roughly_honored() {
        let m = NetFaultModel::seeded(7).with_drop_rate(0.25);
        let dropped = (0..4000)
            .filter(|&i| m.decide(0, 1, i, i) == Delivery::Fault(NetFault::Drop))
            .count();
        assert!((800..1200).contains(&dropped), "dropped {dropped}/4000");
    }

    #[test]
    fn scripted_fault_fires_on_its_edge_and_ordinal_only() {
        let m = NetFaultModel::seeded(1).script(3, 0, 5, NetFault::Duplicate);
        assert_eq!(m.decide(3, 0, 5, 99), Delivery::Fault(NetFault::Duplicate));
        assert_eq!(m.decide(3, 0, 4, 99), Delivery::Deliver);
        assert_eq!(m.decide(0, 3, 5, 99), Delivery::Deliver);
    }

    #[test]
    fn partition_cuts_exactly_the_crossing_edges_for_its_window() {
        let m = NetFaultModel::seeded(1).partition(2, 10, 20);
        // Crossing edges inside the window drop, both directions.
        assert_eq!(m.decide(2, 0, 0, 10), Delivery::Fault(NetFault::Drop));
        assert_eq!(m.decide(0, 2, 0, 19), Delivery::Fault(NetFault::Drop));
        // Non-crossing traffic is untouched.
        assert_eq!(m.decide(0, 1, 0, 15), Delivery::Deliver);
        // Outside the window the edge heals.
        assert_eq!(m.decide(2, 0, 0, 9), Delivery::Deliver);
        assert_eq!(m.decide(2, 0, 0, 20), Delivery::Deliver);
        assert!(m.partitioned(2, 1, 10));
        assert!(!m.partitioned(2, 1, 20));
    }

    #[test]
    fn seeded_delay_is_bounded_by_max_delay() {
        let m = NetFaultModel::seeded(9).with_delay_rate(0.9).with_max_delay(3);
        for i in 0..500 {
            if let Delivery::Fault(NetFault::Delay(n)) = m.decide(1, 2, i, i) {
                assert!((1..=3).contains(&n), "delay {n} out of bounds");
            }
        }
    }
}
