//! Packet reordering detection.
//!
//! The paper's central claim is that a Sprinklers switch never reorders
//! packets within a VOQ (and therefore never within an application flow).
//! This module checks both properties on the delivered packet stream:
//!
//! * **VOQ order** — for each `(input, output)` pair, the `voq_seq` numbers of
//!   delivered data packets must be strictly increasing.
//! * **Flow order** — for each `(input, output, flow)` triple, the `voq_seq`
//!   numbers must also be increasing (a flow is a subsequence of one VOQ, so
//!   VOQ order implies flow order, but schemes such as TCP hashing preserve
//!   only flow order; measuring both separates the two guarantees).
//!
//! Every violation is counted, and the maximum observed displacement (how far
//! behind the newest already-delivered sequence number a late packet was) is
//! tracked, which corresponds to the size of the resequencing buffer an
//! output would need to repair the ordering (the quantity FOFF bounds by
//! O(N²)).
//!
//! # Cost and determinism
//!
//! `observe` runs once per delivered packet, so the per-VOQ state is one
//! dense table indexed by `input · n + output`: n² entries of 24 bytes (the
//! same order as the engine's own `voq_seq` table; 96 KiB at n = 64) plus a
//! dirty bit each.  An entry also caches the high-water mark of the flow its
//! VOQ delivered last; only a change of flow id writes that mark back to, and
//! loads the next from, a `BTreeMap` keyed by `(input, output, flow)`.
//! Single-flow traffic (every Bernoulli source is flow 0) never touches it.
//! The flat table is as deterministic as the ordered maps it replaces:
//! nothing iterates it, and no hash container is used, so reports stay
//! byte-identical across runs (the rule `sprinklers-lint` enforces).

use serde::{Deserialize, Serialize};
use sprinklers_core::packet::Packet;
use std::collections::BTreeMap;

/// Aggregate reordering statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReorderStats {
    /// Packets delivered with a `voq_seq` lower than one already delivered
    /// for the same VOQ.
    pub voq_reorder_events: u64,
    /// Packets delivered with a `voq_seq` lower than one already delivered
    /// for the same `(input, output, flow)` triple.
    pub flow_reorder_events: u64,
    /// Largest sequence-number displacement observed within a VOQ.
    pub max_voq_displacement: u64,
    /// Number of distinct VOQs that experienced at least one reordering.
    pub reordered_voqs: u64,
}

impl ReorderStats {
    /// True if no reordering of any kind was observed.
    pub fn is_ordered(&self) -> bool {
        self.voq_reorder_events == 0 && self.flow_reorder_events == 0
    }
}

/// Detector state of one VOQ.
///
/// A high-water mark of 0 doubles as "nothing delivered yet": the first
/// packet of a VOQ or flow can never be behind 0, so it always just raises
/// the mark, exactly as inserting a fresh key would.
#[derive(Debug, Clone, Copy, Default)]
struct VoqEntry {
    /// Highest `voq_seq` delivered so far.
    high: u64,
    /// The flow whose high-water mark `flow_high` caches.
    flow: u64,
    /// Highest `voq_seq` delivered so far for `flow`.
    flow_high: u64,
}

/// Streaming reordering detector for an `n`-port switch.
#[derive(Debug, Clone)]
pub struct ReorderDetector {
    n: usize,
    /// Per-VOQ state, indexed by `input * n + output`.
    voqs: Vec<VoqEntry>,
    /// One bit per VOQ, set at its first violation.
    dirty: Vec<u64>,
    /// High-water marks of flows evicted from their VOQ's cache entry.
    flow_high: BTreeMap<(usize, usize, u64), u64>,
    stats: ReorderStats,
}

impl ReorderDetector {
    /// Create an empty detector for packets whose input and output ports
    /// are below `n`.
    pub fn new(n: usize) -> Self {
        ReorderDetector {
            n,
            voqs: vec![VoqEntry::default(); n * n],
            dirty: vec![0; (n * n).div_ceil(64)],
            flow_high: BTreeMap::new(),
            stats: ReorderStats::default(),
        }
    }

    /// Observe a delivered packet.  Padding packets are ignored.
    // lint: hot-path
    #[inline]
    pub fn observe(&mut self, packet: &Packet) {
        if packet.is_padding() {
            return;
        }
        let (input, output) = packet.voq();
        debug_assert!(input < self.n && output < self.n, "port outside 0..n");
        let key = input * self.n + output;
        let seq = packet.voq_seq;
        let entry = &mut self.voqs[key];
        if seq < entry.high {
            self.stats.voq_reorder_events += 1;
            let displacement = entry.high - seq;
            self.stats.max_voq_displacement = self.stats.max_voq_displacement.max(displacement);
            let bit = 1u64 << (key % 64);
            if self.dirty[key / 64] & bit == 0 {
                self.dirty[key / 64] |= bit;
                self.stats.reordered_voqs += 1;
            }
        } else {
            entry.high = seq;
        }
        if entry.flow != packet.flow {
            self.switch_flow(input, output, packet.flow);
        }
        let entry = &mut self.voqs[key];
        if seq < entry.flow_high {
            self.stats.flow_reorder_events += 1;
        } else {
            entry.flow_high = seq;
        }
    }

    /// Point VOQ `(input, output)`'s flow cache at `flow`: write the cached
    /// flow's mark back to the map and load `flow`'s (0 if never seen).
    #[cold]
    #[inline(never)]
    fn switch_flow(&mut self, input: usize, output: usize, flow: u64) {
        let entry = &mut self.voqs[input * self.n + output];
        self.flow_high
            .insert((input, output, entry.flow), entry.flow_high);
        entry.flow = flow;
        entry.flow_high = self
            .flow_high
            .get(&(input, output, flow))
            .copied()
            .unwrap_or(0);
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> ReorderStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The detector as it was before the dense table: ordered maps keyed by
    /// VOQ and by flow.  Kept as the oracle for the differential property.
    #[derive(Default)]
    struct MapDetector {
        voq_high: BTreeMap<(usize, usize), u64>,
        flow_high: BTreeMap<(usize, usize, u64), u64>,
        dirty_voqs: BTreeSet<(usize, usize)>,
        stats: ReorderStats,
    }

    impl MapDetector {
        fn observe(&mut self, packet: &Packet) {
            if packet.is_padding() {
                return;
            }
            let voq = packet.voq();
            match self.voq_high.get_mut(&voq) {
                None => {
                    self.voq_high.insert(voq, packet.voq_seq);
                }
                Some(high) => {
                    if packet.voq_seq < *high {
                        self.stats.voq_reorder_events += 1;
                        let displacement = *high - packet.voq_seq;
                        self.stats.max_voq_displacement =
                            self.stats.max_voq_displacement.max(displacement);
                        if self.dirty_voqs.insert(voq) {
                            self.stats.reordered_voqs += 1;
                        }
                    } else {
                        *high = packet.voq_seq;
                    }
                }
            }
            let flow_key = (packet.input(), packet.output(), packet.flow);
            match self.flow_high.get_mut(&flow_key) {
                None => {
                    self.flow_high.insert(flow_key, packet.voq_seq);
                }
                Some(high) => {
                    if packet.voq_seq < *high {
                        self.stats.flow_reorder_events += 1;
                    } else {
                        *high = packet.voq_seq;
                    }
                }
            }
        }
    }

    fn pkt(input: usize, output: usize, flow: u64, seq: u64) -> Packet {
        Packet::new(input, output, seq, 0)
            .with_flow(flow)
            .with_voq_seq(seq)
    }

    #[test]
    fn in_order_delivery_is_clean() {
        let mut d = ReorderDetector::new(2);
        for seq in 0..100 {
            d.observe(&pkt(0, 1, 7, seq));
        }
        assert!(d.stats().is_ordered());
        assert_eq!(d.stats().reordered_voqs, 0);
    }

    #[test]
    fn a_single_swap_is_detected() {
        let mut d = ReorderDetector::new(2);
        d.observe(&pkt(0, 1, 7, 0));
        d.observe(&pkt(0, 1, 7, 2));
        d.observe(&pkt(0, 1, 7, 1));
        let s = d.stats();
        assert_eq!(s.voq_reorder_events, 1);
        assert_eq!(s.flow_reorder_events, 1);
        assert_eq!(s.max_voq_displacement, 1);
        assert_eq!(s.reordered_voqs, 1);
        assert!(!s.is_ordered());
    }

    #[test]
    fn voq_reordering_across_different_flows_is_not_flow_reordering() {
        let mut d = ReorderDetector::new(2);
        // Two flows interleaved within the same VOQ: the VOQ sees 0, 2, 1, 3
        // (reordered) but each flow individually is in order.
        d.observe(&pkt(0, 1, 100, 0));
        d.observe(&pkt(0, 1, 200, 2));
        d.observe(&pkt(0, 1, 100, 1));
        d.observe(&pkt(0, 1, 200, 3));
        let s = d.stats();
        assert_eq!(s.voq_reorder_events, 1);
        assert_eq!(s.flow_reorder_events, 0);
    }

    #[test]
    fn different_voqs_do_not_interfere() {
        let mut d = ReorderDetector::new(3);
        d.observe(&pkt(0, 1, 1, 5));
        d.observe(&pkt(1, 1, 2, 0));
        d.observe(&pkt(0, 2, 3, 0));
        assert!(d.stats().is_ordered());
    }

    #[test]
    fn displacement_tracks_the_worst_case() {
        let mut d = ReorderDetector::new(2);
        d.observe(&pkt(0, 1, 7, 10));
        d.observe(&pkt(0, 1, 7, 3));
        d.observe(&pkt(0, 1, 7, 9));
        let s = d.stats();
        assert_eq!(s.voq_reorder_events, 2);
        assert_eq!(s.max_voq_displacement, 7);
        assert_eq!(s.reordered_voqs, 1);
    }

    #[test]
    fn padding_packets_are_ignored() {
        let mut d = ReorderDetector::new(2);
        d.observe(&pkt(0, 1, 7, 5));
        d.observe(&Packet::padding(0, 1, 0));
        assert!(d.stats().is_ordered());
    }

    #[test]
    fn a_flow_evicted_from_the_cache_keeps_its_high_water_mark() {
        let mut d = ReorderDetector::new(2);
        d.observe(&pkt(1, 1, 5, 8));
        d.observe(&pkt(1, 1, 6, 9));
        // Flow 5 comes back behind its own mark of 8.
        d.observe(&pkt(1, 1, 5, 7));
        let s = d.stats();
        assert_eq!(s.flow_reorder_events, 1);
        assert_eq!(s.voq_reorder_events, 1);
        assert_eq!(s.max_voq_displacement, 2);
    }

    proptest! {
        /// The dense detector reports exactly the statistics of the map
        /// detector after every observation, on streams that mix several
        /// flows per VOQ, padding, late packets and the highest port `n - 1`.
        #[test]
        fn dense_table_matches_the_map_detector(
            n in 1usize..9,
            stream in proptest::collection::vec(
                ((0usize..16, 0usize..16), (0u64..4, 0u64..8, 0u32..12)),
                1..400,
            ),
        ) {
            // Selectors of 12 and above pin a port to the edge, n - 1.
            let port = |sel: usize| if sel >= 12 { n - 1 } else { sel % n };
            let mut dense = ReorderDetector::new(n);
            let mut oracle = MapDetector::default();
            let mut next = vec![0u64; n * n];
            for ((in_sel, out_sel), (flow, jitter, kind)) in stream {
                let (input, output) = (port(in_sel), port(out_sel));
                let packet = if kind == 0 {
                    Packet::padding(input, output, 0)
                } else {
                    // Mostly increasing per VOQ, with steps back of up to 3.
                    let counter = &mut next[input * n + output];
                    let seq = (*counter + jitter).saturating_sub(3);
                    *counter += 1;
                    pkt(input, output, flow, seq)
                };
                dense.observe(&packet);
                oracle.observe(&packet);
                prop_assert_eq!(dense.stats(), oracle.stats);
            }
        }
    }
}
