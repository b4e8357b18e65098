//! Largest Stripe First (LSF) schedulers for the input stage (§3.4).
//!
//! An input port must decide, whenever the first fabric connects it to an
//! intermediate port ("row"), which queued packet to send.  The paper's LSF
//! policy gives priority to larger stripes; this module provides the two
//! faithful realizations described in the paper and selectable via
//! [`crate::config::InputDiscipline`]:
//!
//! * [`AtomicLsf`] — Algorithm 1 taken literally: a stripe only *starts*
//!   service when the connection reaches the first port of its dyadic
//!   interval, and is then served to completion in consecutive slots, so
//!   every stripe leaves the input port in one contiguous burst.
//! * [`RowScanLsf`] — the simplified implementation of §3.4.2/Fig. 4: an
//!   `N×(log₂N+1)` grid of FIFO queues; at each slot the connected row is
//!   scanned from the largest stripe-size column to the smallest and the head
//!   of the first non-empty queue is served.  This discipline is strictly
//!   work-conserving.
//!
//! Both implement the [`StripeScheduler`] trait so the input port (and the
//! tests and benches) can treat them interchangeably.

use crate::dyadic::DyadicInterval;
use crate::packet::Packet;
use std::collections::VecDeque;

/// Common interface of the input-stage stripe schedulers.
pub trait StripeScheduler {
    /// Insert ("plaster") the stripe over `interval` that sits at the front
    /// of a VOQ's ready ring: its first `interval.size()` packets, already
    /// stamped by [`crate::stripe::stamp`], are moved off the ring.
    fn insert(&mut self, interval: DyadicInterval, ready: &mut VecDeque<Packet>);

    /// Serve the given row (intermediate port): return the packet to transmit
    /// in this slot, or `None` if the scheduler has nothing to send to that
    /// intermediate port under its discipline.
    fn serve(&mut self, row: usize) -> Option<Packet>;

    /// Total number of packets currently queued.
    fn queued_packets(&self) -> usize;

    /// Number of packets currently queued that are destined to `row`.
    fn queued_in_row(&self, row: usize) -> usize;

    /// True if no packets are queued.
    fn is_empty(&self) -> bool {
        self.queued_packets() == 0
    }
}

/// The number of stripe-size levels for an `n`-port switch: `log₂(n) + 1`.
pub fn levels(n: usize) -> usize {
    debug_assert!(n.is_power_of_two());
    n.trailing_zeros() as usize + 1
}

// ---------------------------------------------------------------------------
// Row-scan LSF (§3.4.2)
// ---------------------------------------------------------------------------

/// The `N×(log₂N+1)` FIFO grid of §3.4.2 with largest-column-first row scans.
#[derive(Debug, Clone)]
pub struct RowScanLsf {
    n: usize,
    levels: usize,
    /// `queues[row][level]`: packets headed to intermediate port `row` that
    /// belong to stripes of size `2^level`.
    queues: Vec<Vec<VecDeque<Packet>>>,
    queued: usize,
    row_counts: Vec<usize>,
}

impl RowScanLsf {
    /// Create an empty scheduler for an `n`-port switch.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "switch size {n} must be a power of two"
        );
        let levels = levels(n);
        RowScanLsf {
            n,
            levels,
            queues: (0..n)
                .map(|_| (0..levels).map(|_| VecDeque::new()).collect())
                .collect(),
            queued: 0,
            row_counts: vec![0; n],
        }
    }

    /// Switch size N.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Occupancy of a single `(row, level)` FIFO (exposed for tests/metrics).
    pub fn queue_len(&self, row: usize, level: usize) -> usize {
        self.queues[row][level].len()
    }
}

impl StripeScheduler for RowScanLsf {
    // lint: hot-path
    fn insert(&mut self, interval: DyadicInterval, ready: &mut VecDeque<Packet>) {
        let level = interval.level();
        debug_assert!(level < self.levels);
        debug_assert!(interval.end() <= self.n);
        let rows = interval.start()..interval.end();
        for (row, packet) in rows.zip(ready.drain(..interval.size())) {
            self.queues[row][level].push_back(packet);
            self.row_counts[row] += 1;
        }
        self.queued += interval.size();
    }

    fn serve(&mut self, row: usize) -> Option<Packet> {
        // Fast miss: the sparse stepping loops probe whichever row the fabric
        // rotation reaches, and most probes find nothing — answer those from
        // the per-row count instead of scanning every level's FIFO.
        if self.row_counts[row] == 0 {
            return None;
        }
        // Scan from the largest stripe-size column ("rightmost bit") down.
        for level in (0..self.levels).rev() {
            if let Some(packet) = self.queues[row][level].pop_front() {
                self.queued -= 1;
                self.row_counts[row] -= 1;
                return Some(packet);
            }
        }
        None
    }

    fn queued_packets(&self) -> usize {
        self.queued
    }

    fn queued_in_row(&self, row: usize) -> usize {
        self.row_counts[row]
    }
}

// ---------------------------------------------------------------------------
// Stripe-atomic LSF (Algorithm 1)
// ---------------------------------------------------------------------------

/// A stripe currently being served by the atomic scheduler.
#[derive(Debug, Clone)]
struct InService {
    level: usize,
    /// The packets not yet served, last offset first.
    rest: Vec<Packet>,
}

/// Algorithm 1 of the paper: stripes start only at the first port of their
/// interval and are served to completion in consecutive slots.
///
/// A queued stripe is a buffer of exactly `2^level` packets in reverse
/// offset order, so service pops them off the back by move.  Emptied buffers
/// go back to a per-level pool and carry the next stripe of that level:
/// once the pools reach the run's high-water mark, inserting and serving
/// stripes allocate nothing.
#[derive(Debug, Clone)]
pub struct AtomicLsf {
    n: usize,
    levels: usize,
    /// One FIFO of stripes per dyadic interval.  `interval_queues[level][index]`
    /// holds the stripes with interval `[index·2^level, (index+1)·2^level)`.
    /// There are `2N − 1` FIFOs in total, exactly as §3.4.2 observes.
    interval_queues: Vec<Vec<VecDeque<Vec<Packet>>>>,
    /// `pools[level]`: empty stripe buffers with room for `2^level` packets.
    pools: Vec<Vec<Vec<Packet>>>,
    in_service: Option<InService>,
    queued: usize,
    row_counts: Vec<usize>,
}

impl AtomicLsf {
    /// Create an empty scheduler for an `n`-port switch.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "switch size {n} must be a power of two"
        );
        let levels = levels(n);
        let interval_queues = (0..levels)
            .map(|level| {
                let count = n >> level;
                (0..count).map(|_| VecDeque::new()).collect()
            })
            .collect();
        AtomicLsf {
            n,
            levels,
            interval_queues,
            pools: vec![Vec::new(); levels],
            in_service: None,
            queued: 0,
            row_counts: vec![0; n],
        }
    }

    /// Switch size N.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Is a stripe currently mid-service?
    pub fn stripe_in_service(&self) -> bool {
        self.in_service.is_some()
    }

    /// Number of queued stripes (not counting the one in service).
    pub fn queued_stripes(&self) -> usize {
        self.interval_queues
            .iter()
            .map(|per_level| per_level.iter().map(VecDeque::len).sum::<usize>())
            .sum()
    }
}

/// A buffer for a stripe of `size` packets, for when the level's pool is
/// empty: only while the pools grow to their high-water mark.
#[cold]
fn stripe_buffer(size: usize) -> Vec<Packet> {
    Vec::with_capacity(size)
}

impl StripeScheduler for AtomicLsf {
    // lint: hot-path
    fn insert(&mut self, interval: DyadicInterval, ready: &mut VecDeque<Packet>) {
        let level = interval.level();
        let size = interval.size();
        debug_assert!(interval.end() <= self.n);
        let mut buffer = match self.pools[level].pop() {
            Some(buffer) => buffer,
            None => stripe_buffer(size),
        };
        buffer.extend(ready.drain(..size).rev());
        for row in interval.start()..interval.end() {
            self.row_counts[row] += 1;
        }
        self.queued += size;
        self.interval_queues[level][interval.index()].push_back(buffer);
    }

    // lint: hot-path
    fn serve(&mut self, row: usize) -> Option<Packet> {
        // Continue a stripe already in service: its next packet is always
        // destined to the current row because the connection pattern advances
        // one intermediate port per slot and the stripe's ports are
        // consecutive.
        if let Some(svc) = &mut self.in_service {
            let packet = svc.rest.pop();
            debug_assert_eq!(packet.as_ref().map(Packet::intermediate), Some(row));
            if svc.rest.is_empty() {
                if let Some(done) = self.in_service.take() {
                    self.pools[done.level].push(done.rest);
                }
            }
            self.queued -= 1;
            self.row_counts[row] -= 1;
            return packet;
        }

        // Fast miss: nothing queued through this row at all (the common case
        // for the sparse stepping probes) answers from the per-row count.
        if self.row_counts[row] == 0 {
            return None;
        }

        // Otherwise, among the stripes whose interval starts at this row, pick
        // the largest (FCFS within a level, and levels with larger stripes
        // win).  A dyadic interval starts at `row` iff `row` is a multiple of
        // its size.
        for level in (0..self.levels).rev() {
            let size = 1usize << level;
            if !row.is_multiple_of(size) {
                continue;
            }
            let index = row / size;
            if let Some(mut rest) = self.interval_queues[level][index].pop_front() {
                let packet = rest.pop();
                self.queued -= 1;
                self.row_counts[row] -= 1;
                if rest.is_empty() {
                    self.pools[level].push(rest);
                } else {
                    self.in_service = Some(InService { level, rest });
                }
                return packet;
            }
        }
        None
    }

    fn queued_packets(&self) -> usize {
        self.queued
    }

    fn queued_in_row(&self, row: usize) -> usize {
        self.row_counts[row]
    }
}

/// Construct the scheduler selected by an [`crate::config::InputDiscipline`].
pub fn make_scheduler(
    discipline: crate::config::InputDiscipline,
    n: usize,
) -> Box<dyn StripeScheduler + Send> {
    match discipline {
        crate::config::InputDiscipline::RowScan => Box::new(RowScanLsf::new(n)),
        crate::config::InputDiscipline::StripeAtomic => Box::new(AtomicLsf::new(n)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dyadic::DyadicInterval;
    use proptest::prelude::*;

    /// Stamp a stripe of `size` packets over `[start, start + size)` and
    /// insert it, as a VOQ would.  `voq_seq / 100` identifies the stripe.
    fn insert(s: &mut dyn StripeScheduler, n: usize, start: usize, size: usize, seq: u64) {
        assert!(start + size <= n);
        let interval = DyadicInterval::new(start, size);
        let mut ready: VecDeque<Packet> = (0..size)
            .map(|i| Packet::new(0, 1, seq * 100 + i as u64, 0).with_voq_seq(seq * 100 + i as u64))
            .collect();
        crate::stripe::stamp(interval, &mut ready);
        s.insert(interval, &mut ready);
        assert!(
            ready.is_empty(),
            "insert takes the whole stripe off the ring"
        );
    }

    #[test]
    fn row_scan_serves_largest_level_first() {
        let mut s = RowScanLsf::new(8);
        insert(&mut s, 8, 0, 1, 0); // level 0 at row 0
        insert(&mut s, 8, 0, 4, 1); // level 2 at rows 0..4
        let p = s.serve(0).unwrap();
        assert_eq!(p.stripe_size(), 4, "the larger stripe must be served first");
        let p = s.serve(0).unwrap();
        assert_eq!(p.stripe_size(), 1);
        assert!(s.serve(0).is_none());
        assert_eq!(s.queued_packets(), 3);
    }

    #[test]
    fn row_scan_is_work_conserving() {
        let mut s = RowScanLsf::new(8);
        insert(&mut s, 8, 4, 4, 0);
        // Any row within [4, 8) must be servable immediately.
        for row in 4..8 {
            assert!(s.queued_in_row(row) > 0);
            assert!(s.serve(row).is_some());
        }
        assert!(s.is_empty());
    }

    #[test]
    fn atomic_starts_only_at_interval_start() {
        let mut s = AtomicLsf::new(8);
        insert(&mut s, 8, 0, 4, 0);
        // Rows 1..4 cannot start the stripe.
        assert!(s.serve(1).is_none());
        assert!(s.serve(2).is_none());
        // Row 0 starts it; rows 1..3 then continue it.
        assert!(s.serve(0).is_some());
        assert!(s.stripe_in_service());
        assert!(s.serve(1).is_some());
        assert!(s.serve(2).is_some());
        assert!(s.serve(3).is_some());
        assert!(!s.stripe_in_service());
        assert!(s.is_empty());
    }

    #[test]
    fn atomic_serves_stripe_contiguously_in_offset_order() {
        let mut s = AtomicLsf::new(8);
        insert(&mut s, 8, 4, 4, 3);
        let mut served = Vec::new();
        for row in 4..8 {
            served.push(s.serve(row).unwrap());
        }
        for (i, p) in served.iter().enumerate() {
            assert_eq!(p.stripe_index(), i);
            assert_eq!(p.intermediate(), 4 + i);
        }
    }

    #[test]
    fn atomic_prefers_largest_stripe_at_start_row() {
        let mut s = AtomicLsf::new(8);
        insert(&mut s, 8, 0, 2, 0);
        insert(&mut s, 8, 0, 8, 1);
        let p = s.serve(0).unwrap();
        assert_eq!(p.stripe_size(), 8);
        // The size-2 stripe must wait until the size-8 stripe finishes and the
        // connection wraps around to row 0 again.
        for row in 1..8 {
            let q = s.serve(row).unwrap();
            assert_eq!(q.stripe_size(), 8);
        }
        let p = s.serve(0).unwrap();
        assert_eq!(p.stripe_size(), 2);
    }

    #[test]
    fn atomic_fcfs_within_same_interval() {
        let mut s = AtomicLsf::new(4);
        insert(&mut s, 4, 0, 2, 0);
        insert(&mut s, 4, 0, 2, 1);
        let first = s.serve(0).unwrap();
        s.serve(1).unwrap();
        let second = s.serve(0).unwrap();
        assert!(
            first.voq_seq < second.voq_seq,
            "stripes of the same interval are FCFS"
        );
    }

    #[test]
    fn atomic_reuses_stripe_buffers_per_level() {
        let mut s = AtomicLsf::new(8);
        insert(&mut s, 8, 0, 4, 0);
        insert(&mut s, 8, 4, 2, 1);
        for row in 0..6 {
            assert!(s.serve(row).is_some());
        }
        assert_eq!(s.pools[2].len(), 1, "a finished stripe returns its buffer");
        assert_eq!(s.pools[1].len(), 1);
        insert(&mut s, 8, 4, 4, 2);
        assert!(
            s.pools[2].is_empty(),
            "the next stripe of the level reuses it"
        );
        for row in 4..8 {
            assert_eq!(s.serve(row).map(|p| p.voq_seq), Some(200 + row as u64 - 4));
        }
        assert_eq!(s.pools[2].len(), 1);
        assert!(s.is_empty());
    }

    #[test]
    fn queued_in_row_tracks_insertions_and_service() {
        let mut s = RowScanLsf::new(8);
        insert(&mut s, 8, 0, 2, 0);
        insert(&mut s, 8, 0, 8, 1);
        assert_eq!(s.queued_in_row(0), 2);
        assert_eq!(s.queued_in_row(1), 2);
        assert_eq!(s.queued_in_row(5), 1);
        s.serve(0).unwrap();
        assert_eq!(s.queued_in_row(0), 1);
    }

    #[test]
    fn make_scheduler_respects_discipline() {
        let mut a = make_scheduler(crate::config::InputDiscipline::StripeAtomic, 4);
        let mut r = make_scheduler(crate::config::InputDiscipline::RowScan, 4);
        insert(&mut *a, 4, 0, 4, 0);
        insert(&mut *r, 4, 0, 4, 0);
        // Row 2 is mid-interval: the atomic scheduler refuses, row-scan serves.
        assert!(a.serve(2).is_none());
        assert!(r.serve(2).is_some());
    }

    #[test]
    fn levels_helper() {
        assert_eq!(levels(1), 1);
        assert_eq!(levels(2), 2);
        assert_eq!(levels(8), 4);
        assert_eq!(levels(1024), 11);
    }

    proptest! {
        /// Whatever the insertion pattern, the row-scan scheduler conserves
        /// packets: everything inserted is eventually served, exactly once,
        /// when all rows are polled round-robin.
        #[test]
        fn row_scan_conserves_packets(starts in proptest::collection::vec((0usize..8, 0usize..4), 1..20)) {
            let n = 8usize;
            let mut s = RowScanLsf::new(n);
            let mut inserted = 0usize;
            for (seq, (port, level)) in starts.into_iter().enumerate() {
                let size = 1usize << level;
                let start = (port / size) * size;
                insert(&mut s, n, start, size, seq as u64);
                inserted += size;
            }
            prop_assert_eq!(s.queued_packets(), inserted);
            let mut served = 0usize;
            let mut slot = 0usize;
            // Poll rows cyclically; with work conservation this drains in at
            // most `inserted * n` slots.
            while served < inserted && slot < inserted * n + n {
                if s.serve(slot % n).is_some() {
                    served += 1;
                }
                slot += 1;
            }
            prop_assert_eq!(served, inserted);
            prop_assert!(s.is_empty());
        }

        /// The atomic scheduler also conserves packets and always emits each
        /// stripe as one contiguous burst in offset order.
        #[test]
        fn atomic_emits_contiguous_bursts(starts in proptest::collection::vec((0usize..8, 0usize..4), 1..20)) {
            let n = 8usize;
            let mut s = AtomicLsf::new(n);
            let mut inserted = 0usize;
            for (seq, (port, level)) in starts.into_iter().enumerate() {
                let size = 1usize << level;
                let start = (port / size) * size;
                insert(&mut s, n, start, size, seq as u64);
                inserted += size;
            }
            let mut served: Vec<(usize, Packet)> = Vec::new();
            let mut slot = 0usize;
            while served.len() < inserted && slot < inserted * n + n {
                let row = slot % n;
                if let Some(p) = s.serve(row) {
                    served.push((slot, p));
                }
                slot += 1;
            }
            prop_assert_eq!(served.len(), inserted);
            // Group by (voq_seq / 100) which identifies the stripe in `insert`,
            // and check contiguity in time and offset order.
            use std::collections::HashMap;
            let mut by_stripe: HashMap<u64, Vec<(usize, usize)>> = HashMap::new();
            for (slot, p) in &served {
                by_stripe.entry(p.voq_seq / 100).or_default().push((*slot, p.stripe_index()));
            }
            for (_, mut v) in by_stripe {
                v.sort();
                for w in v.windows(2) {
                    prop_assert_eq!(w[1].0, w[0].0 + 1, "stripe served in consecutive slots");
                    prop_assert_eq!(w[1].1, w[0].1 + 1, "stripe served in offset order");
                }
            }
        }
    }
}
