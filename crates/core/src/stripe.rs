//! Stripes: the unit of scheduling in a Sprinklers switch.
//!
//! Packets of a VOQ are grouped, in arrival order, into *stripes* of exactly
//! `2^k` packets, where `2^k` is the VOQ's current stripe size.  The stripe is
//! switched through the VOQ's dyadic stripe interval: the packet at offset `o`
//! goes through intermediate port `interval.start() + o`.  A stripe is the
//! atomic unit of service at both the input and the intermediate stage: the
//! servicing of two stripes never interleaves, which — combined with FCFS
//! order of stripes within a VOQ — is what rules out packet reordering.
//!
//! A stripe is never materialized as an object of its own.  The VOQ stamps
//! the first `2^k` packets of its ready ring in place with [`stamp`], and the
//! input port's scheduler moves them straight off the ring front
//! ([`crate::lsf::StripeScheduler::insert`]).  Forming a stripe therefore
//! moves each packet once and allocates nothing.

use crate::dyadic::DyadicInterval;
use crate::packet::Packet;
use std::collections::VecDeque;

/// Stamp the first `interval.size()` packets of `ready` as one stripe over
/// `interval`: each gets its `stripe_size`, its `stripe_index` and the
/// `intermediate` port it will traverse.  Packets behind the stripe are left
/// untouched.
// lint: hot-path
#[inline]
pub fn stamp(interval: DyadicInterval, ready: &mut VecDeque<Packet>) {
    debug_assert!(ready.len() >= interval.size(), "stripe longer than ring");
    let size = interval.size();
    for (offset, packet) in ready.range_mut(..size).enumerate() {
        packet.set_stripe_size(size);
        packet.set_stripe_index(offset);
        packet.set_intermediate(interval.start() + offset);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> VecDeque<Packet> {
        (0..n)
            .map(|i| Packet::new(2, 5, i as u64, 10).with_voq_seq(i as u64))
            .collect()
    }

    #[test]
    fn stamp_sets_routing_fields_of_the_stripe_only() {
        let mut ready = ring(6);
        stamp(DyadicInterval::new(8, 4), &mut ready);
        for (o, p) in ready.iter().take(4).enumerate() {
            assert_eq!(p.stripe_size(), 4);
            assert_eq!(p.stripe_index(), o);
            assert_eq!(p.intermediate(), 8 + o);
        }
        for p in ready.iter().skip(4) {
            assert_eq!(
                p.stripe_size(),
                0,
                "packets behind the stripe are untouched"
            );
        }
    }

    #[test]
    #[should_panic]
    fn stamp_rejects_a_ring_shorter_than_the_stripe() {
        let mut ready = ring(3);
        stamp(DyadicInterval::new(8, 4), &mut ready);
    }

    #[test]
    fn unit_stripe_is_valid() {
        let mut ready = ring(1);
        stamp(DyadicInterval::new(5, 1), &mut ready);
        assert_eq!(ready[0].stripe_size(), 1);
        assert_eq!(ready[0].stripe_index(), 0);
        assert_eq!(ready[0].intermediate(), 5);
    }
}
