//! Virtual Output Queues (VOQs) with stripe formation and adaptive resizing.
//!
//! Each input port keeps one VOQ per output.  A VOQ accumulates arriving
//! packets in a *ready ring* and releases them in full stripes of its current
//! stripe size (§3.2): it stamps a stripe's packets in place on the ring and
//! hands them straight to the input port's scheduler.  When the sizing mode
//! is adaptive, the VOQ measures its own arrival rate, decides on stripe-size
//! changes with hysteresis, and performs the *clearance phase* of §5: a new
//! stripe size only takes effect once every packet striped under the old
//! size has left the switch, which is what keeps resizing from reintroducing
//! reordering.

use crate::config::AdaptiveSizing;
use crate::dyadic::DyadicInterval;
use crate::lsf::StripeScheduler;
use crate::packet::Packet;
use crate::rate_estimator::RateEstimator;
use crate::sizing::SizeDecider;
use crate::stripe;
use std::collections::VecDeque;

/// The adaptive-sizing state of a VOQ whose stripe size follows its
/// measured arrival rate.
#[derive(Debug, Clone)]
struct AdaptiveState {
    estimator: RateEstimator,
    decider: SizeDecider,
    /// Slots between sizing decisions (the measurement window).
    window: u64,
    /// Slot at which the next sizing decision is due.
    next_check: u64,
}

/// A single Virtual Output Queue at an input port.
#[derive(Debug, Clone)]
pub struct Voq {
    input: usize,
    output: usize,
    n: usize,
    /// Primary intermediate port assigned by the OLS; the stripe interval is
    /// always the dyadic interval of the current size containing this port.
    primary_port: usize,
    current_size: usize,
    interval: DyadicInterval,
    /// Packets waiting to fill the next stripe, in arrival order.
    ready: VecDeque<Packet>,
    /// Packets that have been released in stripes but have not yet been
    /// reported as delivered at the output.
    in_flight: u64,
    /// A stripe-size change waiting for the clearance phase to finish.
    pending_size: Option<usize>,
    /// `None` when the stripe size is fixed for the lifetime of the switch
    /// (set from a traffic matrix or an explicit constant).  Boxed because
    /// it is cold: the n² fixed-size VOQs of a switch stay small.
    adaptive: Option<Box<AdaptiveState>>,
    /// Cumulative number of committed stripe-size changes (for telemetry).
    resizes: u64,
}

impl Voq {
    /// Create a VOQ with a fixed stripe size.
    pub fn fixed(input: usize, output: usize, n: usize, primary_port: usize, size: usize) -> Self {
        let size = size.clamp(1, n);
        assert!(size.is_power_of_two());
        Voq {
            input,
            output,
            n,
            primary_port,
            current_size: size,
            interval: DyadicInterval::containing(primary_port, size),
            ready: VecDeque::new(),
            in_flight: 0,
            pending_size: None,
            adaptive: None,
            resizes: 0,
        }
    }

    /// Create a VOQ whose stripe size adapts to its measured arrival rate,
    /// following the given [`AdaptiveSizing`] parameters.
    pub fn adaptive(
        input: usize,
        output: usize,
        n: usize,
        primary_port: usize,
        params: &AdaptiveSizing,
    ) -> Self {
        let initial_size = params.initial_size.clamp(1, n);
        let mut voq = Self::fixed(input, output, n, primary_port, initial_size);
        voq.adaptive = Some(Box::new(AdaptiveState {
            estimator: RateEstimator::new(params.window, params.gamma),
            decider: SizeDecider::new(n, initial_size, params.patience),
            window: params.window,
            next_check: params.window,
        }));
        voq
    }

    /// The VOQ's primary intermediate port.
    pub fn primary_port(&self) -> usize {
        self.primary_port
    }

    /// The VOQ's current stripe size.
    pub fn stripe_size(&self) -> usize {
        self.current_size
    }

    /// The VOQ's current stripe interval.
    pub fn interval(&self) -> DyadicInterval {
        self.interval
    }

    /// Number of packets waiting in the ready queue (not yet in a stripe).
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Number of packets released in stripes and not yet delivered.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Cumulative number of committed stripe-size changes.
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    /// Is a stripe-size change waiting for the clearance phase?
    pub fn resize_pending(&self) -> bool {
        self.pending_size.is_some()
    }

    /// Enqueue an arriving packet, inserting every stripe that becomes
    /// complete into `scheduler`.  Returns the number of stripes formed.
    #[inline]
    pub fn push(&mut self, packet: Packet, now: u64, scheduler: &mut dyn StripeScheduler) -> u64 {
        debug_assert_eq!(packet.input(), self.input);
        debug_assert_eq!(packet.output(), self.output);
        if let Some(adaptive) = &mut self.adaptive {
            adaptive.estimator.record_arrival(now);
        }
        self.ready.push_back(packet);
        self.maybe_resize(now);
        self.form_stripes(scheduler)
    }

    /// Advance the adaptive sizing clock without an arrival (call once per
    /// measurement window or per slot; it is cheap when no window elapsed).
    /// Returns the number of stripes formed into `scheduler`.
    pub fn on_slot(&mut self, now: u64, scheduler: &mut dyn StripeScheduler) -> u64 {
        self.maybe_resize(now);
        self.form_stripes(scheduler)
    }

    /// Form any stripes the ready queue can already fill, without advancing
    /// any clock.  Only an immediately-committed [`Voq::request_resize`] can
    /// leave complete stripes sitting in the ready queue, so callers that
    /// resize out of band (reconfiguration) use this to release them at the
    /// resize site — which is what lets the switch's per-slot maintenance
    /// pass be skipped entirely for non-adaptive sizing.
    pub fn release_ready(&mut self, scheduler: &mut dyn StripeScheduler) -> u64 {
        self.form_stripes(scheduler)
    }

    /// Report that one of this VOQ's packets reached its output port.
    /// Returns the number of stripes released into `scheduler` because a
    /// pending resize could commit.
    #[inline]
    pub fn packet_delivered(&mut self, scheduler: &mut dyn StripeScheduler) -> u64 {
        debug_assert!(
            self.in_flight > 0,
            "delivered more packets than were in flight"
        );
        self.in_flight = self.in_flight.saturating_sub(1);
        if self.in_flight == 0 && self.pending_size.is_some() {
            self.commit_resize();
            return self.form_stripes(scheduler);
        }
        0
    }

    /// Request a stripe-size change (used by the matrix-driven and fixed
    /// sizing modes when reconfiguring, and internally by the adaptive mode).
    ///
    /// The change is applied immediately if nothing is in flight, otherwise it
    /// is deferred to the end of the clearance phase.
    pub fn request_resize(&mut self, new_size: usize) {
        let new_size = new_size.clamp(1, self.n);
        assert!(new_size.is_power_of_two());
        if new_size == self.current_size {
            self.pending_size = None;
            return;
        }
        self.pending_size = Some(new_size);
        if self.in_flight == 0 {
            self.commit_resize();
        }
    }

    fn maybe_resize(&mut self, now: u64) {
        let Some(adaptive) = &mut self.adaptive else {
            return;
        };
        if now < adaptive.next_check {
            return;
        }
        let requested = adaptive.decider.observe(adaptive.estimator.rate_at(now));
        adaptive.next_check = now - (now % adaptive.window) + adaptive.window;
        if let Some(size) = requested {
            self.request_resize(size);
        }
    }

    fn commit_resize(&mut self) {
        if let Some(size) = self.pending_size.take() {
            debug_assert_eq!(self.in_flight, 0);
            self.current_size = size;
            self.interval = DyadicInterval::containing(self.primary_port, size);
            self.resizes += 1;
        }
    }

    /// Form as many complete stripes as the ready ring holds: stamp each in
    /// place and let `scheduler` take it off the ring front.
    ///
    /// While a resize is pending (clearance phase), no new stripes are formed:
    /// arrivals keep accumulating so that old-size and new-size stripes never
    /// coexist in the switch.
    // lint: hot-path
    #[inline]
    fn form_stripes(&mut self, scheduler: &mut dyn StripeScheduler) -> u64 {
        if self.pending_size.is_some() {
            return 0;
        }
        let mut formed = 0;
        while self.ready.len() >= self.current_size {
            stripe::stamp(self.interval, &mut self.ready);
            scheduler.insert(self.interval, &mut self.ready);
            self.in_flight += self.current_size as u64;
            formed += 1;
        }
        formed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scheduler that records each inserted stripe as `(interval, packets)`.
    #[derive(Default)]
    struct Recorder {
        stripes: Vec<(DyadicInterval, Vec<Packet>)>,
    }

    impl StripeScheduler for Recorder {
        fn insert(&mut self, interval: DyadicInterval, ready: &mut VecDeque<Packet>) {
            let packets = ready.drain(..interval.size()).collect();
            self.stripes.push((interval, packets));
        }

        fn serve(&mut self, _row: usize) -> Option<Packet> {
            None
        }

        fn queued_packets(&self) -> usize {
            self.stripes.iter().map(|(_, p)| p.len()).sum()
        }

        fn queued_in_row(&self, _row: usize) -> usize {
            0
        }
    }

    fn pkt(input: usize, output: usize, seq: u64) -> Packet {
        Packet::new(input, output, seq, 0).with_voq_seq(seq)
    }

    #[test]
    fn voqs_stay_small() {
        // Fixed and matrix-sized VOQs are n² per switch; the adaptive state
        // lives behind a pointer so they do not pay for it.
        assert!(std::mem::size_of::<Voq>() <= 136);
    }

    #[test]
    fn fixed_voq_releases_full_stripes_only() {
        let mut v = Voq::fixed(0, 1, 8, 5, 4);
        let mut rec = Recorder::default();
        assert_eq!(v.interval(), DyadicInterval::new(4, 4));
        for i in 0..3 {
            assert_eq!(v.push(pkt(0, 1, i), i, &mut rec), 0);
        }
        assert_eq!(v.push(pkt(0, 1, 3), 3, &mut rec), 1);
        assert_eq!(rec.stripes.len(), 1);
        let (interval, packets) = &rec.stripes[0];
        assert_eq!(*interval, DyadicInterval::new(4, 4));
        assert_eq!(packets.len(), 4);
        assert_eq!(v.ready_len(), 0);
        assert_eq!(v.in_flight(), 4);
        // Packets are stamped in arrival order.
        for (i, p) in packets.iter().enumerate() {
            assert_eq!(p.voq_seq, i as u64);
            assert_eq!(p.stripe_index(), i);
            assert_eq!(p.stripe_size(), 4);
            assert_eq!(p.intermediate(), 4 + i);
        }
    }

    #[test]
    fn unit_stripe_voq_releases_every_packet() {
        let mut v = Voq::fixed(0, 1, 8, 3, 1);
        let mut rec = Recorder::default();
        for i in 0..5 {
            assert_eq!(v.push(pkt(0, 1, i), i, &mut rec), 1);
        }
        assert_eq!(rec.stripes.len(), 5);
        for (interval, packets) in &rec.stripes {
            assert_eq!(*interval, DyadicInterval::new(3, 1));
            assert_eq!(packets.len(), 1);
        }
    }

    #[test]
    fn resize_with_nothing_in_flight_is_immediate() {
        let mut v = Voq::fixed(0, 1, 8, 5, 4);
        v.request_resize(2);
        assert_eq!(v.stripe_size(), 2);
        assert_eq!(v.interval(), DyadicInterval::new(4, 2));
        assert_eq!(v.resizes(), 1);
        assert!(!v.resize_pending());
    }

    #[test]
    fn resize_waits_for_clearance() {
        let mut v = Voq::fixed(0, 1, 8, 1, 2);
        let mut rec = Recorder::default();
        // Fill one stripe → 2 packets in flight.
        v.push(pkt(0, 1, 0), 0, &mut rec);
        assert_eq!(v.push(pkt(0, 1, 1), 1, &mut rec), 1);
        assert_eq!(v.in_flight(), 2);

        v.request_resize(4);
        assert!(v.resize_pending());
        assert_eq!(
            v.stripe_size(),
            2,
            "resize must not apply while packets are in flight"
        );

        // During clearance, arrivals accumulate and no stripes are formed.
        for i in 2..8 {
            assert_eq!(v.push(pkt(0, 1, i), i, &mut rec), 0);
        }
        assert_eq!(v.ready_len(), 6);

        // Deliver the two in-flight packets: resize commits and the backlog is
        // released with the new size.
        assert_eq!(v.packet_delivered(&mut rec), 0);
        let released = v.packet_delivered(&mut rec);
        assert_eq!(v.stripe_size(), 4);
        assert_eq!(released, 1, "6 ready packets form one stripe of 4");
        assert_eq!(rec.stripes[1].1.len(), 4);
        assert_eq!(rec.stripes[1].1[0].voq_seq, 2);
        assert_eq!(v.ready_len(), 2);
        assert!(!v.resize_pending());
        assert_eq!(v.resizes(), 1);
    }

    #[test]
    fn resize_to_same_size_clears_pending() {
        let mut v = Voq::fixed(0, 1, 8, 1, 2);
        let mut rec = Recorder::default();
        v.push(pkt(0, 1, 0), 0, &mut rec);
        v.push(pkt(0, 1, 1), 1, &mut rec);
        v.request_resize(4);
        assert!(v.resize_pending());
        v.request_resize(2);
        assert!(!v.resize_pending());
    }

    #[test]
    fn shrinking_releases_multiple_stripes() {
        let mut v = Voq::fixed(0, 1, 8, 0, 8);
        let mut rec = Recorder::default();
        for i in 0..6 {
            assert_eq!(v.push(pkt(0, 1, i), i, &mut rec), 0);
        }
        v.request_resize(2);
        // With nothing in flight the resize is immediate and the 6 ready
        // packets become 3 stripes of 2, in arrival order.
        assert_eq!(v.on_slot(6, &mut rec), 3);
        assert_eq!(v.stripe_size(), 2);
        assert!(rec
            .stripes
            .iter()
            .all(|(i, p)| i.size() == 2 && p.len() == 2));
        let seqs: Vec<u64> = rec
            .stripes
            .iter()
            .flat_map(|(_, p)| p.iter().map(|p| p.voq_seq))
            .collect();
        assert_eq!(seqs, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn adaptive_voq_grows_under_load() {
        let n = 16;
        // Window of 64 slots, react after 1 confirming window.
        let mut v = Voq::adaptive(
            0,
            1,
            n,
            7,
            &AdaptiveSizing {
                window: 64,
                gamma: 1.0,
                patience: 0,
                initial_size: 1,
            },
        );
        let mut rec = Recorder::default();
        assert_eq!(v.stripe_size(), 1);
        // Offer one packet per slot (rate 1.0) for many windows, delivering
        // everything promptly so clearance never blocks.
        for slot in 0..1024u64 {
            v.push(pkt(0, 1, slot), slot, &mut rec);
            // Deliver in-flight packets immediately.
            while v.in_flight() > 0 {
                v.packet_delivered(&mut rec);
            }
        }
        assert_eq!(
            v.stripe_size(),
            n,
            "a rate-1 VOQ must converge to a full-span stripe (F(1) = N)"
        );
        assert!(v.resizes() >= 1);
    }

    #[test]
    fn adaptive_voq_shrinks_when_load_disappears() {
        let n = 16;
        let mut v = Voq::adaptive(
            0,
            1,
            n,
            7,
            &AdaptiveSizing {
                window: 64,
                gamma: 1.0,
                patience: 0,
                initial_size: 16,
            },
        );
        let mut rec = Recorder::default();
        // No arrivals at all: after a few windows the decider should shrink
        // the stripe to 1 (rate estimate 0).
        for slot in 0..1024u64 {
            assert_eq!(v.on_slot(slot, &mut rec), 0);
        }
        assert!(rec.stripes.is_empty());
        assert_eq!(v.stripe_size(), 1);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_resize_is_rejected() {
        let mut v = Voq::fixed(0, 1, 8, 0, 2);
        v.request_resize(3);
    }
}
