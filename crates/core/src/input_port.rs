//! A Sprinklers input port: N VOQs feeding a Largest-Stripe-First scheduler.
//!
//! The input port owns one [`Voq`] per output (which assembles packets into
//! stripes) and one LSF scheduler (which decides, whenever the first fabric
//! connects this input to an intermediate port, which queued packet to send).

use crate::config::{InputDiscipline, SizingMode, SprinklersConfig};
use crate::lsf::{make_scheduler, StripeScheduler};
use crate::ols::WeaklyUniformOls;
use crate::packet::Packet;
use crate::sizing::stripe_size;
use crate::voq::Voq;

/// One Sprinklers input port.
pub struct SprinklersInputPort {
    port_id: usize,
    n: usize,
    voqs: Vec<Voq>,
    scheduler: Box<dyn StripeScheduler + Send>,
    /// Stripes released by VOQs, counted for telemetry.
    stripes_formed: u64,
    /// Running count of packets at this port (VOQ ready queues plus the
    /// scheduler), so [`Self::queued_packets`] is O(1) — the engine samples
    /// occupancy at every sampling boundary, and the switch keeps its
    /// port-occupancy bitsets in sync from the same counter.
    queued: usize,
    /// Running count of committed stripe-size changes across this port's
    /// VOQs, maintained by delta around every VOQ interaction (each touches
    /// exactly one VOQ) so the switch-level total needs no O(N²) rescan.
    resizes: u64,
}

impl SprinklersInputPort {
    /// Build input port `port_id` of a switch with the given configuration and
    /// OLS-assigned primary intermediate ports.
    pub fn new(port_id: usize, config: &SprinklersConfig, ols: &WeaklyUniformOls) -> Self {
        let n = config.n;
        let voqs = (0..n)
            .map(|output| {
                let primary = ols.primary_port(port_id, output);
                match &config.sizing {
                    SizingMode::FromMatrix(matrix) => {
                        let size = stripe_size(matrix.rate(port_id, output), n);
                        Voq::fixed(port_id, output, n, primary, size)
                    }
                    SizingMode::FixedSize(size) => Voq::fixed(port_id, output, n, primary, *size),
                    SizingMode::Adaptive(params) => {
                        Voq::adaptive(port_id, output, n, primary, params)
                    }
                }
            })
            .collect();
        SprinklersInputPort {
            port_id,
            n,
            voqs,
            scheduler: make_scheduler(config.input_discipline, n),
            stripes_formed: 0,
            queued: 0,
            resizes: 0,
        }
    }

    /// Convenience constructor used by tests: every VOQ gets the same fixed
    /// stripe size and the primary ports come from the cyclic OLS.
    pub fn with_fixed_size(
        port_id: usize,
        n: usize,
        size: usize,
        discipline: InputDiscipline,
    ) -> Self {
        let config = SprinklersConfig::new(n)
            .with_sizing(SizingMode::FixedSize(size))
            .with_input_discipline(discipline);
        let ols = WeaklyUniformOls::cyclic(n);
        Self::new(port_id, &config, &ols)
    }

    /// This port's index.
    pub fn port_id(&self) -> usize {
        self.port_id
    }

    /// Accept an arriving packet.  Any stripes that become complete are
    /// immediately plastered into the scheduler.
    // lint: hot-path
    pub fn arrive(&mut self, packet: Packet) {
        debug_assert_eq!(packet.input(), self.port_id);
        debug_assert!(packet.output() < self.n);
        let now = packet.arrival_slot;
        let voq = &mut self.voqs[packet.output()];
        self.queued += 1;
        let before = voq.resizes();
        self.stripes_formed += voq.push(packet, now, &mut *self.scheduler);
        self.resizes += voq.resizes() - before;
    }

    /// Serve the intermediate port the first fabric currently connects us to.
    pub fn dequeue(&mut self, intermediate: usize) -> Option<Packet> {
        let packet = self.scheduler.serve(intermediate);
        if packet.is_some() {
            self.queued -= 1;
        }
        packet
    }

    /// Periodic maintenance: gives one VOQ per call the chance to re-evaluate
    /// its adaptive stripe size even when it has no arrivals (so idle VOQs can
    /// shrink).  Calling this once per slot visits every VOQ once per frame.
    ///
    /// Only adaptive sizing needs this: with fixed or matrix-driven sizing a
    /// VOQ's `on_slot` is a provable no-op (no sizing clock, and complete
    /// stripes are always collected at the call that completed them), so the
    /// switch skips the whole pass for non-adaptive configurations.
    pub fn maintain(&mut self, slot: u64) {
        let voq = &mut self.voqs[(slot as usize) % self.n];
        let before = voq.resizes();
        self.stripes_formed += voq.on_slot(slot, &mut *self.scheduler);
        self.resizes += voq.resizes() - before;
    }

    /// Notification that one of this port's packets reached output `output`.
    /// May release stripes that were held back by a pending resize.
    pub fn packet_delivered(&mut self, output: usize) {
        let voq = &mut self.voqs[output];
        let before = voq.resizes();
        self.stripes_formed += voq.packet_delivered(&mut *self.scheduler);
        self.resizes += voq.resizes() - before;
    }

    /// Request a stripe-size change for one VOQ (the reconfiguration path).
    ///
    /// If the resize commits immediately (nothing in flight), any stripes the
    /// VOQ's ready backlog can already fill are released right here — so no
    /// deferred stripe-collection work is left for the per-slot maintenance
    /// pass, which non-adaptive configurations skip entirely.
    pub fn request_resize(&mut self, output: usize, size: usize) {
        let voq = &mut self.voqs[output];
        let before = voq.resizes();
        voq.request_resize(size);
        self.resizes += voq.resizes() - before;
        self.stripes_formed += voq.release_ready(&mut *self.scheduler);
    }

    /// Packets queued at this port (scheduler plus VOQ ready queues), from a
    /// running counter (O(1)).
    pub fn queued_packets(&self) -> usize {
        debug_assert_eq!(
            self.queued,
            self.scheduler.queued_packets() + self.voqs.iter().map(Voq::ready_len).sum::<usize>(),
            "running queued counter desynchronized from a brute-force rescan"
        );
        self.queued
    }

    /// True if the scheduler holds at least one servable packet — the
    /// criterion for the switch's input-occupancy bitset.  Packets still
    /// accumulating in VOQ ready queues don't count: the first fabric can
    /// only serve plastered stripes, so a port with a bare ready backlog is a
    /// provable no-op to probe.
    pub fn has_servable(&self) -> bool {
        !self.scheduler.is_empty()
    }

    /// Committed stripe-size changes across this port's VOQs (running count).
    pub fn resizes_committed(&self) -> u64 {
        self.resizes
    }

    /// Packets queued in the scheduler destined to a given intermediate port.
    pub fn queued_for_intermediate(&self, intermediate: usize) -> usize {
        self.scheduler.queued_in_row(intermediate)
    }

    /// Number of stripes formed so far.
    pub fn stripes_formed(&self) -> u64 {
        self.stripes_formed
    }

    /// Access a VOQ (used by tests and the switch for inspection).  Mutation
    /// goes through [`Self::request_resize`] so the port's running resize
    /// counter and stripe plastering stay in sync.
    pub fn voq(&self, output: usize) -> &Voq {
        &self.voqs[output]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdaptiveSizing;

    fn pkt(input: usize, output: usize, seq: u64, slot: u64) -> Packet {
        Packet::new(input, output, seq, slot).with_voq_seq(seq)
    }

    #[test]
    fn packets_flow_through_voq_into_scheduler() {
        let mut port = SprinklersInputPort::with_fixed_size(0, 8, 2, InputDiscipline::StripeAtomic);
        port.arrive(pkt(0, 3, 0, 0));
        assert_eq!(
            port.queued_packets(),
            1,
            "one packet waiting in the VOQ ready queue"
        );
        port.arrive(pkt(0, 3, 1, 1));
        assert_eq!(port.queued_packets(), 2, "stripe formed and plastered");
        assert_eq!(port.stripes_formed(), 1);
        // With the cyclic OLS, VOQ (0, 3) has primary port 3 and stripe size 2,
        // so its interval is [2, 4).
        assert_eq!(port.queued_for_intermediate(2), 1);
        assert_eq!(port.queued_for_intermediate(3), 1);
        // The atomic scheduler serves the stripe starting at row 2.
        assert!(port.dequeue(1).is_none());
        let p = port.dequeue(2).unwrap();
        assert_eq!(p.intermediate(), 2);
        let p = port.dequeue(3).unwrap();
        assert_eq!(p.intermediate(), 3);
        assert_eq!(port.queued_packets(), 0);
    }

    #[test]
    fn row_scan_port_serves_any_covered_row() {
        let mut port = SprinklersInputPort::with_fixed_size(0, 8, 2, InputDiscipline::RowScan);
        port.arrive(pkt(0, 3, 0, 0));
        port.arrive(pkt(0, 3, 1, 0));
        // Row-scan can serve row 3 before row 2.
        let p = port.dequeue(3).unwrap();
        assert_eq!(p.intermediate(), 3);
    }

    #[test]
    fn delivery_notification_reaches_the_voq() {
        let mut port = SprinklersInputPort::with_fixed_size(0, 8, 1, InputDiscipline::StripeAtomic);
        port.arrive(pkt(0, 5, 0, 0));
        assert_eq!(port.voq(5).in_flight(), 1);
        let p = port.dequeue(5).unwrap();
        assert_eq!(p.output(), 5);
        port.packet_delivered(5);
        assert_eq!(port.voq(5).in_flight(), 0);
    }

    #[test]
    fn maintain_visits_voqs_round_robin() {
        // An adaptive port with zero traffic must shrink all its VOQs back to
        // size 1 eventually purely through maintenance calls.
        let config = SprinklersConfig::new(8).with_sizing(SizingMode::Adaptive(AdaptiveSizing {
            window: 16,
            gamma: 1.0,
            patience: 0,
            initial_size: 8,
        }));
        let ols = WeaklyUniformOls::cyclic(8);
        let mut port = SprinklersInputPort::new(0, &config, &ols);
        for slot in 0..1024u64 {
            port.maintain(slot);
        }
        for output in 0..8 {
            assert_eq!(
                port.voq(output).stripe_size(),
                1,
                "idle VOQ {output} should shrink"
            );
        }
    }
}
