//! The traced run: `Engine::run_loop` replicated from outside with public
//! calls only, with a wall-clock span around each layer's calls.
//!
//! Spans are per slot (traffic generation, injection) or per `advance` call
//! (stepping, delivery hand-off), never per delivered packet: each
//! `advance` call delivers into a reused `Vec` and the whole batch is then
//! handed to the `MetricsSink`, so the hand-off is timed once per call.
//! The delivery order into the sink is unchanged, so the traced report is
//! byte-identical to `Engine::run`'s (checked on every traced run).

use crate::scenario::{check_report, set_up, Rendered, SetupTimes, World};
use crate::workloads::Scenario;
use sprinklers_core::packet::{DeliveredPacket, Packet};
use sprinklers_core::switch::{DeliverySink, Steppable};
use sprinklers_sim::engine::RunConfig;
use sprinklers_sim::metrics::occupancy::OccupancySampler;
use sprinklers_sim::metrics::{MetricsSink, WindowSeries};
use sprinklers_sim::{SimReport, TrafficGenerator};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Spans and counts accumulated over one traced pass of a workload.
#[derive(Debug, Default)]
pub struct Trace {
    pub setup: SetupTimes,
    /// `TrafficGenerator::arrivals_into`.
    pub gen: Duration,
    /// `Steppable::inject`.
    pub inject: Duration,
    /// `Steppable::advance`, whose deliveries land in a reused buffer.
    pub advance: Duration,
    /// `Steppable::advance` per scheme.
    pub advance_by_scheme: BTreeMap<&'static str, Duration>,
    /// Handing each call's buffered deliveries to the `MetricsSink`.
    pub sink: Duration,
    /// `counters` + `OccupancySampler` + `WindowSeries`.
    pub sample: Duration,
    /// The whole driving loop, children included.
    pub run_loop: Duration,
    /// `SimReport` assembly (with the fault summary), rendering, and
    /// freeing the world.
    pub render: Duration,
    /// Spec text to rendered output, summed over scenarios.
    pub total: Duration,
    pub gen_slots: u64,
    pub packets: u64,
    pub deliveries: u64,
    pub advance_calls: u64,
    pub advanced_slots: u64,
    /// Wall time of every `advance` call, in ns.
    pub advance_call_ns: Vec<u64>,
    pub report_bytes: u64,
    pub offered: u64,
    pub delivered: u64,
    pub residual: u64,
    pub dropped: u64,
    pub padding: u64,
}

impl Trace {
    /// Layer time not covered by any span: the traced total minus the set-up
    /// spans, the driving loop and rendering.
    pub fn unaccounted(&self) -> f64 {
        self.total.as_secs_f64()
            - self.setup.total().as_secs_f64()
            - self.run_loop.as_secs_f64()
            - self.render.as_secs_f64()
    }

    /// The driving loop minus its timed children.
    pub fn engine_self(&self) -> f64 {
        self.run_loop.as_secs_f64()
            - (self.gen + self.inject + self.advance + self.sink + self.sample).as_secs_f64()
    }
}

/// Buffers reused across slots and scenarios, as the engine reuses its own.
#[derive(Debug, Default)]
pub struct LoopBuffers {
    arrivals: Vec<Packet>,
    deliveries: Vec<DeliveredPacket>,
}

/// Run one scenario traced, adding its spans and counts to `trace`.
pub fn run_traced(
    scenario: &Scenario,
    trace: &mut Trace,
    buffers: &mut LoopBuffers,
) -> Result<Rendered, String> {
    let t0 = Instant::now();
    let (spec, mut traffic, world) = set_up(scenario, &mut trace.setup)?;
    let t1 = Instant::now();
    let (report, t2) = match world {
        World::Switch(mut switch) => {
            let end = traced_loop(
                &mut switch,
                &mut traffic,
                spec.run,
                spec.batch,
                trace,
                buffers,
                scenario.scheme,
            );
            let t2 = Instant::now();
            (end.assemble(&switch, &traffic, spec.run), t2)
        }
        World::Fabric(mut fabric) => {
            let end = traced_loop(
                &mut *fabric,
                &mut traffic,
                spec.run,
                spec.batch,
                trace,
                buffers,
                scenario.scheme,
            );
            let t2 = Instant::now();
            let mut report = end.assemble(&*fabric, &traffic, spec.run);
            report.faults = fabric.fault_summary();
            (report, t2)
        }
    };
    let rendered = Rendered {
        csv_row: report.csv_row(),
        metrics_json: report.metrics_json(),
    };
    let t3 = Instant::now();
    trace.run_loop += t2 - t1;
    trace.render += t3 - t2;
    trace.total += t3 - t0;
    trace.report_bytes += (rendered.csv_row.len() + rendered.metrics_json.len()) as u64;
    trace.offered += report.offered_packets;
    trace.delivered += report.delivered_packets;
    trace.residual += report.residual_packets;
    trace.dropped += report.dropped_packets;
    trace.padding += report.padding_packets;
    check_report(&spec, &report)?;
    Ok(rendered)
}

/// The state `Engine::run_loop` holds when its loop ends.
struct LoopEnd {
    sink: MetricsSink,
    occupancy: OccupancySampler,
    windows: WindowSeries,
    offered: u64,
    dropped: u64,
}

impl LoopEnd {
    fn assemble<W: Steppable + ?Sized, G: TrafficGenerator>(
        self,
        world: &W,
        traffic: &G,
        config: RunConfig,
    ) -> SimReport {
        let totals = self.sink.into_parts();
        SimReport {
            switch_name: world.label(),
            traffic_label: traffic.label(),
            n: world.ports(),
            slots: config.slots,
            warmup_slots: config.warmup_slots,
            offered_packets: self.offered,
            delivered_packets: totals.delivered,
            padding_packets: totals.padding,
            residual_packets: self.offered - totals.delivered - self.dropped,
            dropped_packets: self.dropped,
            delay: totals.delay,
            reordering: totals.reordering,
            occupancy: self.occupancy.stats(),
            per_output_delivered: totals.per_output_delivered,
            windows: self.windows,
            faults: None,
        }
    }
}

/// `Engine::run_loop`, step for step, with spans.
fn traced_loop<W: Steppable + ?Sized, G: TrafficGenerator>(
    world: &mut W,
    traffic: &mut G,
    config: RunConfig,
    batch: u32,
    trace: &mut Trace,
    buffers: &mut LoopBuffers,
    scheme: &'static str,
) -> LoopEnd {
    assert_eq!(
        world.ports(),
        traffic.n(),
        "world and traffic disagree on ports"
    );
    let n = world.ports();
    let n_u64 = n as u64;
    let batch = u64::from(batch.max(1));
    let mut next_packet_id = 0u64;
    let mut voq_seq = vec![0u64; n * n];
    let mut sink = MetricsSink::new(config.warmup_slots, n);
    let mut occupancy = OccupancySampler::new();
    let mut windows = WindowSeries::new(n_u64);
    let mut offered = 0u64;
    let advance_before = trace.advance;
    let mut clock = Lap(Instant::now());

    let total_slots = config.slots + config.drain_slots;
    let mut slot = 0u64;
    while slot < total_slots {
        let until_sample = (n_u64 - slot % n_u64) % n_u64 + 1;
        let window = batch.min(until_sample).min(total_slots - slot);
        let mut run_start = slot;
        let mut run_len = 0u32;
        for s in slot..slot + window {
            if s < config.slots {
                buffers.arrivals.clear();
                traffic.arrivals_into(s, &mut buffers.arrivals);
                clock.lap(&mut trace.gen);
                trace.gen_slots += 1;
                if !buffers.arrivals.is_empty() {
                    if run_len > 0 {
                        advance(
                            world, run_start, run_len, &mut sink, trace, buffers, &mut clock,
                        );
                    }
                    run_start = s;
                    run_len = 0;
                    // Identity assignment is the engine's own bookkeeping;
                    // it touches no world state, so doing it for the whole
                    // slot before injecting keeps the injected packets and
                    // their order exactly as `run_loop` produces them.
                    for packet in buffers.arrivals.iter_mut() {
                        packet.id = next_packet_id;
                        next_packet_id += 1;
                        packet.arrival_slot = s;
                        let key = packet.input() * n + packet.output();
                        packet.voq_seq = voq_seq[key];
                        voq_seq[key] += 1;
                        offered += 1;
                    }
                    trace.packets += buffers.arrivals.len() as u64;
                    clock.restart();
                    for packet in buffers.arrivals.drain(..) {
                        world.inject(packet);
                    }
                    clock.lap(&mut trace.inject);
                }
            }
            run_len += 1;
        }
        if run_len > 0 {
            advance(
                world, run_start, run_len, &mut sink, trace, buffers, &mut clock,
            );
        }

        slot += window;
        if (slot - 1).is_multiple_of(n_u64) {
            clock.restart();
            let stats = world.counters();
            occupancy.sample(&stats);
            windows.record(
                slot,
                offered,
                sink.delivered_packets(),
                sink.padding_packets(),
                &stats,
            );
            clock.lap(&mut trace.sample);
        }
    }
    clock.restart();
    let final_stats = world.counters();
    windows.finish(
        total_slots,
        offered,
        sink.delivered_packets(),
        sink.padding_packets(),
        &final_stats,
    );
    clock.lap(&mut trace.sample);
    *trace.advance_by_scheme.entry(scheme).or_default() += trace.advance - advance_before;
    LoopEnd {
        sink,
        occupancy,
        windows,
        offered,
        dropped: final_stats.total_dropped,
    }
}

/// One `advance` call into the reused delivery buffer, then the buffered
/// hand-off to the sink, each timed as one span.
fn advance<W: Steppable + ?Sized>(
    world: &mut W,
    first_slot: u64,
    count: u32,
    sink: &mut MetricsSink,
    trace: &mut Trace,
    buffers: &mut LoopBuffers,
    clock: &mut Lap,
) {
    world.advance(first_slot, count, &mut buffers.deliveries);
    let call = clock.lap(&mut trace.advance);
    trace.deliveries += buffers.deliveries.len() as u64;
    for delivered in buffers.deliveries.drain(..) {
        sink.deliver(delivered);
    }
    clock.lap(&mut trace.sink);
    trace.advance_calls += 1;
    trace.advanced_slots += u64::from(count);
    trace.advance_call_ns.push(call.as_nanos() as u64);
}

/// A running clock: each reading closes the span since the previous one,
/// so back-to-back spans cost one clock read per boundary.  A span opens
/// at the previous reading, so the engine's few instructions of loop
/// control before a call are counted in that call's span.
struct Lap(Instant);

impl Lap {
    /// Add the time since the previous reading to `bucket`.
    fn lap(&mut self, bucket: &mut Duration) -> Duration {
        let now = Instant::now();
        let span = now - self.0;
        *bucket += span;
        self.0 = now;
        span
    }

    /// Start a new span; the time since the previous reading is the
    /// engine's own (see [`Trace::engine_self`]).
    fn restart(&mut self) {
        self.0 = Instant::now();
    }
}
