//! One scenario through the public path, untraced and set-up only, plus the
//! correctness checks every run must pass.

use crate::workloads::Scenario;
use sprinklers_core::switch::{Steppable, Switch};
use sprinklers_sim::fabric::FabricWorld;
use sprinklers_sim::registry;
use sprinklers_sim::spec::{RoutingSpec, ScenarioSpec};
use sprinklers_sim::{Engine, SimReport, TrafficGenerator};
use std::time::{Duration, Instant};

/// What a scenario run renders: the frozen CSV row and the metrics sidecar.
#[derive(Debug)]
pub struct Rendered {
    pub csv_row: String,
    pub metrics_json: String,
}

/// Wall times of one untraced run.
#[derive(Debug, Clone, Copy)]
pub struct UntracedTimes {
    /// Spec text to rendered CSV row and sidecar JSON.
    pub e2e: Duration,
    /// Inside `Engine::run`.
    pub run: Duration,
    /// Slots simulated (offered + drain).
    pub slots: u64,
}

/// Run one scenario the way a user does: `ScenarioSpec::from_json` →
/// `Engine::run` → `csv_row` + `metrics_json`, then check the report.
pub fn run_untraced(
    engine: &mut Engine,
    scenario: &Scenario,
) -> Result<(Rendered, UntracedTimes), String> {
    let t0 = Instant::now();
    let spec = ScenarioSpec::from_json(&scenario.text).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let report = engine.run(&spec).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let rendered = Rendered {
        csv_row: report.csv_row(),
        metrics_json: report.metrics_json(),
    };
    let t3 = Instant::now();
    check_report(&spec, &report)?;
    let times = UntracedTimes {
        e2e: t3 - t0,
        run: t2 - t1,
        slots: spec.run.slots + spec.run.drain_slots,
    };
    Ok((rendered, times))
}

/// A world ready to step, built exactly as `Engine::run` builds it.
pub enum World {
    Switch(Box<dyn Switch>),
    Fabric(Box<FabricWorld>),
}

/// Set-up time split by layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub parse: Duration,
    pub traffic: Duration,
    pub registry: Duration,
    pub fabric: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.parse + self.traffic + self.registry + self.fabric
    }
}

/// Spec text to a world ready to step: `from_json`, `build_traffic`, and
/// either `registry::build_named` (sized from the generator's rate matrix)
/// or the validated `FabricWorld::build` + `with_faults`.  Adds each
/// stage's wall time to `times`.
pub fn set_up(
    scenario: &Scenario,
    times: &mut SetupTimes,
) -> Result<(ScenarioSpec, Box<dyn TrafficGenerator>, World), String> {
    let err = |e: sprinklers_sim::SpecError| e.to_string();
    let t0 = Instant::now();
    let spec = ScenarioSpec::from_json(&scenario.text).map_err(err)?;
    let t1 = Instant::now();
    let traffic = spec.build_traffic().map_err(err)?;
    let t2 = Instant::now();
    times.parse += t1 - t0;
    times.traffic += t2 - t1;
    let world = match &spec.topology {
        Some(topo) => {
            topo.validate(spec.n).map_err(err)?;
            if let Some(faults) = &spec.faults {
                faults.validate(topo, &spec.run).map_err(err)?;
            }
            let mut world = FabricWorld::build(
                topo,
                &spec.scheme,
                &spec.sizing,
                spec.seed,
                spec.traffic.load(),
            )
            .map_err(err)?;
            world.set_parallelism(spec.threads as usize);
            if let Some(faults) = spec.faults.as_ref().filter(|f| !f.is_empty()) {
                world = world.with_faults(faults, &spec.run);
            }
            times.fabric += t2.elapsed();
            World::Fabric(Box::new(world))
        }
        None => {
            let matrix = traffic.rate_matrix();
            let mut switch =
                registry::build_named(&spec.scheme, spec.n, &spec.sizing, &matrix, spec.seed)
                    .map_err(err)?;
            switch.set_threads(spec.threads as usize);
            times.registry += t2.elapsed();
            World::Switch(switch)
        }
    };
    Ok((spec, traffic, world))
}

/// True if the scenario promises in-order delivery: a reordering-free
/// registry scheme, or a stripe-routed fabric.
fn is_ordered(spec: &ScenarioSpec) -> bool {
    match &spec.topology {
        Some(topo) => topo.routing() == RoutingSpec::Stripe,
        None => registry::is_reordering_free(&spec.scheme),
    }
}

/// The correctness checks every report must pass: conservation, window
/// series totals equal to the run totals, and zero reorders where the
/// scenario promises order.
pub fn check_report(spec: &ScenarioSpec, r: &SimReport) -> Result<(), String> {
    let accounted = r
        .delivered_packets
        .checked_add(r.residual_packets)
        .and_then(|x| x.checked_add(r.dropped_packets));
    if accounted != Some(r.offered_packets) {
        return Err(format!(
            "conservation: offered {} != delivered {} + residual {} + dropped {}",
            r.offered_packets, r.delivered_packets, r.residual_packets, r.dropped_packets
        ));
    }
    let per_output: u64 = r.per_output_delivered.iter().sum();
    if per_output != r.delivered_packets {
        return Err(format!(
            "per-output deliveries sum to {per_output}, run delivered {}",
            r.delivered_packets
        ));
    }
    let w = &r.windows;
    let pairs = [
        ("offered", w.total_offered(), r.offered_packets),
        ("delivered", w.total_delivered(), r.delivered_packets),
        ("padding", w.total_padding(), r.padding_packets),
        ("dropped", w.total_dropped(), r.dropped_packets),
    ];
    for (what, windows, run) in pairs {
        if windows != run {
            return Err(format!(
                "window series {what} total {windows} != run total {run}"
            ));
        }
    }
    let ro = &r.reordering;
    if is_ordered(spec) && (ro.voq_reorder_events != 0 || ro.flow_reorder_events != 0) {
        return Err(format!(
            "reordering-free scenario reordered: {} VOQ, {} flow events",
            ro.voq_reorder_events, ro.flow_reorder_events
        ));
    }
    Ok(())
}
