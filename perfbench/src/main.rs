//! End-to-end and per-layer benchmark of the simulator's public scenario
//! path: spec JSON text → `ScenarioSpec::from_json` → `Engine::run` →
//! `SimReport::csv_row` + `metrics_json`, one scenario at a time on one
//! thread.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_sweep --seed 7 --seconds 36 --trace 0
//! ```
//!
//! With `--trace 0` the run is untraced and reports the end-to-end metrics;
//! with `--trace 1` it alternates untraced and traced passes and reports the
//! per-layer metrics.  Either way the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`, where
//! `attempted` counts scenario runs and `failed` those that errored or
//! failed a check.  See `perfbench/README.md` for the metrics.

mod calib;
mod scenario;
mod traced;
mod workloads;

use calib::{trimmed_mean, Calibration};
use scenario::{run_untraced, set_up, Rendered, SetupTimes};
use sprinklers_sim::cache::fnv1a_128;
use sprinklers_sim::{Engine, SimReport};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use traced::{run_traced, LoopBuffers, Trace};
use workloads::{Scenario, Workload, DEFAULT_SEED, PAPER_SCHEMES};

/// Set-up passes in each burst, one burst before each measured pass: at
/// least this many, for at least [`SETUP_BUDGET`].
const MIN_SETUP_PASSES: usize = 10;
const SETUP_BUDGET: Duration = Duration::from_millis(50);
/// Untraced passes measured with `--trace 0`, at least.
const MIN_UNTRACED_PASSES: usize = 3;
/// The traced total may differ from the sum of its layers by this share.
const MAX_UNACCOUNTED: f64 = 0.05;

/// glibc serves allocations of at least its mmap threshold with fresh
/// pages, and by default raises the threshold as such blocks are freed, so
/// later passes reuse the pages of earlier ones.  Under that policy
/// `fabric_faults` passes switched between two speeds 1.5× apart and run
/// medians scattered by 25%.  Holding the threshold at glibc's initial
/// 128 KiB gives every pass fresh pages, as a fresh process gets, and
/// passes within a run then agreed within ±3%.
const MALLOC_TUNABLE: &str = "glibc.malloc.mmap_threshold=131072";

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed <u64>] [--seconds <1..=3600>] [--trace <0|1>]\n\
workloads: paper_sweep, sprinklers_dense, fabric_faults";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// Strict flag parsing: unknown flags, unknown workloads, missing or
/// malformed values are errors.  `Ok(None)` means `--help`.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(None);
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg, None),
        };
        if !matches!(
            flag.as_str(),
            "--workload" | "--seed" | "--seconds" | "--trace"
        ) {
            return Err(format!("unknown argument '{flag}'"));
        }
        let value = match inline.or_else(|| args.next()) {
            Some(v) => v,
            None => return Err(format!("{flag} needs a value")),
        };
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} expects an unsigned integer, got '{v}'"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = number(&value)?,
            "--seconds" => {
                seconds = number(&value)?;
                if !(1..=3600).contains(&seconds) {
                    return Err(format!("--seconds must be in 1..=3600, got {seconds}"));
                }
            }
            _ => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got '{value}'")),
                }
            }
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(code) = rerun_with_malloc_tunable() {
        return code;
    }
    let mut bench = Bench::new(args.workload, args.seed);
    let metrics = if args.trace {
        bench.traced(args.seconds)
    } else {
        bench.untraced(args.seconds)
    };
    for (name, value, unit) in &metrics {
        println!("{:<34} {:>18} {unit}", name, format_value(*value));
    }
    let correct = bench.failed == 0 && bench.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        bench.attempted,
        bench.failed,
        metrics
            .iter()
            .map(|(name, value, unit)| format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                format_value(*value)
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::SUCCESS
}

/// Run this benchmark again as a child with [`MALLOC_TUNABLE`] set, unless
/// it already is (glibc reads tunables only at start-up).  `None` means
/// "measure in this process".
fn rerun_with_malloc_tunable() -> Option<ExitCode> {
    let tunables = std::env::var("GLIBC_TUNABLES").unwrap_or_default();
    if tunables.contains("glibc.malloc.mmap_threshold=") {
        return None;
    }
    let tunables = match tunables.as_str() {
        "" => MALLOC_TUNABLE.to_string(),
        other => format!("{other}:{MALLOC_TUNABLE}"),
    };
    let status = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env("GLIBC_TUNABLES", tunables)
            .status()
    });
    match status {
        Ok(status) => Some(
            status
                .code()
                .and_then(|code| u8::try_from(code).ok())
                .map_or(ExitCode::FAILURE, ExitCode::from),
        ),
        Err(e) => {
            eprintln!("warning: cannot rerun with {MALLOC_TUNABLE} ({e}); measuring as is");
            None
        }
    }
}

/// Full precision for finite values; a non-finite value cannot be written
/// as JSON and is recorded as 0 (the run is already marked incorrect).
fn format_value(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

type Metrics = Vec<(String, f64, &'static str)>;

/// One benchmark process: a workload at one seed, its tallies and any
/// failed checks.
struct Bench {
    workload: Workload,
    scenarios: Vec<Scenario>,
    engine: Engine,
    attempted: u64,
    failed: u64,
    /// Failed checks, reported on standard error.
    problems: Vec<String>,
    /// `fnv1a_128` of the first seeded pass's CSV rows and sidecars; later
    /// passes must reproduce them.
    seeded_digests: Option<(u128, u128)>,
    setup_rss_mib: f64,
    /// Peak RSS after the default-seed pass: the same input on every run,
    /// where the seeded inputs (fault schedules above all) vary it.
    peak_rss_mib: f64,
    /// Host-speed samples, taken around every scenario of every pass.
    calibration: Calibration,
}

/// The rendered output and wall times of one untraced pass.
struct UntracedPass {
    /// One entry per scenario; `None` where the run failed.
    rendered: Vec<Option<Rendered>>,
    e2e: f64,
    run: f64,
    slots: u64,
}

impl Bench {
    /// Time the workload's set-up on its own, then run it once at the
    /// default seed to warm up and check the pinned CSV digest.
    fn new(workload: Workload, seed: u64) -> Bench {
        let mut bench = Bench {
            workload,
            scenarios: workload.scenarios(seed),
            engine: Engine::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            seeded_digests: None,
            setup_rss_mib: 0.0,
            peak_rss_mib: 0.0,
            calibration: Calibration::default(),
        };
        bench.setup_burst();
        bench.setup_rss_mib = peak_rss_mib();
        let pinned = Workload::scenarios(workload, DEFAULT_SEED);
        let pass = bench.untraced_pass(&pinned);
        bench.peak_rss_mib = peak_rss_mib();
        let digest = csv_digest(&pass.rendered);
        let expected = workload.pinned_csv_digest();
        if pass.rendered.iter().all(Option::is_some) && digest != expected {
            bench.fail(
                pinned.len() as u64,
                format!("{workload}: CSV digest at seed {DEFAULT_SEED} is {digest:032x}, pinned {expected:032x}"),
            );
        }
        bench
    }

    fn fail(&mut self, runs: u64, problem: String) {
        eprintln!("check failed: {problem}");
        self.failed += runs;
        self.problems.push(problem);
    }

    /// A burst of set-up passes — spec text to a world ready to step,
    /// summed over the workload's scenarios — for at least [`SETUP_BUDGET`]
    /// and [`MIN_SETUP_PASSES`] passes.  Returns the median pass time, or
    /// NaN if a set-up failed.  A burst before every measured pass spreads
    /// the samples over the whole run, like the passes themselves.
    fn setup_burst(&mut self) -> f64 {
        let start = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < MIN_SETUP_PASSES || start.elapsed() < SETUP_BUDGET {
            let mut times = SetupTimes::default();
            for sc in &self.scenarios {
                match set_up(sc, &mut times) {
                    Ok(built) => drop(std::hint::black_box(built)),
                    Err(e) => {
                        let problem = format!("{}: set-up failed: {e}", sc.name);
                        self.fail(1, problem);
                        return f64::NAN;
                    }
                }
            }
            samples.push(times.total().as_secs_f64());
        }
        median(&mut samples)
    }

    /// One untraced pass over `scenarios`, checking every report, with a
    /// host-speed sample before each scenario and after the last.
    fn untraced_pass(&mut self, scenarios: &[Scenario]) -> UntracedPass {
        let mut pass = UntracedPass {
            rendered: Vec::with_capacity(scenarios.len()),
            e2e: 0.0,
            run: 0.0,
            slots: 0,
        };
        for sc in scenarios {
            self.calibration.sample();
            self.attempted += 1;
            match run_untraced(&mut self.engine, sc) {
                Ok((rendered, times)) => {
                    pass.rendered.push(Some(rendered));
                    pass.e2e += times.e2e.as_secs_f64();
                    pass.run += times.run.as_secs_f64();
                    pass.slots += times.slots;
                }
                Err(e) => {
                    pass.rendered.push(None);
                    self.fail(1, format!("{}: {e}", sc.name));
                }
            }
        }
        self.calibration.sample();
        pass
    }

    /// An untraced pass at the benchmark seed, whose output must repeat
    /// that of the first such pass exactly.
    fn seeded_pass(&mut self) -> UntracedPass {
        let scenarios = std::mem::take(&mut self.scenarios);
        let pass = self.untraced_pass(&scenarios);
        self.scenarios = scenarios;
        let digests = (csv_digest(&pass.rendered), sidecar_digest(&pass.rendered));
        match self.seeded_digests {
            None => self.seeded_digests = Some(digests),
            Some(first) if first != digests => {
                let runs = pass.rendered.len() as u64;
                self.fail(
                    runs,
                    "output differs between passes at one seed".to_string(),
                )
            }
            Some(_) => {}
        }
        pass
    }

    /// Untraced passes for `seconds`: the end-to-end metrics, in seconds of
    /// the reference host (see [`calib`]).
    fn untraced(&mut self, seconds: u64) -> Metrics {
        let budget = Duration::from_secs(seconds);
        let start = Instant::now();
        self.calibration.clear();
        let (mut e2e, mut slot_ns, mut setup) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            let t = Instant::now();
            let burst = self.setup_burst();
            let first_sample = self.calibration.samples();
            let pass = self.seeded_pass();
            setup.push(burst * self.calibration.speed_since(first_sample));
            e2e.push(pass.e2e);
            slot_ns.push(pass.run * 1e9 / pass.slots.max(1) as f64);
            if e2e.len() >= MIN_UNTRACED_PASSES && start.elapsed() + t.elapsed() > budget {
                break;
            }
        }
        let speed = self.calibration.speed();
        eprintln!(
            "{}: wall e2e of {} untraced passes: {e2e:.4?}; host speed {speed:.3}",
            self.workload,
            e2e.len()
        );
        vec![
            ("e2e_s".into(), trimmed_mean(&e2e) * speed, "s"),
            ("slot_ns".into(), trimmed_mean(&slot_ns) * speed, "ns"),
            ("setup_s".into(), lower_quartile(&mut setup), "s"),
            ("peak_rss_mib".into(), self.peak_rss_mib, "MiB"),
        ]
    }

    /// Alternating untraced and traced passes for `seconds`: the per-layer
    /// metrics.  Every traced pass must render byte-identical output to the
    /// untraced pass before it, and its layers must add up to its total.
    fn traced(&mut self, seconds: u64) -> Metrics {
        let budget = Duration::from_secs(seconds);
        let start = Instant::now();
        let mut buffers = LoopBuffers::default();
        let mut untraced_e2e = Vec::new();
        self.calibration.clear();
        let mut layers: Vec<Metrics> = Vec::new();
        loop {
            let t = Instant::now();
            let reference = self.seeded_pass();
            untraced_e2e.push(reference.e2e);
            let trace = self.traced_pass(&mut buffers, &reference.rendered);
            layers.push(layer_metrics(&trace));
            if start.elapsed() + t.elapsed() > budget {
                break;
            }
        }
        eprintln!("{}: {} traced passes", self.workload, layers.len());
        let mut out: Metrics = layers[0]
            .iter()
            .enumerate()
            .map(|(i, &(ref name, _, unit))| {
                let mut values: Vec<f64> = layers.iter().map(|m| m[i].1).collect();
                (name.clone(), median(&mut values), unit)
            })
            .collect();
        let value = |out: &Metrics, name: &str| {
            out.iter()
                .find(|m| m.0 == name)
                .map(|m| m.1)
                .expect("layer metric is present")
        };
        out.push(("e2e_wall_s".into(), trimmed_mean(&untraced_e2e), "s"));
        out.push(("host.speed".into(), self.calibration.speed(), "ratio"));
        let untraced = median(&mut untraced_e2e);
        let overhead = value(&out, "trace.total_s") / untraced - 1.0;
        out.push(("trace.overhead_ratio".into(), overhead, "ratio"));
        out.push(("mem.setup_rss_mib".into(), self.setup_rss_mib, "MiB"));
        out.push((
            "failed_run_ratio".into(),
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
        ));
        out
    }

    /// One traced pass at the benchmark seed.
    fn traced_pass(&mut self, buffers: &mut LoopBuffers, reference: &[Option<Rendered>]) -> Trace {
        let mut trace = Trace::default();
        let scenarios = std::mem::take(&mut self.scenarios);
        for (i, sc) in scenarios.iter().enumerate() {
            self.attempted += 1;
            match run_traced(sc, &mut trace, buffers) {
                Ok(rendered) => {
                    let same = reference[i].as_ref().is_some_and(|r| {
                        r.csv_row == rendered.csv_row && r.metrics_json == rendered.metrics_json
                    });
                    if !same {
                        self.fail(
                            1,
                            format!("{}: traced output differs from untraced", sc.name),
                        );
                    }
                }
                Err(e) => self.fail(1, format!("{} (traced): {e}", sc.name)),
            }
        }
        self.scenarios = scenarios;
        let unaccounted = trace.unaccounted() / trace.total.as_secs_f64();
        if unaccounted.abs() > MAX_UNACCOUNTED {
            self.fail(
                0,
                format!(
                    "layers miss {:.1}% of the traced total",
                    unaccounted * 100.0
                ),
            );
        }
        trace
    }
}

/// Per-layer metrics of one traced pass, in output order.
fn layer_metrics(t: &Trace) -> Metrics {
    let s = |d: Duration| d.as_secs_f64();
    let per = |num: f64, den: u64| num / den.max(1) as f64;
    let mut calls = t.advance_call_ns.clone();
    let mut m: Metrics = vec![
        ("spec.parse_s".into(), s(t.setup.parse), "s"),
        ("traffic.build_s".into(), s(t.setup.traffic), "s"),
        ("registry.build_s".into(), s(t.setup.registry), "s"),
        ("fabric.build_s".into(), s(t.setup.fabric), "s"),
        ("traffic.gen_s".into(), s(t.gen), "s"),
        (
            "traffic.gen_ns_per_slot".into(),
            per(s(t.gen) * 1e9, t.gen_slots),
            "ns",
        ),
        ("traffic.packets".into(), t.packets as f64, "count"),
        ("world.inject_s".into(), s(t.inject), "s"),
        (
            "world.inject_ns_per_packet".into(),
            per(s(t.inject) * 1e9, t.packets),
            "ns",
        ),
        ("world.advance_self_s".into(), s(t.advance), "s"),
    ];
    for scheme in PAPER_SCHEMES {
        let d = t.advance_by_scheme.get(scheme).copied().unwrap_or_default();
        m.push((format!("world.advance_self_s.{scheme}"), s(d), "s"));
    }
    m.extend([
        (
            "world.advance_calls".into(),
            t.advance_calls as f64,
            "count",
        ),
        (
            "world.slots_per_advance".into(),
            per(t.advanced_slots as f64, t.advance_calls),
            "slot",
        ),
        (
            "world.advance_call_ns.p50".into(),
            percentile(&mut calls, 0.50),
            "ns",
        ),
        (
            "world.advance_call_ns.p99".into(),
            percentile(&mut calls, 0.99),
            "ns",
        ),
        (
            "world.advance_call_ns.samples".into(),
            calls.len() as f64,
            "count",
        ),
        ("metrics.sink_s".into(), s(t.sink), "s"),
        ("metrics.deliveries".into(), t.deliveries as f64, "count"),
        (
            "metrics.sink_ns_per_delivery".into(),
            per(s(t.sink) * 1e9, t.deliveries),
            "ns",
        ),
        ("metrics.sample_s".into(), s(t.sample), "s"),
        ("report.render_s".into(), s(t.render), "s"),
        ("report.bytes".into(), t.report_bytes as f64, "byte"),
        ("engine.self_s".into(), t.engine_self(), "s"),
        ("counts.offered".into(), t.offered as f64, "count"),
        ("counts.delivered".into(), t.delivered as f64, "count"),
        ("counts.residual".into(), t.residual as f64, "count"),
        ("counts.dropped".into(), t.dropped as f64, "count"),
        ("counts.padding".into(), t.padding as f64, "count"),
        (
            "counts.censored_ratio".into(),
            per(t.residual as f64, t.offered),
            "ratio",
        ),
        (
            "counts.padding_ratio".into(),
            per(t.padding as f64, t.delivered + t.padding),
            "ratio",
        ),
        ("trace.total_s".into(), s(t.total), "s"),
        (
            "trace.unaccounted_ratio".into(),
            t.unaccounted() / s(t.total),
            "ratio",
        ),
    ]);
    m
}

/// `fnv1a_128` over the CSV header and every row, one per line.  The CSV
/// columns are frozen, so this pins every simulated statistic they carry.
fn csv_digest(rendered: &[Option<Rendered>]) -> u128 {
    let mut text = String::from(SimReport::csv_header());
    text.push('\n');
    for r in rendered.iter().flatten() {
        text.push_str(&r.csv_row);
        text.push('\n');
    }
    fnv1a_128(text.as_bytes())
}

fn sidecar_digest(rendered: &[Option<Rendered>]) -> u128 {
    let text: Vec<&str> = rendered
        .iter()
        .flatten()
        .map(|r| r.metrics_json.as_str())
        .collect();
    fnv1a_128(text.join("\n").as_bytes())
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The first quartile: linear interpolation at position (n + 1) / 4 of the
/// sorted values, the method of Python's `statistics.quantiles`.
fn lower_quartile(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n < 2 {
        return values.first().copied().unwrap_or(f64::NAN);
    }
    let pos = (n + 1) as f64 / 4.0;
    let i = (pos.floor() as usize).clamp(1, n - 1);
    values[i - 1] + (pos - i as f64).clamp(0.0, 1.0) * (values[i] - values[i - 1])
}

/// Nearest-rank percentile.
fn percentile(values: &mut [u64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1] as f64
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Args>, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn cli_rejects_unknown_flags_and_workloads() {
        assert!(parse(&["--workload", "paper_sweep", "--bogus"]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "paper_sweep", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "paper_sweep", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload"]).is_err());
        assert!(parse(&[]).is_err());
        assert!(parse(&["--help"]).unwrap().is_none());
        let args = parse(&["--workload=fabric_faults", "--seed", "9", "--trace", "1"])
            .unwrap()
            .unwrap();
        assert_eq!(args.workload, Workload::FabricFaults);
        assert_eq!((args.seed, args.trace), (9, true));
    }
}
