//! Paper-scale end-to-end benchmark of the INSIGHT reproduction.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pipeline --seed 7 --seconds 30 --trace 0
//! ```
//!
//! Every workload runs on the paper-scale Dublin scenario
//! (`ScenarioConfig::dublin_jan_2013`, 70 minutes, generated from `--seed`)
//! and drives the system only through its public entry points with
//! production defaults (see `perfbench/README.md` for the workloads, the
//! metric definitions and the layer → metric map). A run repeats the
//! workload — set-up included — until `--seconds` have passed and reports
//! medians over the repetitions. Human-readable lines go first; the last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). A traced run also writes its spans
//! to `.bench_out/spans-<workload>-seed<seed>.json`.

mod check;
mod closed_loop;
mod fig4;
mod input;
mod mem;
mod pipeline;
mod stats;
mod trace;

use insight_datagen::scenario::{Scenario, ScenarioConfig};
use std::collections::BTreeMap;
use std::error::Error;
use std::time::{Duration, Instant};
use trace::{SpanId, Tracer};

// Per-window allocation counts (the `fig4-windows` boundedness check) and
// `peak_heap_mb` need the counting allocator; it is installed for every run
// so traced and untraced runs execute the same binary.
#[global_allocator]
static ALLOC: mem::PeakAllocator = mem::PeakAllocator;

/// Length of every generated scenario in seconds of trace time: a
/// 10-minute working memory plus one hour of queries, which gives the
/// `fig4-windows` protocol over 100 warm windows per pass, enough for a
/// supported p90.
pub const SCENARIO_SECONDS: i64 = 4200;

/// End-to-end metrics, reported by untraced runs of every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("sde_per_s", "SDE/s"),
    ("window_p50_ms", "ms"),
    ("window_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, reported by traced runs of every workload. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("host.cores", "count"),
    ("mem.peak_rss_mb", "MB"),
    ("input.sdes", "count"),
    ("input.sdes_per_window", "count"),
    ("input.late_share", "ratio"),
    ("input.largest_region_share", "ratio"),
    ("check.failed_share", "ratio"),
    ("datagen.generate_s", "s"),
    ("feeds.ns_per_sde", "ns"),
    ("feeds.busy_ms", "ms"),
    ("queue.stall_ms", "ms"),
    ("queue.send_stalls", "count"),
    ("queue.sde_high_water", "count"),
    ("partition.busy_ms", "ms"),
    ("merge.busy_ms", "ms"),
    ("runtime.single_thread_sde_per_s", "SDE/s"),
    ("runtime.parallel_speedup", "ratio"),
    ("rtec.busy_ms", "ms"),
    ("rtec.replica_skew", "ratio"),
    ("rtec.query_p50_ms", "ms"),
    ("rtec.region_skew", "ratio"),
    ("rtec.ingest_ns_per_sde", "ns"),
    ("rtec.cold_query_ms", "ms"),
    ("rtec.allocs_per_window", "count"),
    ("rtec.buffered_sdes", "count"),
    ("rtec.state_bytes", "bytes"),
    ("rtec.snapshot_ms", "ms"),
    ("rtec.restore_ms", "ms"),
    ("rtec.state_growth", "ratio"),
    ("crowd.busy_ms", "ms"),
    ("crowd.resolutions", "count"),
    ("crowd.tasks", "count"),
    ("crowd.resolve_ms", "ms"),
    ("crowd.fallbacks", "count"),
    ("crowd.deadline_misses", "count"),
    ("gp.observations", "count"),
    ("gp.targets", "count"),
    ("gp.map_s", "s"),
    ("system.rtec_ms", "ms"),
    ("system.self_ms", "ms"),
    ("trace.overhead", "SDE/s"),
    ("trace.spans", "count"),
];

/// How many times a run generates its scenario and builds the system
/// before the timed repetitions, for the median `setup_s`.
pub const SETUPS: usize = 3;

/// Command-line settings of one run.
pub struct RunConfig {
    /// Scenario seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the run lasts, set-up included.
    pub seconds: u64,
    /// Whether this is the traced run (per-layer metrics and spans).
    pub traced: bool,
    /// When the run started.
    pub started: Instant,
}

impl RunConfig {
    /// Whether another repetition should start after `done` of them: until
    /// the time is up, but at least `min` (medians and tails need them).
    pub fn another_rep(&self, done: usize, min: usize) -> bool {
        done < min || self.started.elapsed() < Duration::from_secs(self.seconds)
    }

    /// The run's scenario: the paper-scale Dublin preset.
    pub fn scenario_config(&self) -> ScenarioConfig {
        ScenarioConfig::dublin_jan_2013(SCENARIO_SECONDS, self.seed)
    }

    /// Whether repetition `rep` records spans: a traced run alternates
    /// traced and untraced repetitions, so the tracing overhead is measured
    /// within one process.
    pub fn rep_traced(&self, rep: usize) -> bool {
        self.traced && rep.is_multiple_of(2)
    }
}

/// Set-up times of the [`SETUPS`] set-ups of a run.
pub struct SetupTimes {
    /// Scenario generation, per set-up.
    pub generate_s: Vec<f64>,
    /// Generation plus construction, per set-up.
    pub total_s: Vec<f64>,
}

/// Generates the scenario and builds the system on it [`SETUPS`] times,
/// timing both, and returns the last scenario with what was built on it.
pub fn set_up<T>(
    config: &RunConfig,
    tracer: &mut Tracer,
    parent: SpanId,
    construct_name: &str,
    mut construct: impl FnMut(&Scenario) -> Result<T, Box<dyn Error>>,
) -> Result<(Scenario, T, SetupTimes), Box<dyn Error>> {
    let mut times = SetupTimes { generate_s: Vec::new(), total_s: Vec::new() };
    let mut last = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first, so peak memory holds one system,
        // as a single set-up would.
        drop(last.take());
        let setup = tracer.start("setup", parent, None);
        let t0 = Instant::now();
        let span = tracer.start("datagen.generate", setup, None);
        let scenario = Scenario::generate(config.scenario_config())?;
        tracer.end(span);
        let t1 = Instant::now();
        let span = tracer.start(construct_name, setup, None);
        let built = construct(&scenario)?;
        tracer.end(span);
        let t2 = Instant::now();
        tracer.end(setup);
        times.generate_s.push((t1 - t0).as_secs_f64());
        times.total_s.push((t2 - t0).as_secs_f64());
        last = Some((scenario, built));
    }
    let (scenario, built) = last.expect("SETUPS is at least 1");
    Ok((scenario, built, times))
}

/// Per-repetition throughput, split by whether the repetition was traced.
#[derive(Default)]
pub struct Rates {
    /// Every repetition's rate.
    pub all: Vec<f64>,
    traced: Vec<f64>,
    untraced: Vec<f64>,
}

impl Rates {
    /// Records one repetition's rate.
    pub fn push(&mut self, traced: bool, rate: f64) {
        self.all.push(rate);
        if traced {
            self.traced.push(rate);
        } else {
            self.untraced.push(rate);
        }
    }

    /// Median traced minus median untraced rate: the tracing overhead.
    pub fn overhead(&self) -> f64 {
        stats::median(&self.traced).unwrap_or(0.0) - stats::median(&self.untraced).unwrap_or(0.0)
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Report {
    /// End-to-end metric values by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed, and whether every output check held.
    pub tally: check::Tally,
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
}

impl Report {
    /// Records a per-layer metric, which must be one of [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.layers.insert(name, value);
    }

    /// Records an end-to-end metric, which must be one of [`END_TO_END`].
    pub fn end_to_end(&mut self, name: &'static str, value: f64) {
        assert!(END_TO_END.iter().any(|(n, _)| *n == name), "unknown end-to-end metric {name}");
        self.end_to_end.insert(name, value);
    }

    /// Records the peak live heap and the peak resident memory so far.
    /// Workloads call it once the set-ups and the first repetition are
    /// done, so the figures do not grow with the number of repetitions a
    /// run fits in.
    pub fn record_peak_memory(&mut self) {
        self.end_to_end("peak_heap_mb", mem::peak_heap_mb());
        let rss = mem::peak_rss_mb();
        self.layer("mem.peak_rss_mb", rss);
        self.note(format!("peak_rss_mb (VmHWM, per-layer mem.peak_rss_mb): {rss:.3} MB"));
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Records the window-latency percentiles of `samples_ms`, reporting the
    /// percentile rule's verdict alongside (the highest percentile with at
    /// least ten samples beyond it).
    pub fn window_latency(&mut self, samples_ms: &[f64], what: &str) {
        let p50 = stats::percentile(samples_ms, 50.0).unwrap_or(0.0);
        let p90 = stats::percentile(samples_ms, 90.0).unwrap_or(0.0);
        let supported = stats::supported_percentile(samples_ms.len())
            .map_or("none".to_string(), |p| format!("p{p}"));
        self.note(format!(
            "window latency ({what}): p50 {p50:.3} ms, p90 {p90:.3} ms over {} samples \
             (highest percentile the sample supports: {supported})",
            samples_ms.len()
        ));
        self.end_to_end("window_p50_ms", p50);
        self.end_to_end("window_p90_ms", p90);
    }

    /// Records a per-repetition series by its median, and prints the
    /// series' median and quartiles.
    pub fn series(&mut self, label: &str, unit: &str, values: &[f64]) -> f64 {
        let med = stats::median(values).unwrap_or(0.0);
        let spread = match stats::quartiles(values) {
            Some((q1, q3)) => format!("quartiles {q1:.4}–{q3:.4}"),
            None => "one sample".to_string(),
        };
        self.note(format!("{label}: median {med:.4} {unit} ({spread}, n={})", values.len()));
        med
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <pipeline|fig4-windows|closed-loop> --seed <n> \
         --seconds <n> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, RunConfig) {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 7u64;
    let mut seconds = 30u64;
    let mut traced = false;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
        i += 2;
    }
    (workload.unwrap_or_else(|| usage()), RunConfig { seed, seconds, traced, started })
}

fn metrics_json(names: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    let fields: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let (workload, config) = parse_args();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut tracer = Tracer::new(config.traced);
    let mut report = Report::default();
    let outcome = match workload.as_str() {
        "pipeline" => pipeline::run(&config, &mut tracer, &mut report),
        "fig4-windows" => fig4::run(&config, &mut tracer, &mut report),
        "closed-loop" => closed_loop::run(&config, &mut tracer, &mut report),
        _ => usage(),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {workload} failed: {e}");
        std::process::exit(1);
    }

    report.layer("host.cores", cores as f64);
    report.layer("check.failed_share", report.tally.failed_share());
    report.layer("trace.spans", tracer.len() as f64);

    println!("workload {workload}, seed {}, {cores} cores, traced {}", config.seed, config.traced);
    for line in &report.lines {
        println!("  {line}");
    }
    println!(
        "  operations: {} attempted, {} failed (failed_share {:.6} ratio); outputs correct: {}",
        report.tally.attempted,
        report.tally.failed,
        report.tally.failed_share(),
        report.tally.correct
    );
    for failure in &report.tally.failures {
        println!("  failed: {failure}");
    }
    for (name, unit) in END_TO_END {
        if let Some(v) = report.end_to_end.get(name) {
            println!("  {name} = {v:.4} {unit}");
        }
    }
    if config.traced {
        for (name, ms) in tracer.self_times_ms() {
            println!("  self time {name}: {ms:.3} ms");
        }
        for (name, unit) in PER_LAYER {
            println!("  {name} = {:.4} {unit}", report.layers.get(name).copied().unwrap_or(0.0));
        }
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("spans-{workload}-seed{}.json", config.seed));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, tracer.to_json()))
        {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("  spans written to {}", path.display());
    }

    let metrics = if config.traced {
        metrics_json(&PER_LAYER, &report.layers)
    } else {
        metrics_json(&END_TO_END, &report.end_to_end)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.tally.correct, report.tally.attempted, report.tally.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_manifest_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).unwrap();
        let declared = manifest.matches("\"name\": \"").count();
        let workloads = 3;
        assert_eq!(declared, workloads + END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "{name} ({unit}) missing from BENCHMARK.json");
        }
    }
}
