//! `pipeline`: the full §3 Streams topology on the threaded runtime.
//!
//! Sources are pre-materialised and replayed to completion; bounded queues
//! apply backpressure, so a slower system is fed more slowly (a closed
//! loop). Each repetition generates the scenario, builds the topology with
//! `PipelineOptions::standard()` and times `Runtime::run`. After the
//! repetitions the same topology runs once on the single-threaded
//! `ReplayRuntime`: its output must equal the threaded runs' output, and its
//! throughput is the single-thread baseline.

use crate::check::Fingerprint;
use crate::input::{characterise, Grid};
use crate::trace::{SpanId, Tracer};
use crate::{set_up, Rates, Report, RunConfig};
use insight_core::pipeline::{build_pipeline_with, PipelineOptions};
use insight_core::replay::canonical_recognitions;
use insight_datagen::scenario::Scenario;
use insight_rtec::window::WindowConfig;
use insight_streams::metrics::MetricsSnapshot;
use insight_streams::replay::ReplayRuntime;
use insight_streams::runtime::Runtime;
use insight_streams::sink::CollectSink;
use insight_streams::topology::Topology;
use insight_traffic::TrafficRulesConfig;
use std::collections::BTreeMap;
use std::error::Error;
use std::time::Instant;

const WM: i64 = 600;
const STEP: i64 = 300;
const MIN_REPS: usize = 3;

fn build(scenario: &Scenario) -> Result<(Topology, CollectSink), Box<dyn Error>> {
    let window = WindowConfig::new(WM, STEP)?;
    Ok(build_pipeline_with(
        scenario,
        TrafficRulesConfig::default(),
        window,
        &PipelineOptions::standard(),
    )?)
}

/// Sum of `process_ns` over the stages whose name satisfies `pred`, in ms.
fn busy_ms(snap: &MetricsSnapshot, pred: impl Fn(&str) -> bool) -> f64 {
    snap.stages.iter().filter(|(name, _)| pred(name)).map(|(_, s)| s.process_ns.sum_ns).sum::<u64>()
        as f64
        / 1e6
}

/// Whether `name` is a shard replica `stage[i]` of `stage`.
fn is_replica(name: &str, stage: &str) -> bool {
    name.strip_prefix(stage)
        .and_then(|rest| rest.strip_prefix('['))
        .and_then(|rest| rest.strip_suffix(']'))
        .is_some_and(|i| i.parse::<usize>().is_ok())
}

/// Counts the run's failed operations: supervision faults, skips and dead
/// letters, malformed SDEs, and SDEs the RTEC replicas never consumed.
fn tally_failures(snap: &MetricsSnapshot, sdes: u64, report: &mut Report) {
    let tally = &mut report.tally;
    for (name, stage) in &snap.stages {
        tally.fail(stage.faults, format!("fault in stage {name}"));
        tally.fail(stage.skipped, format!("item skipped by stage {name}"));
        tally.fail(stage.dead_letters, format!("dead letter in stage {name}"));
    }
    let malformed: u64 = snap
        .counters
        .iter()
        .filter(|(name, _)| name.ends_with("malformed_sdes"))
        .map(|(_, v)| *v)
        .sum();
    tally.fail(malformed, "malformed SDE");
    let consumed: u64 = snap
        .stages
        .iter()
        .filter(|(name, _)| is_replica(name, "rtec"))
        .map(|(_, s)| s.items_in)
        .sum();
    tally.fail(sdes.saturating_sub(consumed), "SDE never consumed by the RTEC stage");
    let fallbacks = snap.counters.get("crowd.fallbacks").copied().unwrap_or(0);
    tally.fail(fallbacks, "crowd fallback");
}

/// Per-layer figures of one traced repetition's metrics snapshot.
fn record_layers(snap: &MetricsSnapshot, report: &mut Report) {
    if let Some(q) = snap.queues.get("sde") {
        report.layer("queue.stall_ms", q.stall_ns as f64 / 1e6);
        report.layer("queue.send_stalls", q.send_stalls as f64);
        report.layer("queue.sde_high_water", q.depth_high_water as f64);
    }
    report.layer("feeds.busy_ms", busy_ms(snap, |n| n.contains("-feed")));
    report.layer("partition.busy_ms", busy_ms(snap, |n| n.ends_with("[part]")));
    report.layer("merge.busy_ms", busy_ms(snap, |n| n.ends_with("[merge]")));
    let rtec: Vec<f64> = snap
        .stages
        .iter()
        .filter(|(name, _)| is_replica(name, "rtec"))
        .map(|(_, s)| s.process_ns.sum_ns as f64 / 1e6)
        .collect();
    let total: f64 = rtec.iter().sum();
    let max = rtec.iter().copied().fold(0.0, f64::max);
    report.layer("rtec.busy_ms", total);
    if total > 0.0 {
        report.layer("rtec.replica_skew", max / (total / rtec.len() as f64));
    }
    report.layer("crowd.busy_ms", busy_ms(snap, |n| is_replica(n, "crowd") || n == "crowd-em"));
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    report.layer("crowd.resolutions", counter("crowd.resolutions"));
    report.layer("crowd.tasks", counter("crowd.tasks"));
    report.layer("crowd.fallbacks", counter("crowd.fallbacks"));
    report.layer("crowd.deadline_misses", counter("crowd.deadline_misses"));
    if let Some(h) = snap.histograms.get("crowd.resolve_ns") {
        report.layer("crowd.resolve_ms", h.sum_ns as f64 / 1e6);
    }
}

/// Runs the topology once on the single-threaded `ReplayRuntime`; returns
/// the run's seconds and its output fingerprint.
fn replay(
    scenario: &Scenario,
    seed: u64,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<(f64, Fingerprint), Box<dyn Error>> {
    let (topology, sink) = build(scenario)?;
    let span = tracer.start("ReplayRuntime::run", parent, None);
    let t0 = Instant::now();
    ReplayRuntime::new(topology, seed).run()?;
    let secs = t0.elapsed().as_secs_f64();
    tracer.end(span);
    Ok((secs, Fingerprint::of(&canonical_recognitions(&sink.items()))))
}

fn build_runtime(scenario: &Scenario) -> Result<(Runtime, CollectSink), Box<dyn Error>> {
    let (topology, sink) = build(scenario)?;
    Ok((Runtime::new(topology), sink))
}

/// Runs the workload.
pub fn run(
    config: &RunConfig,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), Box<dyn Error>> {
    let root = tracer.start("pipeline", SpanId::NONE, None);
    let (scenario, first, setup) =
        set_up(config, tracer, root, "build_pipeline_with", build_runtime)?;
    let n = scenario.sdes.len() as u64;
    let mut rates = Rates::default();
    let mut construct_s = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut region_query_ms = Vec::new();
    let mut fingerprints = Vec::new();
    let mut feed_ns_per_sde = Vec::new();
    let mut replays = Vec::new();
    let mut built = Some(first);
    let mut reps = 0;
    while config.another_rep(reps, MIN_REPS) {
        if reps == 1 {
            report.record_peak_memory();
        }
        let traced = config.rep_traced(reps);
        let mut off = Tracer::new(false);
        let t: &mut Tracer = if traced { &mut *tracer } else { &mut off };
        let rep_span = t.start("rep", root, None);
        let (runtime, sink) = match built.take() {
            Some(b) => b,
            None => {
                let span = t.start("build_pipeline_with", rep_span, None);
                let t0 = Instant::now();
                let b = build_runtime(&scenario)?;
                construct_s.push(t0.elapsed().as_secs_f64());
                t.end(span);
                b
            }
        };
        let metrics = runtime.metrics();

        report.tally.attempt(n);
        let span = t.start("Runtime::run", rep_span, None);
        let t0 = Instant::now();
        let result = runtime.run();
        let elapsed = t0.elapsed().as_secs_f64();
        t.end(span);
        reps += 1;
        if let Err(e) = result {
            report.tally.check(false, format!("Runtime::run failed: {e}"));
            t.end(rep_span);
            continue;
        }
        rates.push(traced, n as f64 / elapsed);

        let items = sink.items();
        fingerprints.push(Fingerprint::of(&canonical_recognitions(&items)));
        // A window is done when its slowest region is; the first window of
        // a repetition is cold and left out.
        let mut slowest: BTreeMap<i64, i64> = BTreeMap::new();
        for item in &items {
            if let (Some(q), Some(ns)) =
                (item.get_i64("query_time"), item.get_i64("recognition_ns"))
            {
                region_query_ms.push(ns as f64 / 1e6);
                let entry = slowest.entry(q).or_default();
                *entry = (*entry).max(ns);
            }
        }
        latencies_ms.extend(slowest.values().skip(1).map(|&ns| ns as f64 / 1e6));
        let snap = metrics.snapshot();
        tally_failures(&snap, n, report);
        if config.traced {
            replays.push(replay(&scenario, config.seed, t, rep_span));
        }
        if traced {
            record_layers(&snap, report);
            let span = t.start("feed_items", rep_span, None);
            let t0 = Instant::now();
            let feeds = insight_core::items::feed_items(&scenario);
            feed_ns_per_sde.push(t0.elapsed().as_nanos() as f64 / n.max(1) as f64);
            drop(feeds);
            t.end(span);
        }
        t.end(rep_span);
    }
    let n = n as f64;

    // Cross-check and single-thread baseline: the deterministic replay
    // scheduler must recognise exactly what the threaded runtime did.
    // Untraced runs replay once; traced runs replayed after every
    // repetition, for a median baseline taken under the same conditions.
    if replays.is_empty() {
        replays.push(replay(&scenario, config.seed, tracer, root));
    }
    let mut single_rates = Vec::new();
    for result in replays {
        report.tally.attempt(n as u64);
        match result {
            Ok((secs, fp)) => {
                single_rates.push(n / secs);
                let same = fingerprints.first() == Some(&fp);
                report.tally.check(same, "ReplayRuntime output differs from Runtime output");
            }
            Err(e) => report.tally.check(false, format!("ReplayRuntime::run failed: {e}")),
        }
    }
    let verdict = report.tally.check_fingerprints("pipeline", config.seed, &fingerprints);
    report.note(verdict);
    tracer.end(root);

    let (start, _) = scenario.window();
    characterise(&scenario, Grid { first: start + STEP, step: STEP, wm: WM }, report);
    report.note(format!("{reps} repetitions of Runtime::run (4 RTEC replicas, 2 crowd replicas)"));
    let sde_per_s = report.series("sde_per_s (Runtime::run)", "SDE/s", &rates.all);
    report.end_to_end("sde_per_s", sde_per_s);
    report.window_latency(
        &latencies_ms,
        "slowest region's RTEC query per window, from the summaries",
    );
    let setup_s = report.series("setup_s (generate + build)", "s", &setup.total_s);
    report.end_to_end("setup_s", setup_s);
    report.series("build_pipeline_with alone", "s", &construct_s);
    let single = report.series("single-thread ReplayRuntime::run", "SDE/s", &single_rates);
    report.note(format!("parallel speed-up over one thread: {:.3}", sde_per_s / single));

    report.layer("datagen.generate_s", crate::stats::median(&setup.generate_s).unwrap_or(0.0));
    report.layer("runtime.single_thread_sde_per_s", single);
    report.layer("runtime.parallel_speedup", sde_per_s / single);
    if config.traced {
        let query_p50 = crate::stats::median(&region_query_ms).unwrap_or(0.0);
        report.layer("rtec.query_p50_ms", query_p50);
        report.layer("feeds.ns_per_sde", crate::stats::median(&feed_ns_per_sde).unwrap_or(0.0));
        report.layer("trace.overhead", rates.overhead());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use insight_datagen::scenario::ScenarioConfig;

    #[test]
    fn fingerprint_is_stable_across_runs_and_runtimes() {
        let scenario = Scenario::generate(ScenarioConfig::small(1800, 11)).unwrap();
        let threaded = || {
            let (runtime, sink) = build_runtime(&scenario).unwrap();
            runtime.run().unwrap();
            Fingerprint::of(&canonical_recognitions(&sink.items()))
        };
        let first = threaded();
        assert_eq!(first, threaded(), "two threaded runs recognise the same");
        let mut off = Tracer::new(false);
        for seed in [1, 2] {
            let (_, replayed) = replay(&scenario, seed, &mut off, SpanId::NONE).unwrap();
            assert_eq!(first, replayed, "ReplayRuntime seed {seed} differs from Runtime");
        }
    }

    #[test]
    fn replica_names_are_recognised() {
        assert!(is_replica("rtec[0]", "rtec"));
        assert!(is_replica("rtec[12]", "rtec"));
        assert!(!is_replica("rtec[part]", "rtec"));
        assert!(!is_replica("rtec[merge]", "rtec"));
        assert!(!is_replica("crowd-em", "crowd"));
    }
}
