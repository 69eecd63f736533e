//! `closed-loop`: the integrated system of Figure 1.
//!
//! Each repetition builds an `InsightSystem` with its default
//! crowd-validated rules (`SystemConfig::small` with the paper-scale
//! scenario swapped in), times `InsightSystem::run` — recognition, crowd
//! resolution of source disagreements, traffic-model feedback and the
//! alert and control logic — and then `render_map`, the operator's city-map
//! refresh.

use crate::check::Fingerprint;
use crate::input::{characterise, Grid};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::{Rates, Report, RunConfig, SCENARIO_SECONDS};
use insight_core::system::{InsightSystem, SystemConfig, SystemReport};
use insight_datagen::scenario::Scenario;
use std::error::Error;
use std::fmt::Write as _;
use std::time::Instant;

const MIN_REPS: usize = 3;
/// Operator map size in pixels, as in the quickstart example.
const MAP_SIZE: (usize, usize) = (480, 360);

fn system_config(config: &RunConfig) -> SystemConfig {
    SystemConfig {
        scenario: config.scenario_config(),
        ..SystemConfig::small(SCENARIO_SECONDS, config.seed)
    }
}

/// Canonical text of the loop's decisions: every operator alert and every
/// control action, in emission order.
fn canonical(report: &SystemReport) -> String {
    let mut out = String::new();
    for alert in &report.alerts {
        let _ = writeln!(out, "{alert:?}");
    }
    for (q, action) in &report.control_actions {
        let _ = writeln!(out, "{q} {action:?}");
    }
    out
}

/// Runs the workload.
pub fn run(
    config: &RunConfig,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), Box<dyn Error>> {
    let root = tracer.start("closed-loop", SpanId::NONE, None);
    let mut setup_s = Vec::new();
    let mut rates = Rates::default();
    let mut map_s = Vec::new();
    let mut latency_ms = Vec::new();
    let mut fingerprints = Vec::new();
    let mut last = None;
    let mut reps = 0;
    while config.another_rep(reps, MIN_REPS) {
        if reps == 1 {
            report.record_peak_memory();
        }
        let traced = config.rep_traced(reps);
        let mut off = Tracer::new(false);
        let t: &mut Tracer = if traced { &mut *tracer } else { &mut off };
        let rep_span = t.start("rep", root, None);
        // Drop the previous repetition's system first, so peak memory holds
        // one system.
        drop(last.take());

        let span = t.start("InsightSystem::new", rep_span, None);
        let t0 = Instant::now();
        let mut system = InsightSystem::new(system_config(config))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        t.end(span);

        let n = system.scenario().sdes.len() as u64;
        report.tally.attempt(n);
        let span = t.start("InsightSystem::run", rep_span, None);
        let t1 = Instant::now();
        let result = system.run();
        let run_s = t1.elapsed().as_secs_f64();
        t.end(span);
        let sys = match result {
            Ok(r) => r,
            Err(e) => {
                report.tally.check(false, format!("InsightSystem::run failed: {e}"));
                t.end(rep_span);
                reps += 1;
                continue;
            }
        };
        rates.push(traced, n as f64 / run_s);
        // The first window of a repetition is cold, as in `fig4-windows`.
        latency_ms
            .extend(sys.windows.iter().skip(1).map(|w| w.recognition_time.as_secs_f64() * 1e3));
        fingerprints.push(Fingerprint::of(&canonical(&sys)));

        let span = t.start("render_map", rep_span, None);
        let t2 = Instant::now();
        let map = system.render_map(MAP_SIZE.0, MAP_SIZE.1);
        map_s.push(t2.elapsed().as_secs_f64());
        t.end(span);
        match map {
            Ok(ppm) => report.tally.check(ppm.starts_with("P3"), "operator map is not a PPM image"),
            Err(e) => report.tally.check(false, format!("render_map failed: {e}")),
        }

        let counter = |name: &str| sys.metrics.counters.get(name).copied().unwrap_or(0);
        report.tally.fail(sys.faults.total_faults(), "stage fault");
        report.tally.fail(counter("crowd.fallbacks"), "crowd fallback");
        report.tally.fail(counter("crowd.deadline_misses"), "crowd deadline miss");
        t.end(rep_span);
        last = Some((system, sys, run_s));
        reps += 1;
    }
    tracer.end(root);
    let (system, sys, run_s) = last.ok_or("no repetition completed")?;

    let verdict = report.tally.check_fingerprints("closed-loop", config.seed, &fingerprints);
    report.note(verdict);
    report.note(format!(
        "{reps} repetitions: {} alerts, {} control actions, {} windows per run",
        sys.alerts.len(),
        sys.control_actions.len(),
        sys.windows.len()
    ));
    let window = system_config(config).window;
    let (start, _) = system.scenario().window();
    let grid = Grid { first: start + window.step(), step: window.step(), wm: window.wm() };
    characterise(system.scenario(), grid, report);
    let sde_per_s = report.series("sde_per_s (InsightSystem::run)", "SDE/s", &rates.all);
    report.end_to_end("sde_per_s", sde_per_s);
    report.window_latency(&latency_ms, "slowest region's query per window, as the run reports it");
    let setup = report.series("setup_s (InsightSystem::new)", "s", &setup_s);
    report.end_to_end("setup_s", setup);
    let map = report.series("map_s (render_map)", "s", &map_s);
    report.layer("gp.map_s", map);

    if config.traced {
        let span = tracer.start("datagen.generate", root, None);
        let t0 = Instant::now();
        let scenario = Scenario::generate(config.scenario_config())?;
        report.layer("datagen.generate_s", t0.elapsed().as_secs_f64());
        drop(scenario);
        tracer.end(span);

        let m = &sys.metrics;
        let counter = |name: &str| m.counters.get(name).copied().unwrap_or(0) as f64;
        let hist_ms = |name: &str| m.histograms.get(name).map_or(0.0, |h| h.sum_ns as f64 / 1e6);
        report.layer("crowd.resolutions", counter("crowd.resolutions"));
        report.layer("crowd.tasks", counter("crowd.tasks"));
        report.layer("crowd.resolve_ms", hist_ms("crowd.resolve_ns"));
        report.layer("crowd.fallbacks", counter("crowd.fallbacks"));
        report.layer("crowd.deadline_misses", counter("crowd.deadline_misses"));
        report.layer("gp.observations", system.model().observed_count() as f64);
        report.layer("gp.targets", system.model().graph().len() as f64);
        // The run exposes each window's slowest region only, so the RTEC
        // figures here are per window rather than per region.
        let rtec_ms = hist_ms("rtec.window_ns");
        report.layer("system.rtec_ms", rtec_ms);
        report.layer("rtec.busy_ms", rtec_ms);
        report.layer("rtec.query_p50_ms", median(&latency_ms).unwrap_or(0.0));
        report.layer("crowd.busy_ms", hist_ms("crowd.resolve_ns"));
        report.layer("system.self_ms", run_s * 1e3 - rtec_ms - hist_ms("crowd.resolve_ns"));
        report.layer("trace.overhead", rates.overhead());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_stable_across_runs() {
        let run = || {
            let mut system = InsightSystem::new(SystemConfig::small(1800, 101)).unwrap();
            canonical(&system.run().unwrap())
        };
        let first = run();
        assert!(!first.is_empty(), "the small loop raises alerts");
        assert_eq!(first, run());
    }
}
