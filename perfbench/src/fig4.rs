//! `fig4-windows`: the paper's Figure 4 protocol on one thread.
//!
//! Four region recognisers (the SCATS intersections split by `Region`, as
//! the paper's region engines) are fed every SDE with arrival ≤ q and then
//! queried in turn at q, for q = start + WM, start + WM + step, … The window
//! latency of q is the time from handing in the last SDE with arrival ≤ q
//! to the return of the last region's `query(q)`. Each window's latency is
//! the median over the run's passes, which keeps short stalls of the host
//! out of the tail; the percentiles are taken over the windows, the cold
//! first window excluded. Streams is bypassed entirely, so this
//! workload isolates incremental evaluation, cache upkeep and late-SDE
//! amendment.

use crate::check::Fingerprint;
use crate::input::{characterise, Grid};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::{set_up, Rates, Report, RunConfig};
use insight_datagen::regions::Region;
use insight_datagen::scenario::Scenario;
use insight_rtec::window::WindowConfig;
use insight_streams::alloc::allocation_count;
use insight_traffic::recognizer::{IntersectionInfo, TrafficRecognition, TrafficRecognizer};
use insight_traffic::TrafficRulesConfig;
use std::error::Error;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const WM: i64 = 600;
const STEP: i64 = 31;
/// Each window's latency is the median over the passes, so a run needs
/// several.
const MIN_REPS: usize = 3;

struct RegionEngine {
    region: Region,
    intersections: Vec<IntersectionInfo>,
    recognizer: TrafficRecognizer,
}

fn engine(
    region: Region,
    intersections: Vec<IntersectionInfo>,
    window: WindowConfig,
) -> Result<RegionEngine, Box<dyn Error>> {
    let recognizer =
        TrafficRecognizer::new(TrafficRulesConfig::default(), window, &intersections, &[])?;
    Ok(RegionEngine { region, intersections, recognizer })
}

/// One recogniser per region that has instrumented intersections.
fn build_engines(scenario: &Scenario) -> Result<Vec<RegionEngine>, Box<dyn Error>> {
    let window = WindowConfig::new(WM, STEP)?;
    let mut engines = Vec::new();
    for region in Region::ALL {
        let infos: Vec<IntersectionInfo> = scenario
            .scats
            .intersections()
            .iter()
            .filter(|i| i.region == region)
            .map(|i| IntersectionInfo { id: i.id as i64, lon: i.lon, lat: i.lat })
            .collect();
        if !infos.is_empty() {
            engines.push(engine(region, infos, window)?);
        }
    }
    Ok(engines)
}

/// Canonical text of the CEs one region recognised in one window: every
/// derived fluent grounding with its maximal intervals, and every derived
/// event, sorted (the engine's enumeration order follows its hash maps).
fn canonical(result: &TrafficRecognition) -> String {
    let store = result.raw.fluent_store();
    let mut lines: Vec<String> = Vec::new();
    for name in store.names() {
        for entry in store.entries(name) {
            let mut line = format!("{name}(");
            for (i, a) in entry.args.iter().enumerate() {
                let _ = write!(line, "{}{a}", if i > 0 { "," } else { "" });
            }
            let _ = write!(line, ")={}", entry.value);
            for iv in entry.ivs.iter() {
                let _ = write!(line, " {iv}");
            }
            lines.push(line);
        }
    }
    lines.extend(result.raw.derived_events.iter().map(|e| e.to_string()));
    lines.sort();
    lines.join("\n")
}

/// Boundedness samples of one traced pass.
#[derive(Default)]
struct StateSamples {
    /// `(window, buffered SDEs, snapshot bytes)` summed over regions.
    points: Vec<(usize, f64, f64)>,
    snapshot_ms: Vec<f64>,
    restore_ms: Vec<f64>,
}

/// Whether window `w` of `windows` is a state sample point: every fourth
/// window of the first and the last quarter.
fn samples_state(w: usize, windows: usize) -> bool {
    let quarter = windows / 4;
    w.is_multiple_of(4) && (w < quarter || w >= windows - quarter)
}

/// Runs the workload.
pub fn run(
    config: &RunConfig,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), Box<dyn Error>> {
    let root = tracer.start("fig4-windows", SpanId::NONE, None);
    let (scenario, first, setup) =
        set_up(config, tracer, root, "TrafficRecognizer::new", build_engines)?;
    let sdes = &scenario.sdes;
    let (start, end) = scenario.window();
    let windows = ((end - start - WM) / STEP + 1) as usize;
    let mut rates = Rates::default();
    let mut latency_ms = vec![Vec::new(); windows];
    let mut cold_ms = Vec::new();
    let mut query_ms = Vec::new();
    let mut region_skew = Vec::new();
    let mut allocs = Vec::new();
    let mut ingest_ns_per_sde = Vec::new();
    let mut query_busy_ms = Vec::new();
    let mut state = StateSamples::default();
    let mut fingerprints = Vec::new();
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
        let mut engines = match built.take() {
            Some(engines) => engines,
            None => {
                let span = t.start("TrafficRecognizer::new", rep_span, None);
                let engines = build_engines(&scenario)?;
                t.end(span);
                engines
            }
        };

        let mut route = [None; 4];
        for (i, e) in engines.iter().enumerate() {
            route[e.region.index()] = Some(i);
        }
        let mut fingerprint = Fingerprint::new();
        let mut timed = Duration::ZERO;
        let mut ingest_time = Duration::ZERO;
        let mut handed_in = 0u64;
        let mut next = 0usize;
        let pass = t.start("pass", rep_span, None);
        for (w, window_latency) in latency_ms.iter_mut().enumerate() {
            let q = start + WM + w as i64 * STEP;
            let window_id = Some(w as u64);
            let win_span = t.start("window", pass, window_id);
            let allocs_before = allocation_count();
            let ingest_start = Instant::now();
            while next < sdes.len() && sdes[next].arrival <= q {
                let sde = &sdes[next];
                if let Some(i) = route[sde.region().index()] {
                    report.tally.attempt(1);
                    if let Err(e) = engines[i].recognizer.ingest(sde) {
                        report.tally.fail(1, format!("ingest error: {e}"));
                    }
                }
                handed_in += 1;
                next += 1;
            }
            let last_handed_in = Instant::now();
            let mut results = Vec::with_capacity(engines.len());
            let mut query_spans = Vec::with_capacity(engines.len());
            for e in engines.iter_mut() {
                let qs = Instant::now();
                let result = e.recognizer.query(q);
                let qe = Instant::now();
                query_spans.push((e.region, qs, qe));
                report.tally.attempt(1);
                if let Err(err) = &result {
                    report.tally.fail(1, format!("query error in {}: {err}", e.region));
                    report.tally.correct = false;
                }
                results.push(result.ok());
            }
            let done = Instant::now();
            let window_allocs = allocation_count() - allocs_before;
            // Spans are stored after the allocation reading, so tracing
            // does not count against the window.
            t.record("ingest", win_span, window_id, ingest_start, last_handed_in);
            let mut region_ms = Vec::with_capacity(engines.len());
            for (region, qs, qe) in query_spans {
                t.record(&format!("query[{region}]"), win_span, window_id, qs, qe);
                region_ms.push((qe - qs).as_secs_f64() * 1e3);
            }
            t.end(win_span);
            ingest_time += last_handed_in - ingest_start;
            timed += done - ingest_start;
            let latency = (done - last_handed_in).as_secs_f64() * 1e3;
            if w == 0 {
                cold_ms.push(latency);
            } else {
                window_latency.push(latency);
                query_ms.extend_from_slice(&region_ms);
                let (lo, hi) = region_ms
                    .iter()
                    .fold((f64::MAX, 0.0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                if lo > 0.0 {
                    region_skew.push(hi / lo);
                }
                allocs.push(window_allocs as f64);
            }

            // Outside the timed section: fingerprint the window's CEs and,
            // on traced passes, sample the retained state.
            for (e, r) in engines.iter().zip(&results) {
                fingerprint.add(e.region.name());
                fingerprint.add(&r.as_ref().map_or_else(|| "query failed".to_string(), canonical));
            }
            drop(results);
            if traced && samples_state(w, windows) {
                let span = t.start("snapshot_state", win_span, window_id);
                let s0 = Instant::now();
                let bytes: usize =
                    engines.iter().map(|e| e.recognizer.snapshot_state().len()).sum();
                state.snapshot_ms.push(s0.elapsed().as_secs_f64() * 1e3);
                t.end(span);
                let buffered: usize = engines.iter().map(|e| e.recognizer.buffered()).sum();
                state.points.push((w, buffered as f64, bytes as f64));
            }
            if traced && w == windows / 2 {
                // Restore every region into a fresh recogniser and continue
                // on it: the pass's fingerprint then also checks that a
                // restored engine recognises what the original would have.
                let span = t.start("restore_state", win_span, window_id);
                let window = WindowConfig::new(WM, STEP)?;
                let mut restore = Duration::ZERO;
                for e in engines.iter_mut() {
                    let blob = e.recognizer.snapshot_state();
                    let mut fresh = engine(e.region, e.intersections.clone(), window)?;
                    let r0 = Instant::now();
                    let restored = fresh.recognizer.restore_state(&blob);
                    restore += r0.elapsed();
                    match restored {
                        Ok(()) => *e = fresh,
                        Err(err) => report.tally.check(false, format!("restore failed: {err}")),
                    }
                }
                state.restore_ms.push(restore.as_secs_f64() * 1e3);
                t.end(span);
            }
        }
        t.end(pass);
        t.end(rep_span);
        rates.push(traced, handed_in as f64 / timed.as_secs_f64());
        ingest_ns_per_sde.push(ingest_time.as_nanos() as f64 / handed_in.max(1) as f64);
        query_busy_ms.push((timed - ingest_time).as_secs_f64() * 1e3);
        fingerprints.push(fingerprint);
        reps += 1;
    }
    tracer.end(root);

    let verdict = report.tally.check_fingerprints("fig4-windows", config.seed, &fingerprints);
    report.note(verdict);
    let (start, _) = scenario.window();
    characterise(&scenario, Grid { first: start + WM, step: STEP, wm: WM }, report);
    report.note(format!("{reps} passes of {windows} windows (WM {WM} s, step {STEP} s)"));
    let sde_per_s = report.series("sde_per_s (ingest/query loop)", "SDE/s", &rates.all);
    report.end_to_end("sde_per_s", sde_per_s);
    let per_window: Vec<f64> = latency_ms.iter().filter_map(|l| median(l)).collect();
    report.window_latency(
        &per_window,
        "last SDE handed in → last region's query returns, median over passes per window",
    );
    let setup_s = report.series("setup_s (generate + 4 region recognisers)", "s", &setup.total_s);
    report.end_to_end("setup_s", setup_s);

    report.layer("datagen.generate_s", median(&setup.generate_s).unwrap_or(0.0));
    if config.traced {
        report.layer("rtec.busy_ms", median(&query_busy_ms).unwrap_or(0.0));
        report.layer("rtec.query_p50_ms", median(&query_ms).unwrap_or(0.0));
        report.layer("rtec.region_skew", median(&region_skew).unwrap_or(0.0));
        report.layer("rtec.ingest_ns_per_sde", median(&ingest_ns_per_sde).unwrap_or(0.0));
        report.layer("rtec.cold_query_ms", median(&cold_ms).unwrap_or(0.0));
        report.layer("rtec.allocs_per_window", median(&allocs).unwrap_or(0.0));
        let quarter = windows / 4;
        let mean_of = |late: bool, pick: fn(&(usize, f64, f64)) -> f64| {
            let v: Vec<f64> = state
                .points
                .iter()
                .filter(|p| (p.0 >= windows - quarter) == late)
                .map(pick)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let (buf_first, buf_last) = (mean_of(false, |p| p.1), mean_of(true, |p| p.1));
        let (bytes_first, bytes_last) = (mean_of(false, |p| p.2), mean_of(true, |p| p.2));
        report.layer("rtec.buffered_sdes", buf_last);
        report.layer("rtec.state_bytes", bytes_last);
        report.layer("rtec.snapshot_ms", median(&state.snapshot_ms).unwrap_or(0.0));
        report.layer("rtec.restore_ms", median(&state.restore_ms).unwrap_or(0.0));
        if bytes_first > 0.0 {
            report.layer("rtec.state_growth", bytes_last / bytes_first);
        }
        report.note(format!(
            "state, first → last quarter: buffered SDEs {buf_first:.0} → {buf_last:.0}, \
             snapshot bytes {bytes_first:.0} → {bytes_last:.0}; allocations per window: \
             median {:.0}, max {:.0}",
            median(&allocs).unwrap_or(0.0),
            allocs.iter().copied().fold(0.0, f64::max)
        ));
        report.layer("trace.overhead", rates.overhead());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use insight_datagen::scenario::ScenarioConfig;

    /// Canonical output of every window, with an optional snapshot/restore
    /// of every region after window `restore_at`.
    fn windows(scenario: &Scenario, restore_at: Option<usize>) -> Vec<String> {
        let mut engines = build_engines(scenario).unwrap();
        let (start, end) = scenario.window();
        let mut out = Vec::new();
        let mut next = 0;
        let mut q = start + WM;
        while q <= end {
            while next < scenario.sdes.len() && scenario.sdes[next].arrival <= q {
                let sde = &scenario.sdes[next];
                if let Some(e) = engines.iter_mut().find(|e| e.region == sde.region()) {
                    e.recognizer.ingest(sde).unwrap();
                }
                next += 1;
            }
            for e in engines.iter_mut() {
                out.push(canonical(&e.recognizer.query(q).unwrap()));
            }
            if restore_at == Some(out.len() / engines.len()) {
                let window = WindowConfig::new(WM, STEP).unwrap();
                for e in engines.iter_mut() {
                    let blob = e.recognizer.snapshot_state();
                    let mut fresh = engine(e.region, e.intersections.clone(), window).unwrap();
                    fresh.recognizer.restore_state(&blob).unwrap();
                    *e = fresh;
                }
            }
            q += STEP;
        }
        out
    }

    #[test]
    fn canonical_windows_are_stable_across_runs_and_restores() {
        let scenario = Scenario::generate(ScenarioConfig::small(1500, 5)).unwrap();
        let first = windows(&scenario, None);
        assert!(first.len() > 4 && first.iter().any(|w| !w.is_empty()));
        assert_eq!(first, windows(&scenario, None), "two passes recognise the same");
        assert_eq!(first, windows(&scenario, Some(3)), "a restored engine recognises the same");
    }

    #[test]
    fn state_samples_cover_the_first_and_last_quarter() {
        let picked: Vec<usize> = (0..97).filter(|&w| samples_state(w, 97)).collect();
        assert_eq!(picked, vec![0, 4, 8, 12, 16, 20, 76, 80, 84, 88, 92, 96]);
    }
}
