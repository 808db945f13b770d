//! End-to-end and per-layer benchmark of the MVF pipeline and its audit
//! service.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload present2-camo-redteam --seed 12648430 --seconds 10 --trace 0
//! ```
//!
//! A run builds its inputs from `--seed` (untimed), then makes
//! `max(1, floor(seconds / PASS_SECONDS))` passes: each pass sets the
//! program up afresh and runs the workload's fixed job list once. The pass
//! count depends on `--seconds` alone, never on how fast the machine is,
//! so every run at one seed and length does the same work (later passes
//! run warm, so a time-dependent count would shift `job_s`). Every job's
//! outputs are checked against independent references (see [`verify`]);
//! the last line of standard output is the JSON result.
//!
//! `--trace 0` reports the end-to-end metrics: `setup_s` (median of
//! [`SETUP_SAMPLES`] set-ups plus one per further pass), `job_s` and
//! `cpu_s` (interquartile means over the run's jobs: steady under the
//! batch's heavy-tailed audit set-up and the PRESENT-2 designs' two
//! configuration-count modes alike), `area_ge` (mean over one pass's
//! jobs), `peak_rss_mb` (the process's peak resident set during each
//! call, its high-water mark reset before the call; interquartile mean
//! over the calls, since a single heavy design would otherwise set the
//! whole run's peak) and `success_rate`.
//!
//! `--trace 1` replays each job layer by layer through the layers' public
//! functions with a span around every call ([`replay`], [`trace`]), and
//! reports per-layer self times and counts per job, the tracing overhead
//! (traced minus untraced run of the same replay) and the share of the
//! job's wall time the layer spans cover. Spans and each job's regime are
//! written to `.bench_out/trace-<workload>-<seed>.json`.
//!
//! Which end-to-end metric each per-layer metric should move:
//!
//! | per-layer | moves | on |
//! |---|---|---|
//! | `ga.*` | `job_s`, `cpu_s` | `des-lock-batch` (flat on the red-team workloads) |
//! | `merge.build_s`, `aig.script_s`, `techmap.map_standard_s` | `job_s` | `des-lock-batch` |
//! | `aig.ands` | `area_ge` | every flow workload |
//! | `techmap.map_camo_s`, `techmap.cells`, `sim.validate_s`, `flow.finish_s` | `job_s` | `present4-camo-serve` |
//! | `obfuscate.lock_s`, `obfuscate.sites`, `obfuscate.configs_log2` | `job_s` | `des-lock-batch` |
//! | `attack.plan_s`, `attack.walk_s`, `attack.work_items`, `attack.orbit_points`, `attack.unique` | `job_s` | `present4-camo-serve` |
//! | `attack.screen_build_s`, `attack.screened`, `attack.sat_free_ratio` | `job_s` | `present2-camo-redteam` |
//! | `attack.step_s`, `attack.sat_queries`, `attack.encode_s`, `sat.*` | `job_s` | `present4-camo-redteam` |
//! | `serve.*` | `job_s`, `peak_rss_mb` | `present4-camo-serve` (no change elsewhere) |

pub mod replay;
pub mod sys;
pub mod trace;
pub mod verify;
pub mod workloads;

use std::time::Instant;

use replay::Counts;
use sys::{iq_mean, median, peak_rss_mb, process_cpu_s, reset_peak_rss, Metric};
use trace::Tracer;
use workloads::{Batch, Bench, Checked, DesignSize, Redteam, Regime, Serve};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "present4-camo-serve",
    "des-lock-batch",
    "present4-camo-redteam",
    "present2-camo-redteam",
];

/// Each workload's pass is sized to take about this long on the reference
/// box (2-core Xeon at 2.1 GHz), input generation included.
pub const PASS_SECONDS: f64 = 20.0;

/// Cold set-ups timed at the start of every run (`setup_s` is their
/// median together with one more per further pass).
pub const SETUP_SAMPLES: usize = 101;

/// Netlists audited per pass of `present4-camo-redteam`.
pub const REDTEAM4_CALLS: usize = 10;
/// Netlists audited per pass of `present2-camo-redteam`.
pub const REDTEAM2_CALLS: usize = 12;
/// Doping configurations of every `present2-camo-redteam` design: five
/// camouflaged sites of 15 choices each, under the screen's 4,096 cap.
pub const PRESENT2_CONFIGS: u128 = 3375;

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time, which sets the pass count (see the crate docs).
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

/// What a run measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// End-to-end metrics, or per-layer metrics when traced.
    pub metrics: Vec<Metric>,
    /// Jobs attempted.
    pub attempted: usize,
    /// Jobs whose outputs failed a check.
    pub failed: usize,
    /// Check failures, one line each.
    pub errors: Vec<String>,
    /// Area, verdicts and witnesses of the first pass's jobs.
    pub digests: Vec<String>,
    /// Regime of the first pass's jobs.
    pub regimes: Vec<Regime>,
    /// Jobs whose regime is not the one the workload was chosen for.
    pub regime_flags: Vec<String>,
    /// Per-layer counts per job (traced runs).
    pub counts: Counts,
    /// Spans as JSON (traced runs).
    pub spans_json: Option<String>,
    /// Passes run.
    pub passes: usize,
    /// Wall time per job of every untraced call, in run order.
    pub job_walls: Vec<f64>,
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let seed = opts.seed;
    Ok(match opts.workload.as_str() {
        "present4-camo-serve" => drive(&Serve::new(seed), opts),
        "des-lock-batch" => drive(&Batch::new(seed), opts),
        "present4-camo-redteam" => drive(
            &Redteam::new(
                "present4-camo-redteam",
                4,
                REDTEAM4_CALLS,
                DesignSize::PastScreenCap,
                seed,
            ),
            opts,
        ),
        "present2-camo-redteam" => drive(
            &Redteam::new(
                "present2-camo-redteam",
                2,
                REDTEAM2_CALLS,
                DesignSize::Configs(PRESENT2_CONFIGS),
                seed,
            ),
            opts,
        ),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// Runs the passes `opts.seconds` asks for (see the crate docs).
fn drive<W: Bench>(w: &W, opts: &Options) -> Outcome {
    let n_passes = ((opts.seconds / PASS_SECONDS).floor() as usize).max(1);
    let mut setup_s = Vec::new();
    let mut timed_setup = || {
        let t0 = Instant::now();
        let ready = w.setup();
        setup_s.push(t0.elapsed().as_secs_f64());
        ready
    };
    for _ in 1..SETUP_SAMPLES {
        let ready = timed_setup();
        w.teardown(ready, &mut Counts::new());
    }

    let mut tracer = Tracer::new(opts.trace);
    let mut counts = Counts::new();
    let (mut job_s, mut cpu_s, mut rss_mb) = (Vec::new(), Vec::new(), Vec::new());
    // Tracing overhead: the first call of every pass also runs untraced.
    let (mut untraced_s, mut traced_s, mut overhead_jobs) = (0.0, 0.0, 0.0);
    let mut checked: Vec<Checked> = Vec::new();
    let mut first_pass: Vec<Checked> = Vec::new();
    for pass in 0..n_passes {
        let mut ready = timed_setup();
        // The untraced reference replays the same jobs on its own state, so
        // both see the same sessions and caches.
        let mut reference = opts.trace.then(|| w.setup());
        for call in 0..w.calls() {
            let out = if let Some(r) = reference.as_mut() {
                if call > 0 {
                    w.run_traced(&mut ready, call, &mut tracer, &mut counts)
                } else {
                    let t0 = Instant::now();
                    w.run_traced(r, call, &mut Tracer::new(false), &mut Counts::new());
                    untraced_s += t0.elapsed().as_secs_f64();
                    let t0 = Instant::now();
                    let out = w.run_traced(&mut ready, call, &mut tracer, &mut counts);
                    traced_s += t0.elapsed().as_secs_f64();
                    overhead_jobs += w.jobs_per_call() as f64;
                    out
                }
            } else {
                reset_peak_rss();
                let (c0, t0) = (process_cpu_s(), Instant::now());
                let out = w.run(&mut ready, call);
                let jobs = w.jobs_per_call() as f64;
                job_s.push(t0.elapsed().as_secs_f64() / jobs);
                cpu_s.push((process_cpu_s() - c0) / jobs);
                rss_mb.push(peak_rss_mb());
                out
            };
            let results = w.check(&ready, call, &out, pass == 0);
            if pass == 0 {
                first_pass.extend(results.iter().cloned());
            }
            checked.extend(results);
        }
        let mut pass_counts = Counts::new();
        w.teardown(ready, &mut pass_counts);
        if opts.trace {
            for (k, v) in pass_counts {
                replay::add(&mut counts, k, v);
            }
        }
        if let Some(r) = reference {
            w.teardown(r, &mut Counts::new());
        }
    }

    let attempted = checked.len();
    let errors: Vec<String> = checked
        .iter()
        .enumerate()
        .filter_map(|(i, c)| c.verdict.as_ref().err().map(|e| format!("job {i}: {e}")))
        .collect();
    let failed = errors.len();
    let regimes: Vec<Regime> = first_pass.iter().filter_map(|c| c.regime.clone()).collect();
    let mut regime_flags: Vec<String> = regimes
        .iter()
        .enumerate()
        .filter(|(_, r)| r.screen != w.expected_screen())
        .map(|(i, r)| {
            format!(
                "{} job {i} left its regime: screen {} (expected {}), {} sites, 2^{:.2} configs",
                w.name(),
                r.screen,
                w.expected_screen(),
                r.sites,
                r.configs_log2
            )
        })
        .collect();
    regime_flags.extend(w.notes());
    let n_jobs = (attempted as f64).max(1.0);
    let metrics = if opts.trace {
        for v in counts.values_mut() {
            *v /= n_jobs;
        }
        let overhead_s = (traced_s - untraced_s) / overhead_jobs.max(1.0);
        layer_metrics(&tracer, &counts, overhead_s, n_jobs)
    } else {
        let area = first_pass.iter().map(|c| c.area_ge).sum::<f64>() / first_pass.len() as f64;
        vec![
            metric("setup_s", median(&setup_s), "s"),
            metric("job_s", iq_mean(&job_s), "s"),
            metric("cpu_s", iq_mean(&cpu_s), "s"),
            metric("area_ge", area, "GE"),
            metric("peak_rss_mb", iq_mean(&rss_mb), "MB"),
            metric(
                "success_rate",
                (attempted - failed) as f64 / n_jobs,
                "ratio",
            ),
        ]
    };
    Outcome {
        metrics,
        attempted,
        failed,
        errors,
        digests: first_pass.iter().map(|c| c.digest.clone()).collect(),
        regimes,
        regime_flags,
        counts,
        spans_json: opts.trace.then(|| tracer.to_json()),
        passes: n_passes,
        job_walls: job_s,
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Per-layer metrics per job: self times from the spans, counts from the
/// replay.
fn layer_metrics(t: &Tracer, counts: &Counts, overhead_s: f64, n_jobs: f64) -> Vec<Metric> {
    let by = t.by_name();
    let own = |name: &str| by.get(name).map_or(0.0, |v| v.0) / n_jobs;
    let wall = |name: &str| by.get(name).map_or(0.0, |v| v.1) / n_jobs;
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let screened = count("attack.screened");
    let queries = count("attack.sat_queries");
    // What the service adds on top of the same phases called directly:
    // the replay minus its probe calls, which run_audit does not make.
    let overhead = if by.contains_key("serve.run_audit") {
        wall("serve.run_audit")
            - (wall("serve.replay") - wall("attack.screen_build") - wall("attack.encode"))
    } else {
        0.0
    };
    vec![
        metric("ga.search_s", own("ga.search"), "s"),
        metric(
            "ga.eval_ms",
            1e3 * ratio(own("ga.search"), count("ga.evaluations")),
            "ms",
        ),
        metric("ga.evaluations", count("ga.evaluations"), "count"),
        metric(
            "ga.failed_evaluations",
            count("ga.failed_evaluations"),
            "count",
        ),
        metric("merge.build_s", own("merge.build"), "s"),
        metric("aig.script_s", own("aig.script"), "s"),
        metric("aig.ands", count("aig.ands"), "count"),
        metric("techmap.map_standard_s", own("techmap.map_standard"), "s"),
        metric("techmap.map_camo_s", own("techmap.map_camo"), "s"),
        metric("techmap.cells", count("techmap.cells"), "count"),
        metric("sim.validate_s", own("sim.validate"), "s"),
        metric("flow.finish_s", own("flow.finish"), "s"),
        metric("obfuscate.lock_s", own("obfuscate.lock"), "s"),
        metric("obfuscate.sites", count("obfuscate.sites"), "count"),
        metric(
            "obfuscate.configs_log2",
            count("obfuscate.configs_log2"),
            "log2",
        ),
        metric("attack.plan_s", own("attack.plan"), "s"),
        metric("attack.walk_s", count("attack.walk_s"), "s"),
        metric("attack.work_items", count("attack.work_items"), "count"),
        metric("attack.orbit_points", count("attack.orbit_points"), "count"),
        metric("attack.unique", count("attack.unique"), "count"),
        metric("attack.screen_build_s", own("attack.screen_build"), "s"),
        metric("attack.screened", screened, "count"),
        metric(
            "attack.sat_free_ratio",
            ratio(screened, screened + queries),
            "ratio",
        ),
        metric("attack.step_s", own("attack.step"), "s"),
        metric("attack.sat_queries", queries, "count"),
        metric("attack.encode_s", own("attack.encode"), "s"),
        metric(
            "sat.query_us",
            1e6 * ratio(own("attack.step"), queries),
            "us",
        ),
        metric("sat.vivified", count("sat.vivified"), "count"),
        metric("sat.eliminated", count("sat.eliminated"), "count"),
        metric("sat.reductions", count("sat.reductions"), "count"),
        metric("serve.checkpoints", count("serve.checkpoints"), "count"),
        metric(
            "serve.boundary_us",
            1e6 * ratio(own("serve.boundary"), count("attack.boundaries")),
            "us",
        ),
        metric(
            "serve.checkpoint_bytes",
            count("serve.checkpoint_bytes"),
            "bytes",
        ),
        metric("serve.overhead_s", overhead, "s"),
        metric("serve.decode_s", own("serve.decode"), "s"),
        metric("serve.report_encode_s", own("serve.report_encode"), "s"),
        metric("serve.session_hits", count("serve.session_hits"), "count"),
        metric(
            "serve.session_misses",
            count("serve.session_misses"),
            "count",
        ),
        metric("serve.session_bytes", count("serve.session_bytes"), "bytes"),
        metric("trace.overhead_s", overhead_s, "s"),
        metric(
            "trace.coverage",
            1.0 - ratio(own("job"), wall("job")),
            "ratio",
        ),
    ]
}

/// Names of the per-layer metrics that are work counts: deterministic
/// for a given seed.
pub const COUNT_METRICS: [&str; 20] = [
    "ga.evaluations",
    "ga.failed_evaluations",
    "aig.ands",
    "techmap.cells",
    "obfuscate.sites",
    "obfuscate.configs_log2",
    "attack.work_items",
    "attack.orbit_points",
    "attack.unique",
    "attack.screened",
    "attack.sat_free_ratio",
    "attack.sat_queries",
    "sat.vivified",
    "sat.eliminated",
    "sat.reductions",
    "serve.checkpoints",
    "serve.checkpoint_bytes",
    "serve.session_hits",
    "serve.session_misses",
    "serve.session_bytes",
];
