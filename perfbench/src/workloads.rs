//! The four workloads. Each is a closed loop with one client; every job
//! carries a seed derived from the benchmark seed and pins its thread
//! count, so a run at a given seed repeats the same work exactly.

use mvf::cells::{CamoLibrary, Library};
use mvf::ga::GaConfig;
use mvf::merge::PinAssignment;
use mvf::netlist::Netlist;
use mvf::{Flow, FlowConfig, Ga, ObfuscationSpace, SchemeKind, Workload};
use mvf_attack::AnyIoOptions;
use mvf_logic::{IoInterpretation, VectorFunction};
use mvf_serve::checkpoint::CheckpointPhase;
use mvf_serve::json::Value;
use mvf_serve::wire::{
    decode_netlist, decode_report_in, decode_workload, encode_netlist, encode_report_in,
    encode_workload,
};
use mvf_serve::{run_audit, AuditOutcome, AuditService, Control, ServeConfig, SessionStore};

use crate::replay::{self, add, Counts, JobSource};
use crate::sys::mix;
use crate::trace::Tracer;
use crate::verify;

/// GA population of every job.
pub const GA_POPULATION: usize = 8;
/// GA generations of every job.
pub const GA_GENERATIONS: usize = 5;

/// The regime one job ran in: what decides which layer its time goes to.
#[derive(Debug, Clone, PartialEq)]
pub struct Regime {
    /// Obfuscated sites (camouflaged cells or key gates).
    pub sites: usize,
    /// log2 of the configuration count the adversary quantifies over.
    pub configs_log2: f64,
    /// How the SAT-free screen ran: `complete`, `sampling` or `stood-down`.
    pub screen: &'static str,
    /// Interpretation orbit size per candidate.
    pub orbit: usize,
}

/// One verified job.
#[derive(Debug, Clone)]
pub struct Checked {
    /// `Ok` when every output matched its independent reference.
    pub verdict: Result<(), String>,
    /// Obfuscated area of the job's netlist (GE).
    pub area_ge: f64,
    /// Verdicts and witnesses, printed, for exact-repeat checks.
    pub digest: String,
    /// The regime the job ran in (computed on the first pass only).
    pub regime: Option<Regime>,
}

/// A workload: inputs are built from the seed before anything is timed;
/// `setup` and `run` are what the benchmark times.
pub trait Bench {
    /// Service, libraries and decoded inputs.
    type Ready;
    /// What one call produces.
    type Out;
    /// Benchmark name.
    fn name(&self) -> &'static str;
    /// Calls per pass.
    fn calls(&self) -> usize;
    /// Jobs per call (the batch workload runs several per call).
    fn jobs_per_call(&self) -> usize {
        1
    }
    /// The screen regime the workload was chosen for.
    fn expected_screen(&self) -> &'static str;
    /// Cold start until the first job can be accepted.
    fn setup(&self) -> Self::Ready;
    /// One call through the program's public entry point, untraced.
    fn run(&self, ready: &mut Self::Ready, call: usize) -> Self::Out;
    /// The same call replayed layer by layer, with spans (when `t` is on)
    /// and per-layer counts.
    fn run_traced(
        &self,
        ready: &mut Self::Ready,
        call: usize,
        t: &mut Tracer,
        counts: &mut Counts,
    ) -> Self::Out;
    /// Checks a call's outputs against independent references.
    fn check(&self, ready: &Self::Ready, call: usize, out: &Self::Out, first: bool)
        -> Vec<Checked>;
    /// Ends a pass, adding the pass's service-level counts.
    fn teardown(&self, ready: Self::Ready, counts: &mut Counts);
    /// Anything about the inputs a reader of the results should know.
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

fn ga_config(seed: u64) -> GaConfig {
    GaConfig {
        population: GA_POPULATION,
        generations: GA_GENERATIONS,
        seed,
        threads: 1,
        ..GaConfig::default()
    }
}

fn flow_config() -> FlowConfig {
    FlowConfig {
        ga: ga_config(0),
        ..FlowConfig::default()
    }
}

/// The flow a job with this seed runs.
fn flow(scheme: SchemeKind, seed: u64) -> Flow<Ga> {
    Flow::builder()
        .ga(ga_config(seed))
        .scheme(scheme)
        .workload_threads(1)
        .build()
}

/// The adversary every workload runs: orbit walk on one serial cursor.
fn attack_options(npn: bool) -> AnyIoOptions {
    AnyIoOptions {
        shards: 1,
        npn,
        class_share: npn,
        ..AnyIoOptions::default()
    }
}

/// What a flow job produced, in the form the checks take.
pub struct Produced {
    /// The search's best assignment.
    pub assignment: PinAssignment,
    /// The obfuscated netlist.
    pub netlist: Netlist,
    /// Failed fitness evaluations.
    pub failed: usize,
    /// Obfuscated area (GE).
    pub area_ge: f64,
    /// The adversary's verdicts.
    pub verdicts: Option<Vec<mvf::PlausibilityVerdict>>,
}

impl Produced {
    fn from_report(report: &mvf::WorkloadReport) -> Result<Produced, String> {
        let r = report.result().ok_or_else(|| report.to_string())?;
        Ok(Produced {
            assignment: r.assignment.clone(),
            netlist: r.mapped.netlist.clone(),
            failed: r.failed_evaluations,
            area_ge: r.mapped_area_ge,
            verdicts: report.plausibility.clone(),
        })
    }
}

/// Checks a flow job: rebuilds the doping witness or key for the
/// produced assignment, requires the identical netlist, re-simulates each
/// viable function against the published tables, and re-checks every
/// witness.
fn check_produced(
    flow: &Flow<Ga>,
    functions: &[VectorFunction],
    tables: &[Vec<u16>],
    produced: &Result<Produced, String>,
    npn: bool,
    first: bool,
) -> Checked {
    let p = match produced {
        Ok(p) => p,
        Err(e) => {
            return Checked {
                verdict: Err(e.clone()),
                area_ge: f64::NAN,
                digest: String::new(),
                regime: None,
            }
        }
    };
    let space = flow.obfuscation_space();
    let n_out = functions[0].n_outputs();
    let verdict = (|| {
        if p.failed > 0 {
            return Err(format!("{} failed fitness evaluations", p.failed));
        }
        let rebuilt = flow
            .finish_with(functions, p.assignment.clone(), Vec::new(), 0, 0)
            .map_err(|e| format!("rebuilding the flow result failed: {e}"))?;
        let enc = |nl: &Netlist| encode_netlist(nl, space.library(), space.choices()).to_string();
        if enc(&rebuilt.mapped.netlist) != enc(&p.netlist) {
            return Err("netlist differs from the flow's for the same assignment".into());
        }
        verify::check_flow_result(&space, &rebuilt, tables)?;
        let refs = verify::references(tables, &p.assignment);
        verify::check_report_verdicts(&space, &p.netlist, &refs, n_out, p.verdicts.as_deref())
    })();
    let regime = first.then(|| regime(&space, &p.netlist, functions, npn));
    Checked {
        verdict,
        area_ge: p.area_ge,
        digest: format!("{:?} {:?}", p.area_ge, p.verdicts),
        regime,
    }
}

fn regime(
    space: &ObfuscationSpace<'_>,
    nl: &Netlist,
    candidates: &[VectorFunction],
    npn: bool,
) -> Regime {
    let (sites, configs_log2) = replay::sites(space, nl);
    let screen = mvf_attack::ConfigScreen::build_in(
        space,
        nl,
        candidates,
        mvf_attack::DEFAULT_SCREEN_VECTORS,
    );
    let (n_in, n_out) = (candidates[0].n_inputs(), candidates[0].n_outputs());
    let fact = |n: usize| (1..=n).product::<usize>();
    let polarity = if npn { 1usize << (n_in + n_out) } else { 1 };
    Regime {
        sites,
        configs_log2,
        screen: replay::screen_mode(screen.as_ref()),
        orbit: fact(n_in) * fact(n_out) * polarity,
    }
}

// ---------------------------------------------------------------------------

/// `present4-camo-serve`: PRESENT x4 under camouflage, submitted through
/// the in-process service's line protocol, audited by the NPN +
/// class-share adversary.
pub struct Serve {
    cfg: ServeConfig,
    /// Request lines, one per call.
    lines: Vec<String>,
    functions: Vec<VectorFunction>,
    tables: Vec<Vec<u16>>,
    check_flows: Vec<Flow<Ga>>,
}

/// Jobs submitted in one pass: three distinct workloads, then a
/// resubmission of the first, which the service answers from its warm
/// session.
const SERVE_ORDER: [usize; 4] = [0, 1, 2, 0];

impl Serve {
    /// Builds the request lines from the seed.
    pub fn new(seed: u64) -> Serve {
        let functions = mvf_sboxes::optimal_sboxes()[..4].to_vec();
        let seeds: Vec<u64> = (0..3).map(|i| mix(seed, 0x5E4E + i)).collect();
        let lines = SERVE_ORDER
            .iter()
            .enumerate()
            .map(|(k, &i)| {
                let workload = Workload::new("PRESENT x4", functions.clone()).with_seed(seeds[i]);
                Value::Obj(vec![
                    ("cmd".into(), Value::str("submit")),
                    ("id".into(), Value::str(format!("job-{k}"))),
                    ("wait".into(), Value::Bool(true)),
                    ("workload".into(), encode_workload(&workload)),
                ])
                .to_string()
            })
            .collect();
        let cfg = ServeConfig {
            flow: flow_config(),
            attack_npn: true,
            attack_class_share: true,
            ..ServeConfig::default()
        };
        Serve {
            cfg,
            lines,
            tables: (0..4).map(verify::optimal_table).collect(),
            check_flows: SERVE_ORDER
                .iter()
                .map(|&i| flow(SchemeKind::Camouflage, seeds[i]))
                .collect(),
            functions,
        }
    }
}

/// The service plus the client's libraries; in traced passes, the
/// sessions the direct `run_audit` calls and the replay keep.
pub struct ServeReady {
    svc: AuditService,
    lib: Library,
    camo: CamoLibrary,
    served: SessionStore,
    replayed: SessionStore,
}

impl Bench for Serve {
    type Ready = ServeReady;
    type Out = Result<Produced, String>;

    fn name(&self) -> &'static str {
        "present4-camo-serve"
    }

    fn calls(&self) -> usize {
        self.lines.len()
    }

    fn expected_screen(&self) -> &'static str {
        "stood-down"
    }

    fn setup(&self) -> ServeReady {
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        ServeReady {
            svc: AuditService::start(self.cfg.clone()),
            lib,
            camo,
            served: SessionStore::new(self.cfg.session_cache_bytes),
            replayed: SessionStore::new(self.cfg.session_cache_bytes),
        }
    }

    fn run(&self, ready: &mut ServeReady, call: usize) -> Self::Out {
        let response = ready.svc.handle(&self.lines[call]);
        let v = Value::parse(&response).map_err(|e| format!("bad response: {e}"))?;
        let report = v
            .get("report")
            .ok_or_else(|| format!("no report in response: {response}"))?;
        let space = ObfuscationSpace::camouflage(&ready.lib, &ready.camo);
        let r = decode_report_in(&space, report).map_err(|e| format!("bad report: {e}"))?;
        let ok = r.ok.ok_or_else(|| format!("job failed: {}", r.summary))?;
        Ok(Produced {
            assignment: ok.assignment,
            netlist: ok.netlist,
            failed: ok.failed_evaluations,
            area_ge: ok.mapped_area_ge,
            verdicts: r.plausibility,
        })
    }

    fn run_traced(
        &self,
        ready: &mut ServeReady,
        call: usize,
        t: &mut Tracer,
        counts: &mut Counts,
    ) -> Self::Out {
        let line = &self.lines[call];
        let cfg = &self.cfg;
        let space = ObfuscationSpace::camouflage(&ready.lib, &ready.camo);
        t.start_job();
        let (produced, last) = t
            .span("job", |t| {
                let workload = t.span("serve.decode", |_| {
                    let v = Value::parse(line).map_err(|e| e.to_string())?;
                    let w = v.get("workload").ok_or("no workload")?;
                    decode_workload(w).map_err(|e| e.to_string())
                })?;
                let seed = workload.seed.ok_or("workload seed is not pinned")?;
                let mut checkpoints = 0usize;
                let mut last = None;
                let outcome = t.span("serve.run_audit", |t| {
                    let mut mark = std::time::Instant::now();
                    run_audit(cfg, &workload, seed, Some(&mut ready.served), &mut |cp| {
                        let now = std::time::Instant::now();
                        let name = match cp.phase {
                            CheckpointPhase::Ga(_) => "serve.ga_generation",
                            CheckpointPhase::Sweep { .. } => "serve.sweep_chunk",
                        };
                        t.record(name, mark, now);
                        mark = now;
                        checkpoints += 1;
                        // The service's worker keeps a copy of the latest checkpoint.
                        last = Some(cp.clone());
                        Control::Continue
                    })
                });
                add(counts, "serve.checkpoints", checkpoints as f64);
                let report = match outcome {
                    AuditOutcome::Finished { report, .. } => report,
                    AuditOutcome::Paused(_) => return Err("audit paused".to_string()),
                };
                t.span("serve.report_encode", |_| {
                    drop(encode_report_in(&space, &report).to_string())
                });
                let served = Produced::from_report(&report)?;

                // The same phases through direct calls.
                let replayed = t.span("serve.replay", |t| {
                    let flow = &self.check_flows[call];
                    let (outcome, failed) =
                        replay::search(t, flow, &ga_config(seed), &workload.functions, counts);
                    let result =
                        replay::finish(t, flow, &workload.functions, outcome, failed, counts)
                            .map_err(|e| e.to_string())?;
                    let audit = replay::audit(
                        t,
                        &space,
                        &result.mapped.netlist,
                        &result.merged.functions,
                        &attack_options(true),
                        JobSource::Session {
                            store: &mut ready.replayed,
                            boundaries: true,
                        },
                        true,
                        counts,
                    );
                    Ok::<_, String>((result, audit))
                })?;
                let (result, audit) = replayed;
                let enc = |nl: &Netlist| encode_netlist(nl, &ready.lib, &ready.camo).to_string();
                if enc(&result.mapped.netlist) != enc(&served.netlist)
                    || Some(&audit) != served.verdicts.as_ref()
                {
                    return Err("the replay disagrees with run_audit".to_string());
                }
                Ok((served, last))
            })
            .map_or_else(|e: String| (Err(e), None), |(p, l)| (Ok(p), l));
        if let Some(cp) = last {
            add(
                counts,
                "serve.checkpoint_bytes",
                cp.to_value().to_string().len() as f64,
            );
        }
        produced
    }

    fn check(&self, _: &ServeReady, call: usize, out: &Self::Out, first: bool) -> Vec<Checked> {
        vec![check_produced(
            &self.check_flows[call],
            &self.functions,
            &self.tables,
            out,
            true,
            first,
        )]
    }

    fn teardown(&self, ready: ServeReady, counts: &mut Counts) {
        let ServeReady { svc, served, .. } = ready;
        svc.shutdown_and_join();
        add(counts, "serve.session_hits", served.hits() as f64);
        add(counts, "serve.session_misses", served.misses() as f64);
        add(counts, "serve.session_bytes", served.bytes() as f64);
    }
}

// ---------------------------------------------------------------------------

/// `des-lock-batch`: designer batches through `Flow::run_many` under
/// logic locking with a P-freedom audit, at two workload threads. One call
/// is one batch (DES x2, DES x2 with a second seed, DES x4); a pass runs
/// [`BATCHES`] batches with distinct seeds, because the audit's set-up cost
/// is heavy-tailed across designs.
pub struct Batch {
    /// Per batch: the wire-encoded workloads.
    lines: Vec<Vec<String>>,
    /// Per batch and workload: the published tables and the checking flow.
    checks: Vec<Vec<(Vec<Vec<u16>>, Flow<Ga>)>>,
}

/// Workload threads of the batch: the two cores of the reference box.
pub const BATCH_THREADS: usize = 2;
/// Batches per pass.
pub const BATCHES: usize = 5;

impl Batch {
    /// Builds the batches from the seed.
    pub fn new(seed: u64) -> Batch {
        let des = mvf_sboxes::des_sboxes();
        let sizes = [2usize, 2, 4];
        let mut lines = Vec::new();
        let mut checks = Vec::new();
        for b in 0..BATCHES as u64 {
            let seeds: Vec<u64> = (0..sizes.len() as u64)
                .map(|i| mix(seed, 0xDE5_0000 + 16 * b + i))
                .collect();
            lines.push(
                sizes
                    .iter()
                    .zip(&seeds)
                    .map(|(&n, &s)| {
                        let w = Workload::new(format!("DES x{n}"), des[..n].to_vec()).with_seed(s);
                        encode_workload(&w).to_string()
                    })
                    .collect(),
            );
            checks.push(
                sizes
                    .iter()
                    .zip(&seeds)
                    .map(|(&n, &s)| {
                        let tables = (0..n).map(verify::des_table).collect();
                        (tables, flow(SchemeKind::Locking, s))
                    })
                    .collect(),
            );
        }
        Batch { lines, checks }
    }
}

/// The flow and the decoded batches.
pub struct BatchReady {
    flow: Flow<Ga>,
    batches: Vec<Vec<Workload>>,
}

impl Bench for Batch {
    type Ready = BatchReady;
    type Out = Vec<Result<Produced, String>>;

    fn name(&self) -> &'static str {
        "des-lock-batch"
    }

    fn calls(&self) -> usize {
        self.lines.len()
    }

    fn jobs_per_call(&self) -> usize {
        self.lines[0].len()
    }

    fn expected_screen(&self) -> &'static str {
        "complete"
    }

    fn setup(&self) -> BatchReady {
        let batches = self
            .lines
            .iter()
            .map(|batch| {
                batch
                    .iter()
                    .map(|l| {
                        decode_workload(&Value::parse(l).expect("benchmark input is valid JSON"))
                            .expect("benchmark input is a valid workload")
                    })
                    .collect()
            })
            .collect();
        let flow = Flow::builder()
            .config(flow_config())
            .scheme(SchemeKind::Locking)
            .workload_threads(BATCH_THREADS)
            .attack_sweep(true)
            .attack_interpretation_freedom(true)
            .attack_shards(1)
            .build();
        BatchReady { flow, batches }
    }

    fn run(&self, ready: &mut BatchReady, call: usize) -> Self::Out {
        ready
            .flow
            .run_many(&ready.batches[call])
            .iter()
            .map(Produced::from_report)
            .collect()
    }

    fn run_traced(
        &self,
        ready: &mut BatchReady,
        call: usize,
        t: &mut Tracer,
        counts: &mut Counts,
    ) -> Self::Out {
        ready.batches[call]
            .iter()
            .enumerate()
            .map(|(i, w)| {
                t.start_job();
                t.span("job", |t| {
                    let seed = w.seed.ok_or("workload seed is not pinned")?;
                    let flow = &self.checks[call][i].1;
                    let (outcome, failed) =
                        replay::search(t, flow, &ga_config(seed), &w.functions, counts);
                    let result = replay::finish(t, flow, &w.functions, outcome, failed, counts)
                        .map_err(|e| e.to_string())?;
                    let audit = replay::audit(
                        t,
                        &flow.obfuscation_space(),
                        &result.mapped.netlist,
                        &result.merged.functions,
                        &attack_options(false),
                        JobSource::Cold,
                        true,
                        counts,
                    );
                    Ok(Produced {
                        assignment: result.assignment,
                        netlist: result.mapped.netlist,
                        failed: result.failed_evaluations,
                        area_ge: result.mapped_area_ge,
                        verdicts: Some(audit),
                    })
                })
            })
            .collect()
    }

    fn check(&self, ready: &BatchReady, call: usize, out: &Self::Out, first: bool) -> Vec<Checked> {
        out.iter()
            .enumerate()
            .map(|(i, p)| {
                let (tables, flow) = &self.checks[call][i];
                check_produced(
                    flow,
                    &ready.batches[call][i].functions,
                    tables,
                    p,
                    false,
                    first,
                )
            })
            .collect()
    }

    fn teardown(&self, _: BatchReady, _: &mut Counts) {}
}

// ---------------------------------------------------------------------------

/// `present4-camo-redteam` / `present2-camo-redteam`: the adversary audits
/// flow-built camouflaged netlists against the PRESENT-class S-boxes.
///
/// Each S-box is handed to the adversary under the fixed interpretation
/// [`presented_pins`] relative to the design's wiring, so the true
/// interpretation sits at the same orbit position for every seed and the
/// walk up to it is the same length. (In published pin order that position
/// is uniform over the orbit and the attack effort per design varies by
/// about a third from seed to seed.)
pub struct Redteam {
    name: &'static str,
    expected_screen: &'static str,
    /// Wire-encoded netlists, one per call.
    lines: Vec<String>,
    /// Per call: the candidates, and their independent reference tables.
    candidates: Vec<(Vec<VectorFunction>, Vec<Vec<u16>>)>,
    /// Input checks and areas of the flow results that made the netlists.
    inputs: Vec<(Result<(), String>, f64)>,
    /// Designs drawn from the seed and skipped as of another size.
    skipped: usize,
}

/// How a red-team candidate's pins relate to the design's: the adversary
/// is given `presented_pins().inverse()` applied to each designed viable
/// function, so applying `presented_pins()` recovers it.
pub fn presented_pins() -> IoInterpretation {
    IoInterpretation {
        in_perm: vec![0, 3, 1, 2],
        in_neg: 0b0110,
        out_perm: vec![3, 1, 0, 2],
        out_neg: 0b1001,
    }
}

/// The design size a red-team workload is defined at.
#[derive(Debug, Clone, Copy)]
pub enum DesignSize {
    /// Exactly this many doping configurations (at most the screen's
    /// enumeration cap, so the screen is complete).
    Configs(u128),
    /// More configurations than the screen enumerates: it stands down.
    PastScreenCap,
}

impl DesignSize {
    fn admits(self, configs: u128) -> bool {
        match self {
            DesignSize::Configs(c) => configs == c,
            DesignSize::PastScreenCap => configs > mvf_attack::screen::MAX_SCREEN_CONFIGS as u128,
        }
    }
}

impl Redteam {
    /// `n` merged S-boxes, `calls` netlists built from the seed. Designs
    /// are drawn from the seed in order and one not of the workload's
    /// [`DesignSize`] is skipped and counted (at most `4 * calls` of them),
    /// so every seed audits designs of the same size.
    pub fn new(name: &'static str, n: usize, calls: usize, size: DesignSize, seed: u64) -> Redteam {
        let sboxes = mvf_sboxes::optimal_sboxes()[..n].to_vec();
        let published: Vec<Vec<u16>> = (0..n).map(verify::optimal_table).collect();
        let n_out = sboxes[0].n_outputs();
        let hide = presented_pins().inverse();
        let mut lines = Vec::new();
        let mut candidates = Vec::new();
        let mut inputs = Vec::new();
        let mut skipped = 0;
        for i in 0.. {
            if lines.len() == calls {
                break;
            }
            let f = flow(SchemeKind::Camouflage, mix(seed, 0x7EA + i as u64));
            let result = f
                .run(&sboxes)
                .expect("the flow builds the red-team netlist");
            let space = f.obfuscation_space();
            let configs: u128 = space
                .sites(&result.mapped.netlist)
                .iter()
                .map(|&(_, k)| k as u128)
                .product();
            if !size.admits(configs) && skipped < 4 * calls {
                skipped += 1;
                continue;
            }
            inputs.push((
                verify::check_flow_result(&space, &result, &published),
                result.mapped_area_ge,
            ));
            lines.push(
                encode_netlist(&result.mapped.netlist, f.library(), f.camo_library()).to_string(),
            );
            let tables: Vec<Vec<u16>> = verify::references(&published, &result.assignment)
                .iter()
                .map(|t| verify::interpret(&hide, t, n_out))
                .collect();
            let functions = tables
                .iter()
                .map(|t| verify::to_function(t, n_out))
                .collect();
            candidates.push((functions, tables));
        }
        Redteam {
            name,
            expected_screen: match size {
                DesignSize::Configs(_) => "complete",
                DesignSize::PastScreenCap => "stood-down",
            },
            lines,
            candidates,
            inputs,
            skipped,
        }
    }

    fn audit(
        &self,
        ready: &RedteamReady,
        call: usize,
        t: &mut Tracer,
        counts: &mut Counts,
        probe: bool,
    ) -> Vec<mvf::PlausibilityVerdict> {
        let space = ObfuscationSpace::camouflage(&ready.lib, &ready.camo);
        t.start_job();
        t.span("job", |t| {
            replay::audit(
                t,
                &space,
                &ready.netlists[call],
                &self.candidates[call].0,
                &attack_options(true),
                JobSource::Cold,
                probe,
                counts,
            )
        })
    }
}

/// Libraries and decoded netlists.
pub struct RedteamReady {
    lib: Library,
    camo: CamoLibrary,
    netlists: Vec<Netlist>,
}

impl Bench for Redteam {
    type Ready = RedteamReady;
    type Out = Vec<mvf::PlausibilityVerdict>;

    fn name(&self) -> &'static str {
        self.name
    }

    fn calls(&self) -> usize {
        self.lines.len()
    }

    fn expected_screen(&self) -> &'static str {
        self.expected_screen
    }

    fn setup(&self) -> RedteamReady {
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        let netlists = self
            .lines
            .iter()
            .map(|l| {
                let v = Value::parse(l).expect("benchmark input is valid JSON");
                decode_netlist(&v, &lib, &camo).expect("benchmark input is a valid netlist")
            })
            .collect();
        RedteamReady {
            lib,
            camo,
            netlists,
        }
    }

    fn run(&self, ready: &mut RedteamReady, call: usize) -> Vec<mvf::PlausibilityVerdict> {
        self.audit(
            ready,
            call,
            &mut Tracer::new(false),
            &mut Counts::new(),
            false,
        )
    }

    fn run_traced(
        &self,
        ready: &mut RedteamReady,
        call: usize,
        t: &mut Tracer,
        counts: &mut Counts,
    ) -> Vec<mvf::PlausibilityVerdict> {
        self.audit(ready, call, t, counts, true)
    }

    fn check(
        &self,
        ready: &RedteamReady,
        call: usize,
        out: &Vec<mvf::PlausibilityVerdict>,
        first: bool,
    ) -> Vec<Checked> {
        let space = ObfuscationSpace::camouflage(&ready.lib, &ready.camo);
        let nl = &ready.netlists[call];
        let (input_ok, area_ge) = &self.inputs[call];
        let pairs: Vec<_> = out
            .iter()
            .map(|v| (v.any_io == Some(true), v.witness.clone()))
            .collect();
        let (functions, tables) = &self.candidates[call];
        let n_out = functions[0].n_outputs();
        let verdict = input_ok
            .clone()
            .and_then(|()| verify::check_verdicts(&space, nl, tables, n_out, &pairs));
        vec![Checked {
            verdict,
            area_ge: *area_ge,
            digest: format!("{area_ge:?} {out:?}"),
            regime: first.then(|| regime(&space, nl, functions, true)),
        }]
    }

    fn teardown(&self, _: RedteamReady, _: &mut Counts) {}

    fn notes(&self) -> Vec<String> {
        (self.skipped > 0)
            .then(|| {
                format!(
                    "{}: skipped {} designs of another size",
                    self.name, self.skipped
                )
            })
            .into_iter()
            .collect()
    }
}
