//! The pipeline replayed phase by phase through each layer's public
//! functions, with a span around every call. This is how the traced run
//! sees inside `Flow::run_many` and `mvf_serve::run_audit`, which are
//! opaque from outside; `Flow::complete` and the service's audit loop
//! make the same calls in the same order.

use std::collections::BTreeMap;
use std::time::Instant;

use mvf::aig::Script;
use mvf::ga::GaConfig;
use mvf::merge::build_merged;
use mvf::netlist::{subject_graph, Netlist};
use mvf::techmap::{map_standard, CamoWitness};
use mvf::{
    EvalContext, Flow, FlowResult, Ga, MvfError, ObfuscationSpace, PinObjective,
    PlausibilityVerdict, SchemeKind, SearchStrategy,
};
use mvf_attack::{AnyIoJob, AnyIoOptions, ConfigScreen};
use mvf_logic::VectorFunction;
use mvf_obfuscate::lock_merged_netlist;
use mvf_serve::SessionStore;

use crate::trace::Tracer;

/// Per-layer work counts (and the derived `attack.walk_s` time), summed
/// over the traced jobs.
pub type Counts = BTreeMap<&'static str, f64>;

/// Adds `v` to count `name`.
pub fn add(counts: &mut Counts, name: &'static str, v: f64) {
    *counts.entry(name).or_default() += v;
}

/// Sweep items between service checkpoint boundaries
/// (`ServeConfig::sweep_chunk`'s default); the red-team step loop uses the
/// same chunk.
pub const SWEEP_CHUNK: usize = 64;

/// How the adversary's SAT-free screen ran for one audit.
pub fn screen_mode(screen: Option<&ConfigScreen>) -> &'static str {
    match screen {
        None => "stood-down",
        Some(s) if s.is_complete() => "complete",
        Some(_) => "sampling",
    }
}

/// Site count and log2 of the configuration count of an obfuscated netlist.
pub fn sites(space: &ObfuscationSpace<'_>, nl: &Netlist) -> (usize, f64) {
    let sites = space.sites(nl);
    let log2 = sites.iter().map(|&(_, n)| (n as f64).log2()).sum();
    (sites.len(), log2)
}

/// Phase II: the GA search on a fresh objective. Returns the search
/// outcome's best assignment, history and evaluation count, and the
/// failed-evaluation tally.
pub fn search(
    t: &mut Tracer,
    flow: &Flow<Ga>,
    ga: &GaConfig,
    functions: &[VectorFunction],
    counts: &mut Counts,
) -> (mvf::ga::SearchOutcome<mvf::merge::PinAssignment>, usize) {
    let cfg = flow.config();
    let objective = PinObjective::new(functions, &cfg.script, flow.library(), &cfg.map);
    let outcome = t.span("ga.search", |_| Ga::new(ga.clone()).search(&objective));
    let failed = objective.failed_evaluations();
    add(counts, "ga.evaluations", outcome.evaluations as f64);
    add(counts, "ga.failed_evaluations", failed as f64);
    (outcome, failed)
}

/// Phases I and III for a fixed assignment, as `Flow::finish_with` runs
/// them: merge, synthesis script, standard mapping, then camouflage
/// mapping or key-gate insertion, then exhaustive validation.
pub fn finish(
    t: &mut Tracer,
    flow: &Flow<Ga>,
    functions: &[VectorFunction],
    outcome: mvf::ga::SearchOutcome<mvf::merge::PinAssignment>,
    failed: usize,
    counts: &mut Counts,
) -> Result<FlowResult, MvfError> {
    t.span("flow.finish", |t| {
        let cfg = flow.config();
        let lib = flow.library();
        let script: &Script = &cfg.script;
        let mut merged = t.span("merge.build", |_| {
            build_merged(functions, &outcome.best_genome)
        })?;
        merged.aig = t.span("aig.script", |_| script.run(&merged.aig));
        add(counts, "aig.ands", merged.aig.n_ands() as f64);
        let subject = subject_graph::from_aig(&merged.aig, lib);
        let plain = t.span("techmap.map_standard", |_| {
            map_standard(&subject, lib, &cfg.map)
        })?;
        let synthesized_area_ge = plain.area_ge(lib, None);
        let mut ctx = EvalContext::new();
        let (mapped, locked) = match flow.scheme() {
            SchemeKind::Camouflage => {
                let mapped = t.span("techmap.map_camo", |_| {
                    ctx.map_camouflage(
                        &subject,
                        lib,
                        flow.camo_library(),
                        &merged.select_indices,
                        &cfg.camo_map,
                    )
                })?;
                t.span("sim.validate", |_| {
                    ctx.validate_mapped(&mapped, lib, flow.camo_library(), &merged.functions)
                })?;
                (mapped, None)
            }
            SchemeKind::Locking => {
                let locked = t.span("obfuscate.lock", |_| {
                    lock_merged_netlist(
                        &plain,
                        lib,
                        flow.choice_library(),
                        &merged.select_indices,
                        flow.lock_options(),
                    )
                })?;
                t.span("sim.validate", |_| {
                    validate_locked(flow, &locked, &merged.functions)
                })?;
                let mapped = mvf::techmap::CamoMappedCircuit {
                    netlist: locked.netlist.clone(),
                    witness: CamoWitness::default(),
                };
                (mapped, Some(locked))
            }
        };
        let space = flow.obfuscation_space();
        let (n_sites, log2) = sites(&space, &mapped.netlist);
        add(counts, "techmap.cells", mapped.netlist.n_cells() as f64);
        add(counts, "obfuscate.sites", n_sites as f64);
        add(counts, "obfuscate.configs_log2", log2);
        let mapped_area_ge = mapped.netlist.area_ge(lib, Some(flow.choice_library()));
        Ok(FlowResult {
            assignment: outcome.best_genome,
            merged,
            synthesized_area_ge,
            mapped,
            mapped_area_ge,
            locked,
            ga_history: outcome.history,
            evaluations: outcome.evaluations,
            failed_evaluations: failed,
        })
    })
}

/// The locking flow's validation: under each select key the locked
/// netlist must compute that viable function.
fn validate_locked(
    flow: &Flow<Ga>,
    locked: &mvf::LockedNetlist,
    functions: &[VectorFunction],
) -> Result<(), MvfError> {
    for (j, f) in functions.iter().enumerate() {
        let cfg = locked.config_for_key(&locked.key_for_select(j));
        let got = mvf::sim::eval_camo_netlist(
            &locked.netlist,
            flow.library(),
            flow.choice_library(),
            &cfg,
        )?;
        if let Some(output) = (0..f.n_outputs()).find(|&o| got.get(o) != Some(f.output(o))) {
            return Err(mvf::sim::ValidationError::FunctionMismatch {
                function: j,
                output,
            }
            .into());
        }
    }
    Ok(())
}

/// Where an audit gets its sweep job: cold, or from a service session.
pub enum JobSource<'s> {
    /// `AnyIoJob::new_in`: screen, plan, encode and simplify from scratch.
    Cold,
    /// `SessionStore::session_in(..).any_io_job_in(..)`, as the service's
    /// worker does; `boundaries` snapshots progress at every chunk the way
    /// the service's checkpoints do.
    Session {
        /// The store the session comes from.
        store: &'s mut SessionStore,
        /// Whether to snapshot `AnyIoJob::progress` at every boundary.
        boundaries: bool,
    },
}

/// The interpretation-freedom audit of `nl` against `candidates`, as
/// report verdicts. With
/// `probe`, the screen build and the encoding are also run and timed on
/// their own (the `attack.screen_build` and `attack.encode` spans), since
/// the sweep job performs both inside one call; the count `attack.walk_s`
/// is the plan's time minus those two. Without `probe` the audit makes
/// exactly the calls a client of the attack layer makes.
pub fn audit(
    t: &mut Tracer,
    space: &ObfuscationSpace<'_>,
    nl: &Netlist,
    candidates: &[VectorFunction],
    opts: &AnyIoOptions,
    source: JobSource<'_>,
    probe: bool,
    counts: &mut Counts,
) -> Vec<PlausibilityVerdict> {
    let (mut screen_s, mut encode_s) = (0.0, 0.0);
    if probe {
        let t0 = Instant::now();
        t.span("attack.screen_build", |_| {
            drop(ConfigScreen::build_in(
                space,
                nl,
                candidates,
                opts.screen_vectors,
            ))
        });
        let t1 = Instant::now();
        t.span("attack.encode", |_| drop(space.encode(nl)));
        screen_s = (t1 - t0).as_secs_f64();
        encode_s = t1.elapsed().as_secs_f64();
    }
    let (mut job, boundaries, plan_s) = match source {
        JobSource::Cold => {
            let t0 = Instant::now();
            let job = t.span("attack.plan", |_| {
                AnyIoJob::new_in(space, nl, candidates.to_vec(), opts)
            });
            (job, false, t0.elapsed().as_secs_f64() - encode_s)
        }
        JobSource::Session { store, boundaries } => {
            // The session holds the encoding, so the plan never encodes.
            let session = t.span("serve.session", move |_| store.session_in(space, nl));
            let t0 = Instant::now();
            let job = t.span("attack.plan", |_| {
                session.any_io_job_in(space, nl, candidates, opts)
            });
            (job, boundaries, t0.elapsed().as_secs_f64())
        }
    };
    add(counts, "attack.walk_s", (plan_s - screen_s).max(0.0));
    t.span("attack.step", |t| {
        while !job.is_done() {
            job.step(SWEEP_CHUNK);
            if boundaries && !job.is_done() {
                add(counts, "attack.boundaries", 1.0);
                t.span("serve.boundary", |_| drop(job.progress()));
            }
        }
    });
    let verdicts = job.verdicts();
    let sat = job.sat_stats();
    add(counts, "attack.work_items", job.total_work() as f64);
    for v in &verdicts {
        add(counts, "attack.orbit_points", v.orbit as f64);
        add(counts, "attack.unique", v.unique as f64);
        add(counts, "attack.screened", v.screened as f64);
        add(counts, "attack.sat_queries", v.queries as f64);
    }
    add(counts, "sat.vivified", sat.n_vivified as f64);
    add(counts, "sat.eliminated", sat.n_eliminated as f64);
    add(counts, "sat.reductions", sat.n_reductions as f64);
    PlausibilityVerdict::from_any_io(verdicts)
}
