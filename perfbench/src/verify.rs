//! Output checks against references the code under test did not produce.
//!
//! The reference for viable function `j` is the published S-box table
//! from `mvf-sboxes`, re-wired here under the job's pin assignment. The
//! obfuscated netlist is re-simulated with `mvf-sim` under the flow's
//! doping witness (camouflage) or select key (locking) and compared with
//! that reference, and every plausible verdict's witness interpretation
//! is re-checked by a screen-free identity SAT query on the transformed
//! candidate.

use std::collections::HashMap;

use mvf::merge::PinAssignment;
use mvf::{FlowResult, PlausibilityVerdict};
use mvf_attack::{plausibility_sweep_in, ObfuscationSpace, SweepOptions};
use mvf_logic::{IoInterpretation, TruthTable, VectorFunction};
use mvf_netlist::{CellId, Netlist};
use mvf_sboxes::{DES_TABLES, OPTIMAL_TABLES};

/// The published table of a 4-bit optimal S-box (`G0…G15`).
pub fn optimal_table(i: usize) -> Vec<u16> {
    OPTIMAL_TABLES[i].to_vec()
}

/// The published DES S-box `i` flattened to a 6-bit lookup table: bits 5
/// and 0 of the input pick the row, bits 4…1 the column (FIPS 46).
pub fn des_table(i: usize) -> Vec<u16> {
    (0..64usize)
        .map(|m| DES_TABLES[i][((m >> 4) & 2) | (m & 1)][(m >> 1) & 0xF])
        .collect()
}

/// `table` re-wired under one function's pin permutations: logical input
/// `v` reads wire `input_perm[v]`, logical output `o` drives wire
/// `output_perm[o]`.
pub fn rewire(table: &[u16], input_perm: &[usize], output_perm: &[usize]) -> Vec<u16> {
    (0..table.len())
        .map(|x| {
            let logical = input_perm
                .iter()
                .enumerate()
                .fold(0usize, |acc, (v, &w)| acc | (((x >> w) & 1) << v));
            let y = table[logical];
            output_perm
                .iter()
                .enumerate()
                .fold(0u16, |acc, (o, &p)| acc | (((y >> o) & 1) << p))
        })
        .collect()
}

/// The reference tables of every viable function under `assignment`.
pub fn references(tables: &[Vec<u16>], assignment: &PinAssignment) -> Vec<Vec<u16>> {
    tables
        .iter()
        .enumerate()
        .map(|(j, t)| rewire(t, &assignment.input_perms[j], &assignment.output_perms[j]))
        .collect()
}

/// `table` under an interpretation, as a lookup table.
pub fn interpret(t: &IoInterpretation, table: &[u16], n_out: usize) -> Vec<u16> {
    let f = t
        .apply(&to_function(table, n_out))
        .expect("interpretation matches the table's arity");
    (0..table.len()).map(|x| f.eval(x)).collect()
}

/// A lookup table as a function with `n_out` outputs.
pub fn to_function(table: &[u16], n_out: usize) -> VectorFunction {
    let n_in = table.len().trailing_zeros() as usize;
    VectorFunction::from_lookup_table(n_in, n_out, table).expect("reference table is well formed")
}

fn compare(outputs: &[TruthTable], reference: &[u16], what: &str) -> Result<(), String> {
    for (x, &want) in reference.iter().enumerate() {
        for (o, tt) in outputs.iter().enumerate() {
            if tt.get(x) != ((want >> o) & 1 == 1) {
                return Err(format!("{what}: output {o} differs at input {x:#x}"));
            }
        }
    }
    Ok(())
}

/// Re-simulates a flow result under each viable function's doping witness
/// or select key and compares with the references.
pub fn check_flow_result(
    space: &ObfuscationSpace<'_>,
    result: &FlowResult,
    tables: &[Vec<u16>],
) -> Result<(), String> {
    if result.failed_evaluations > 0 {
        return Err(format!(
            "{} failed fitness evaluations",
            result.failed_evaluations
        ));
    }
    let refs = references(tables, &result.assignment);
    for (j, reference) in refs.iter().enumerate() {
        let config: HashMap<CellId, TruthTable> = match &result.locked {
            Some(locked) => locked.config_for_key(&locked.key_for_select(j)),
            None => result
                .mapped
                .witness
                .cells
                .iter()
                .map(|w| (w.cell, w.function_for(j).clone()))
                .collect(),
        };
        let outs = mvf_sim::eval_camo_netlist(
            &result.mapped.netlist,
            space.library(),
            space.choices(),
            &config,
        )
        .map_err(|e| format!("function {j}: simulation failed: {e}"))?;
        compare(&outs, reference, &format!("function {j}"))?;
    }
    Ok(())
}

/// Whether `candidate` is plausible on `nl` under the identity
/// interpretation, decided by SAT alone (no screen, no inprocessing).
fn identity_query(space: &ObfuscationSpace<'_>, nl: &Netlist, candidate: VectorFunction) -> bool {
    let opts = SweepOptions {
        screen: false,
        inprocess: false,
        ..SweepOptions::default()
    };
    plausibility_sweep_in(space, nl, &[candidate], &opts)[0].plausible
}

/// Checks an any-IO verdict list: every candidate must be plausible, and
/// each witness interpretation, applied to the reference table, must pass
/// an identity query on the netlist.
pub fn check_verdicts(
    space: &ObfuscationSpace<'_>,
    nl: &Netlist,
    candidates: &[Vec<u16>],
    n_out: usize,
    verdicts: &[(bool, Option<IoInterpretation>)],
) -> Result<(), String> {
    if verdicts.len() != candidates.len() {
        return Err(format!(
            "{} verdicts for {} candidates",
            verdicts.len(),
            candidates.len()
        ));
    }
    for (j, (table, (plausible, witness))) in candidates.iter().zip(verdicts).enumerate() {
        let witness = match (plausible, witness) {
            (true, Some(w)) => w,
            _ => return Err(format!("viable function {j} was refuted")),
        };
        let transformed = witness
            .apply(&to_function(table, n_out))
            .map_err(|e| format!("function {j}: witness does not apply: {e}"))?;
        if !identity_query(space, nl, transformed) {
            return Err(format!("function {j}: witness fails its identity query"));
        }
    }
    Ok(())
}

/// [`check_verdicts`] for a flow report's verdicts, which must also hold
/// under the identity interpretation.
pub fn check_report_verdicts(
    space: &ObfuscationSpace<'_>,
    nl: &Netlist,
    refs: &[Vec<u16>],
    n_out: usize,
    verdicts: Option<&[PlausibilityVerdict]>,
) -> Result<(), String> {
    let verdicts = verdicts.ok_or("report carries no plausibility verdicts")?;
    if let Some(j) = verdicts.iter().position(|v| !v.identity) {
        return Err(format!(
            "viable function {j} is not plausible under the identity"
        ));
    }
    let pairs: Vec<_> = verdicts
        .iter()
        .map(|v| (v.any_io == Some(true), v.witness.clone()))
        .collect();
    check_verdicts(space, nl, refs, n_out, &pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_match_the_library_tables_and_permutations() {
        let present = mvf_sboxes::optimal_sbox(0);
        let des = mvf_sboxes::des_sbox(3);
        for (table, f) in [(optimal_table(0), &present), (des_table(3), &des)] {
            let n_in = f.n_inputs();
            let ip: Vec<usize> = (0..n_in).rev().collect();
            let op = vec![2, 0, 3, 1];
            let want = f.permute_inputs(&ip).unwrap().permute_outputs(&op).unwrap();
            let got = rewire(&table, &ip, &op);
            assert!(got.iter().enumerate().all(|(x, &y)| want.eval(x) == y));
        }
    }
}
