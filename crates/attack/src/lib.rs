//! The adversary of the paper's §I: plausibility testing of viable
//! functions against a camouflaged netlist.
//!
//! The attacker has imaged the delayered chip, identified every cell
//! (including the camouflaged look-alikes and their plausible-function
//! sets) and knows a list of viable functions. For each viable function
//! she asks: *is there a doping configuration under which the circuit
//! implements it?* — an ∃∀ query (ref. \[14\]'s QBF formulation) decided
//! here by input-unrolled SAT over the configuration selectors
//! ([`is_plausible`]).
//!
//! Because the designer is also free to permute I/O pins — and to route
//! any pin through an inverter — the adversary must consider a function
//! plausible if **some** input/output interpretation works
//! ([`is_plausible_any_io`]). At scale that search runs as
//! [`plausibility_sweep_any_io`] / [`plausibility_sweep_any_io_sharded`]:
//! one encoding, a lazily enumerated interpretation orbit pruned by
//! canonical candidate signatures (pin symmetries collapse whole
//! interpretation classes to one query), and the surviving queries
//! striped over cloned solvers — with verdicts and witness
//! interpretations bit-identical for every shard count. The orbit is the
//! permutation group `n_in!·n_out!` by default and the full NPN group
//! `n_in!·2^n_in·n_out!·2^n_out` with [`AnyIoOptions::npn`]; with
//! [`AnyIoOptions::class_share`] the batch is additionally grouped into
//! NPN classes so orbit functions shared between candidates are screened
//! and SAT-queried once per batch instead of once per candidate.
//!
//! Every sweep runs behind a **screen-then-solve funnel** ([`screen`]
//! module): one word-parallel batch evaluation of the netlist over all
//! enumerable doping configurations refutes the obvious chaff — and, when
//! the batch covers every minterm, confirms witnesses — before a single
//! SAT query is issued. Screening never changes a verdict or a witness,
//! only the [`AnyIoVerdict::queries`] count; [`AnyIoVerdict::screened`]
//! reports how much the solver never saw.
//!
//! [`random_camouflage`] builds the paper's strawman — camouflage every
//! gate of a single-function circuit — whose plausible set, while
//! exponentially large, almost never contains the *other* viable
//! functions. The integration tests demonstrate exactly that separation.
//!
//! # Example
//!
//! ```
//! use mvf_attack::{is_plausible, random_camouflage};
//! use mvf_cells::{CamoLibrary, Library};
//! use mvf_sboxes::optimal_sboxes;
//!
//! let lib = Library::standard();
//! let camo = CamoLibrary::from_library(&lib);
//! let f0 = &optimal_sboxes()[0];
//! let circuit = random_camouflage(f0, &lib, &camo)?;
//! // The true function is always plausible for its own camouflaged
//! // netlist.
//! assert!(is_plausible(&circuit, &lib, &camo, f0));
//! # Ok::<(), mvf_attack::AttackError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod screen;
pub mod session;

pub use screen::{CamoScreen, ConfigScreen, DEFAULT_SCREEN_VECTORS};
use screen::{OrbitScreenScratch, ScreenOutcome};
pub use session::{AnyIoJob, AnyIoProgress, SweepSession};

pub use mvf_obfuscate::{ObfuscationSpace, SchemeKind};
pub use mvf_sat::SimplifyStats;

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

use mvf_cells::{CamoLibrary, Library};
use mvf_logic::npn::{NegationMasks, Permutations};
use mvf_logic::{IoInterpretation, VectorFunction};
use mvf_netlist::{CellRef, Netlist};
use mvf_sat::{Lit, Solver, Var};

/// Rebuilds `out` with the assumptions forcing the encoded circuit to
/// equal `candidate` on every input row: output `o` of row `m` is pinned
/// to bit `o` of `candidate(m)`. Shared by every plausibility query so
/// the encoding contract lives in one place.
pub(crate) fn candidate_assumptions(
    row_outputs: &[Vec<Var>],
    candidate: &VectorFunction,
    out: &mut Vec<Lit>,
) {
    out.clear();
    for (m, row) in row_outputs.iter().enumerate() {
        let want = candidate.eval(m);
        for (o, &v) in row.iter().enumerate() {
            out.push(Lit::with_polarity(v, (want >> o) & 1 == 1));
        }
    }
}

/// Errors from attack-model construction.
#[derive(Debug)]
#[non_exhaustive]
pub enum AttackError {
    /// Building the reference circuit failed.
    Build(String),
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::Build(e) => write!(f, "building attack target failed: {e}"),
        }
    }
}

impl Error for AttackError {}

/// Decides whether `candidate` is plausible for the camouflaged netlist
/// under the *fixed* (identity) pin interpretation: does some doping
/// configuration make the circuit equal `candidate` on every input?
///
/// Routed through the sweep machinery ([`plausibility_sweep`]) so the
/// single-candidate helper shares the batched path's encoding contract
/// and screen-then-solve funnel instead of re-implementing them.
///
/// # Panics
///
/// Panics if the candidate's shape does not match the netlist.
pub fn is_plausible(
    nl: &Netlist,
    lib: &Library,
    camo: &CamoLibrary,
    candidate: &VectorFunction,
) -> bool {
    plausibility_sweep(nl, lib, camo, std::slice::from_ref(candidate))[0]
}

/// Decides plausibility under the paper's interpretation freedom: the
/// adversary does not know which wire carries which logical signal, so
/// `candidate` is plausible if it is plausible under **some** input and
/// output permutation.
///
/// This is the single-candidate form of [`plausibility_sweep_any_io`]:
/// one encoding, a lazily enumerated `(in_perm, out_perm)` orbit pruned
/// by canonical candidate signatures, and incremental SAT calls for the
/// surviving representatives.
///
/// # Panics
///
/// Panics if the candidate's shape does not match the netlist, or if
/// the `n_in!·n_out!` orbit overflows the sweep's `u32` indices (the
/// enumeration is exhaustive, so far smaller orbits are the practical
/// limit anyway).
pub fn is_plausible_any_io(
    nl: &Netlist,
    lib: &Library,
    camo: &CamoLibrary,
    candidate: &VectorFunction,
) -> bool {
    plausibility_sweep_any_io(nl, lib, camo, std::slice::from_ref(candidate))[0].plausible
}

/// Options for the interpretation-freedom sweep
/// ([`plausibility_sweep_any_io_with`]).
#[derive(Debug, Clone)]
pub struct AnyIoOptions {
    /// Worker shards striping the permutation space over
    /// [`mvf_sat::Solver::clone_db`] clones. `0` uses the available
    /// hardware parallelism; `<= 1` runs serially. Verdicts and witness
    /// permutations are bit-identical for every value.
    pub shards: usize,
    /// Prunes the orbit with canonical candidate signatures: two
    /// permutation pairs yielding the same permuted truth-table vector
    /// are queried once (the first pair in enumeration order represents
    /// the whole class, so a refutation of the representative refutes
    /// every member). Never changes a verdict or a witness; `false` is
    /// the brute-force baseline for tests and benches.
    pub prune: bool,
    /// Runs the SAT-free screen in front of the solver
    /// ([`CamoScreen`]): one word-parallel batch evaluation over all
    /// enumerable doping configurations refutes (and, in the complete
    /// regime, confirms) orbit representatives before any SAT query.
    /// Never changes a verdict or a witness; automatically stands down
    /// when the configuration product is too large to enumerate.
    pub screen: bool,
    /// Screening batch size (normalized to a power of two in
    /// `64 ..= 2^16`); when the batch covers every input minterm the
    /// screen is exact. Larger batches refute more chaff per build at
    /// higher screening cost. Defaults to [`DEFAULT_SCREEN_VECTORS`].
    pub screen_vectors: usize,
    /// Freezes the encoding's interface and runs
    /// [`mvf_sat::Solver::simplify`] (vivification + bounded variable
    /// elimination) once after encoding, so every query of the orbit
    /// amortizes the simplified clause database. Never changes a
    /// verdict or a witness (verdicts are mathematically determined);
    /// `false` is the unsimplified baseline for tests and benches.
    pub inprocess: bool,
    /// Extends the interpretation orbit from the permutation subgroup
    /// (`n_in!·n_out!`) to the full NPN group
    /// (`n_in!·2^n_in·n_out!·2^n_out`): the adversary also considers
    /// every input/output polarity flip. Polarity points are enumerated
    /// in Gray-code order as in-place single-bit flips, and the screen
    /// handles them as XOR masks on its cached word-parallel batches, so
    /// the walk stays allocation-free and SAT-free up front. Witnesses
    /// remain the orbit-minimal satisfying index (identity first).
    pub npn: bool,
    /// Shares orbit work across the candidate batch by NPN/P class:
    /// candidates that are interpretations of one another walk the same
    /// set of orbit *functions*, so each distinct function is screened
    /// once and SAT-queried once per batch, with verdicts served from a
    /// shared cache afterwards. Verdicts and witnesses are identical to
    /// the unshared sweep (every candidate still walks its own orbit
    /// order); only `queries`/`screened` drop — by about the class
    /// duplication factor. Requires `prune` (ignored without it).
    pub class_share: bool,
}

impl Default for AnyIoOptions {
    fn default() -> Self {
        AnyIoOptions {
            shards: 1,
            prune: true,
            screen: true,
            screen_vectors: DEFAULT_SCREEN_VECTORS,
            inprocess: true,
            npn: false,
            class_share: false,
        }
    }
}

/// The per-candidate result of an interpretation-freedom sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnyIoVerdict {
    /// Whether some input/output interpretation makes the candidate
    /// plausible.
    pub plausible: bool,
    /// The witness interpretation when plausible: the orbit-minimal
    /// point (input permutation major; see the orbit layout on
    /// [`AnyIoOptions::npn`]) under which [`is_plausible`] holds for the
    /// transformed candidate. Both polarity masks are `0` when the sweep
    /// runs on the permutation subgroup. Deterministic for every shard
    /// count and for class sharing on/off.
    pub witness: Option<IoInterpretation>,
    /// Size of the full interpretation orbit: `n_in!·n_out!`, or
    /// `n_in!·2^n_in·n_out!·2^n_out` under [`AnyIoOptions::npn`].
    pub orbit: usize,
    /// Orbit representatives after signature pruning — the queries a
    /// full refutation needs. Equals `orbit` when pruning is off or the
    /// candidate has no pin symmetries.
    pub unique: usize,
    /// Representatives the SAT-free screen settled (refuted, or — in the
    /// complete regime — confirmed as the witness) before any solver
    /// call. `0` when screening is off or stood down. Deterministic for
    /// every shard count: screening runs serially up front. Under
    /// [`AnyIoOptions::class_share`] only *fresh* classifications count;
    /// representatives served from another class member's screen result
    /// are free.
    pub screened: usize,
    /// SAT queries actually issued. For an implausible candidate this is
    /// exactly `unique - screened` (minus cache hits under
    /// [`AnyIoOptions::class_share`]); when a witness exists, early exit
    /// cuts it short and the count may vary with the shard count (the
    /// *verdict* never does).
    pub queries: usize,
    /// The candidate's interpretation-equivalence class within this
    /// batch (dense ids in first-appearance order). Without
    /// [`AnyIoOptions::class_share`] every candidate is its own class.
    pub class: usize,
    /// How many candidates of this batch share [`AnyIoVerdict::class`] —
    /// the duplication factor class sharing removes.
    pub class_size: usize,
}

/// The orbit size — `n_in!·n_out!`, times `2^n_in·2^n_out` under NPN —
/// when it fits the sweep's `u32` orbit indices, `None` otherwise.
fn checked_orbit(n_in: usize, n_out: usize, npn: bool) -> Option<u64> {
    let factorial = |n: usize| (1..=n as u64).try_fold(1u64, u64::checked_mul);
    let negations = if npn {
        1u64.checked_shl(n_in as u32 + n_out as u32)?
    } else {
        1
    };
    factorial(n_in)?
        .checked_mul(factorial(n_out)?)?
        .checked_mul(negations)
        .filter(|&o| o <= u64::from(u32::MAX))
}

/// Enumerates the candidate's interpretation orbit lazily and calls
/// `visit` with every point's flat index and transformed function, in
/// index order. Returns the full orbit size.
///
/// The enumeration nests input permutation (major) → input negation →
/// output permutation → input-permuted scratch copy → output negation,
/// with both negation layers in Gray-code order: each polarity step is a
/// single in-place `flip_var`/complement on the working function, never a
/// rebuild. Input-negation steps flip variable `ip[v]` of the *permuted*
/// working copy — negating before permuting equals permuting first and
/// flipping the permuted wire. With `npn == false` both negation layers
/// degenerate to the single empty mask and the indices coincide with the
/// historical `ip_rank·n_out! + op_rank` layout. The visitor borrows the
/// walk's working copy, so nothing is allocated per point.
fn walk_orbit(
    candidate: &VectorFunction,
    npn: bool,
    mut visit: impl FnMut(u32, &VectorFunction),
) -> usize {
    let n_in = candidate.n_inputs();
    let n_out = candidate.n_outputs();
    let mut permuted_in = VectorFunction::new(0, Vec::new());
    let mut permuted = VectorFunction::new(0, Vec::new());
    let mut index = 0u32;
    let mut in_perms = Permutations::new(n_in);
    let mut in_negs = NegationMasks::new(if npn { n_in } else { 0 });
    let mut out_perms = Permutations::new(n_out);
    let mut out_negs = NegationMasks::new(if npn { n_out } else { 0 });
    while let Some(ip) = in_perms.next() {
        candidate
            .permute_inputs_into(ip, &mut permuted_in)
            .expect("orbit permutation is valid");
        in_negs.reset();
        while let Some((_, in_flip)) = in_negs.next() {
            if let Some(v) = in_flip {
                permuted_in.negate_input_assign(ip[v]);
            }
            out_perms.reset();
            while let Some(op) = out_perms.next() {
                permuted_in
                    .permute_outputs_into(op, &mut permuted)
                    .expect("orbit permutation is valid");
                out_negs.reset();
                while let Some((_, out_flip)) = out_negs.next() {
                    if let Some(o) = out_flip {
                        permuted.negate_output_assign(o);
                    }
                    visit(index, &permuted);
                    index += 1;
                }
            }
        }
    }
    index as usize
}

/// Words of an orbit key: `n_out·2^n_in` bits rounded up to whole `u64`s
/// (one word for 4×4, four for DES 6×4).
fn orbit_key_words(n_in: usize, n_out: usize) -> usize {
    (n_out << n_in).div_ceil(64).max(1)
}

/// Packs `f`'s output truth tables densely into `key` (cleared first):
/// output `o` occupies bits `o·2^n_in ..`, so a table of fewer than 6
/// inputs never straddles a word, and tables of ≥ 6 inputs are
/// word-aligned and copied as they are. Unused table bits are zero by
/// [`mvf_logic::TruthTable`]'s invariant, so for a fixed arity two
/// functions pack to equal keys iff their lookup tables are equal.
fn pack_orbit_key(f: &VectorFunction, key: &mut Vec<u64>) {
    key.clear();
    let rows = 1usize << f.n_inputs();
    if rows >= 64 {
        for t in f.outputs() {
            key.extend_from_slice(t.words());
        }
        return;
    }
    key.resize(orbit_key_words(f.n_inputs(), f.n_outputs()), 0);
    for (o, t) in f.outputs().iter().enumerate() {
        let bit = o * rows;
        key[bit / 64] |= t.words()[0] << (bit % 64);
    }
}

/// Free slot marker of [`KeyInterner`]'s slot table.
const EMPTY_SLOT: u32 = u32::MAX;

/// Interns fixed-width packed orbit keys ([`pack_orbit_key`]) as dense
/// ids in first-seen order. Keys live back to back in one flat word
/// arena (id `i` at `keys[i·width..]`); a power-of-two table of ids,
/// kept at most half full, is probed linearly from a multiplicative hash
/// of every key word. Interning allocates only when the arena or the
/// table grows.
struct KeyInterner {
    width: usize,
    keys: Vec<u64>,
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
}

impl KeyInterner {
    fn new(width: usize) -> Self {
        KeyInterner {
            width,
            keys: Vec::new(),
            slots: vec![EMPTY_SLOT; 16],
            shift: 64 - 4,
        }
    }

    fn len(&self) -> usize {
        self.keys.len() / self.width
    }

    /// Forgets every key; ids restart at 0 and the table keeps its size.
    fn clear(&mut self) {
        self.keys.clear();
        self.slots.fill(EMPTY_SLOT);
    }

    fn key(&self, id: u32) -> &[u64] {
        let at = id as usize * self.width;
        &self.keys[at..at + self.width]
    }

    fn home(&self, key: &[u64]) -> usize {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let h = key.iter().fold(0u64, |h, &w| {
            let h = (h ^ w).wrapping_mul(K);
            h ^ (h >> 32)
        });
        (h.wrapping_mul(K) >> self.shift) as usize
    }

    /// `Ok(id)` of an interned key, or `Err(slot)`: the free slot where
    /// it would go.
    fn find(&self, key: &[u64]) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(key);
        loop {
            match self.slots[slot] {
                EMPTY_SLOT => return Err(slot),
                id if self.key(id) == key => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    fn get(&self, key: &[u64]) -> Option<u32> {
        self.find(key).ok()
    }

    /// The key's id and whether it was fresh (assigned `len()` now).
    fn intern(&mut self, key: &[u64]) -> (u32, bool) {
        let slot = match self.find(key) {
            Ok(id) => return (id, false),
            Err(slot) => slot,
        };
        let id = self.len() as u32;
        self.keys.extend_from_slice(key);
        self.slots[slot] = id;
        if 2 * self.len() > self.slots.len() {
            self.shift -= 1;
            self.slots = vec![EMPTY_SLOT; self.slots.len() * 2];
            for id in 0..self.len() as u32 {
                let slot = self.find(self.key(id)).expect_err("ids are distinct");
                self.slots[slot] = id;
            }
        }
        (id, true)
    }
}

/// One representative (as a bare flat orbit index) per distinct
/// transformed function, in enumeration order, plus the full orbit size.
#[cfg(test)]
fn orbit_representatives(candidate: &VectorFunction, prune: bool, npn: bool) -> (Vec<u32>, usize) {
    if !prune {
        let orbit = checked_orbit(candidate.n_inputs(), candidate.n_outputs(), npn)
            .expect("orbit checked by caller") as usize;
        return ((0..orbit as u32).collect(), orbit);
    }
    let mut reps = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let orbit = walk_orbit(candidate, npn, |index, g| {
        if seen.insert(g.to_lookup_table()) {
            reps.push(index);
        }
    });
    (reps, orbit)
}

/// [`number_orbits`] as it was before the packed-key interner: every
/// orbit point's lookup-table signature keyed in a
/// `HashMap<Vec<u16>, u32>`, with a per-candidate `HashSet<u32>` of seen
/// uids. The oracle the interner must reproduce bit for bit.
#[cfg(test)]
fn reference_numbering(
    candidates: &[VectorFunction],
    n_in: usize,
    n_out: usize,
    opts: &AnyIoOptions,
) -> OrbitNumbering {
    use std::collections::{HashMap, HashSet};
    let shared = opts.class_share && opts.prune;
    let mut sig_to_uid: HashMap<Vec<u16>, u32> = HashMap::new();
    let mut uid_class: Vec<u32> = Vec::new();
    let mut n_classes = 0u32;
    let (mut all_reps, mut orbits, mut classes) = (Vec::new(), Vec::new(), Vec::new());
    for candidate in candidates {
        if !shared {
            sig_to_uid.clear();
        }
        let class = match sig_to_uid.get(&candidate.to_lookup_table()) {
            Some(&uid) if shared => uid_class[uid as usize],
            _ => {
                n_classes += 1;
                n_classes - 1
            }
        };
        classes.push(class as usize);
        let mut reps: Vec<(u32, u32)> = Vec::new();
        let orbit = if opts.prune {
            let mut local_seen: HashSet<u32> = HashSet::new();
            walk_orbit(candidate, opts.npn, |index, g| {
                let uid = *sig_to_uid.entry(g.to_lookup_table()).or_insert_with(|| {
                    uid_class.push(class);
                    uid_class.len() as u32 - 1
                });
                if local_seen.insert(uid) {
                    reps.push((index, uid));
                }
            })
        } else {
            let orbit = checked_orbit(n_in, n_out, opts.npn).unwrap() as usize;
            for index in 0..orbit as u32 {
                reps.push((index, uid_class.len() as u32));
                uid_class.push(class);
            }
            orbit
        };
        orbits.push(orbit);
        all_reps.push(reps);
    }
    OrbitNumbering {
        reps: all_reps,
        orbits,
        classes,
        n_classes: n_classes as usize,
        n_uids: uid_class.len(),
        shared,
    }
}

/// Lexicographic permutation unranking (factorial number system): rank 0
/// is the identity, rank `n! - 1` the descending permutation — exactly
/// the order [`Permutations`] streams, so ranks and stream positions
/// coincide.
fn unrank_perm(mut rank: u64, n: usize, scratch: &mut Vec<usize>, out: &mut Vec<usize>) {
    scratch.clear();
    scratch.extend(0..n);
    out.clear();
    let mut fact: u64 = (1..n as u64).product(); // (n-1)!, empty product = 1
    for i in (1..=n).rev() {
        let d = (rank / fact) as usize;
        rank %= fact;
        out.push(scratch.remove(d));
        if i > 1 {
            fact /= (i - 1) as u64;
        }
    }
}

/// Splits a flat orbit index back into its interpretation parts: fills
/// the permutations and returns the `(in_neg, out_neg)` polarity masks
/// (always `0` when `npn` is off).
///
/// The mixed-radix layout is input-permutation major,
/// `((ip_rank·2^n_in + ig_pos)·n_out! + op_rank)·2^n_out + og_pos`, with
/// both negation positions Gray-decoded (`mask = gray_code(pos)`) to
/// match [`walk_orbit`]'s in-place flips; with `npn` off both negation
/// radices are 1 and the layout degenerates to the historical
/// `ip_rank·n_out! + op_rank`.
pub(crate) fn unrank_orbit_index(
    index: u32,
    n_in: usize,
    n_out: usize,
    npn: bool,
    scratch: &mut Vec<usize>,
    in_perm: &mut Vec<usize>,
    out_perm: &mut Vec<usize>,
) -> (u32, u32) {
    let out_fact: u64 = (1..=n_out as u64).product();
    let mut rest = u64::from(index);
    let out_neg = if npn {
        let pos = rest % (1 << n_out);
        rest >>= n_out;
        mvf_logic::npn::gray_code(pos) as u32
    } else {
        0
    };
    unrank_perm(rest % out_fact, n_out, scratch, out_perm);
    rest /= out_fact;
    let in_neg = if npn {
        let pos = rest % (1 << n_in);
        rest >>= n_in;
        mvf_logic::npn::gray_code(pos) as u32
    } else {
        0
    };
    unrank_perm(rest, n_in, scratch, in_perm);
    (in_neg, out_neg)
}

/// Materializes the orbit point `(in_perm, in_neg, out_perm, out_neg)`
/// of `f` into `permuted` (using `permuted_in` as intermediate scratch),
/// allocation-free once the scratch functions are warm. The input
/// negation mask is in `f`'s pre-permutation frame, so it is applied as
/// flips of the already-permuted wires `in_perm[v]`.
pub(crate) fn apply_orbit_point(
    f: &VectorFunction,
    in_perm: &[usize],
    in_neg: u32,
    out_perm: &[usize],
    out_neg: u32,
    permuted_in: &mut VectorFunction,
    permuted: &mut VectorFunction,
) {
    f.permute_inputs_into(in_perm, permuted_in)
        .expect("orbit permutation is valid");
    let mut mask = in_neg;
    while mask != 0 {
        let v = mask.trailing_zeros() as usize;
        permuted_in.negate_input_assign(in_perm[v]);
        mask &= mask - 1;
    }
    permuted_in
        .permute_outputs_into(out_perm, permuted)
        .expect("orbit permutation is valid");
    permuted.negate_outputs_assign(out_neg);
}

/// SAT verdict of a distinct orbit function, shared across the batch
/// under class sharing: `0` unknown, `1` satisfiable, `2` unsatisfiable.
pub(crate) const UID_UNKNOWN: u8 = 0;
pub(crate) const UID_SAT: u8 = 1;
pub(crate) const UID_UNSAT: u8 = 2;

/// Answers one worker's stripe of the `(candidate, orbit index, uid)`
/// work list on `solver`. `best[c]` carries the smallest known satisfying
/// orbit index of candidate `c` (`usize::MAX` = none yet): stripes skip
/// representatives past a known witness, and because a skip requires an
/// already-found *smaller* satisfying index, the final `fetch_min` result
/// is exactly the orbit's minimal satisfying representative — for any
/// stripe count, including 1.
///
/// `resolved[uid]` is the shared SAT-verdict cache over distinct orbit
/// functions: a cache hit applies the recorded verdict (a satisfiable uid
/// still lowers `best`) without a query. Because a verdict is a
/// mathematical fact of the transformed function, a cache hit and a
/// fresh query are interchangeable — witnesses cannot move. Without
/// class sharing every uid is unique, the cache never hits, and the
/// behavior is exactly the historical per-candidate sweep.
#[allow(clippy::too_many_arguments)]
fn any_io_stripe(
    solver: &mut Solver,
    row_outputs: &[Vec<Var>],
    candidates: &[VectorFunction],
    work: &[(u32, u32, u32)],
    npn: bool,
    worker: usize,
    stride: usize,
    best: &[AtomicUsize],
    queries: &[AtomicUsize],
    resolved: &[AtomicU8],
) {
    let (mut unrank_tmp, mut in_perm, mut out_perm) = (Vec::new(), Vec::new(), Vec::new());
    let mut permuted_in = VectorFunction::new(0, Vec::new());
    let mut permuted = VectorFunction::new(0, Vec::new());
    let mut assumptions = Vec::new();
    let mut last_cand = u32::MAX;
    for &(c, index, uid) in work.iter().skip(worker).step_by(stride) {
        let cand = c as usize;
        if best[cand].load(Ordering::Relaxed) < index as usize {
            continue; // a smaller witness is already known
        }
        match resolved[uid as usize].load(Ordering::Relaxed) {
            UID_SAT => {
                best[cand].fetch_min(index as usize, Ordering::Relaxed);
                continue;
            }
            UID_UNSAT => continue,
            _ => {}
        }
        if c != last_cand {
            // Saved phases are a per-candidate heuristic; do not let one
            // candidate's UNSAT proof steer the next candidate's search.
            solver.reset_phases();
            last_cand = c;
        }
        let f = &candidates[cand];
        let (in_neg, out_neg) = unrank_orbit_index(
            index,
            f.n_inputs(),
            f.n_outputs(),
            npn,
            &mut unrank_tmp,
            &mut in_perm,
            &mut out_perm,
        );
        apply_orbit_point(
            f,
            &in_perm,
            in_neg,
            &out_perm,
            out_neg,
            &mut permuted_in,
            &mut permuted,
        );
        candidate_assumptions(row_outputs, &permuted, &mut assumptions);
        queries[cand].fetch_add(1, Ordering::Relaxed);
        let sat = solver.solve_with(&assumptions);
        resolved[uid as usize].store(if sat { UID_SAT } else { UID_UNSAT }, Ordering::Relaxed);
        if sat {
            best[cand].fetch_min(index as usize, Ordering::Relaxed);
        }
    }
}

/// Sweeps a list of viable functions against one camouflaged netlist
/// under the paper's full adversary: `result[j]` reports whether
/// `candidates[j]` is plausible under **some** input/output pin
/// interpretation, with the witness permutation when one exists.
///
/// The netlist is encoded **once**; each candidate's `(in_perm,
/// out_perm)` orbit is enumerated lazily and pruned by canonical
/// candidate signatures (permutation pairs that produce the same
/// permuted truth-table vector collapse to one query, so a refuted
/// representative rules out its entire class). The serial entry point —
/// see [`plausibility_sweep_any_io_sharded`] for the striped parallel
/// form, which is bit-identical.
///
/// # Panics
///
/// Panics if any candidate's shape does not match the netlist, or if
/// the `n_in!·n_out!` orbit overflows the sweep's `u32` indices.
pub fn plausibility_sweep_any_io(
    nl: &Netlist,
    lib: &Library,
    camo: &CamoLibrary,
    candidates: &[VectorFunction],
) -> Vec<AnyIoVerdict> {
    plausibility_sweep_any_io_with(nl, lib, camo, candidates, &AnyIoOptions::default())
}

/// [`plausibility_sweep_any_io`] striped over worker threads: the encoded
/// solver is cloned per shard ([`mvf_sat::Solver::clone_db`] — a handful
/// of `memcpy`s thanks to the flat clause arena and CSR watch pool) and
/// the surviving `(candidate, representative)` work list is striped over
/// the clones. Workers share per-candidate witness bounds, so
/// representatives past a known witness are skipped cooperatively, and
/// results are stitched as the orbit-minimal satisfying index — verdicts
/// **and** witness permutations are bit-identical for every shard count.
///
/// `shards = 0` uses the available hardware parallelism; `shards <= 1`
/// runs the serial sweep.
///
/// # Panics
///
/// Panics if any candidate's shape does not match the netlist, or if
/// the `n_in!·n_out!` orbit overflows the sweep's `u32` indices.
pub fn plausibility_sweep_any_io_sharded(
    nl: &Netlist,
    lib: &Library,
    camo: &CamoLibrary,
    candidates: &[VectorFunction],
    shards: usize,
) -> Vec<AnyIoVerdict> {
    plausibility_sweep_any_io_with(
        nl,
        lib,
        camo,
        candidates,
        &AnyIoOptions {
            shards,
            ..AnyIoOptions::default()
        },
    )
}

/// The fully configurable interpretation-freedom sweep behind
/// [`plausibility_sweep_any_io`] / [`plausibility_sweep_any_io_sharded`]
/// (notably [`AnyIoOptions::prune`], the brute-force toggle the
/// equivalence corpus exercises).
///
/// # Panics
///
/// See [`plausibility_sweep_any_io`].
pub fn plausibility_sweep_any_io_with(
    nl: &Netlist,
    lib: &Library,
    camo: &CamoLibrary,
    candidates: &[VectorFunction],
    opts: &AnyIoOptions,
) -> Vec<AnyIoVerdict> {
    plausibility_sweep_any_io_in(
        &ObfuscationSpace::camouflage(lib, camo),
        nl,
        candidates,
        opts,
    )
}

/// The scheme-generic interpretation-freedom sweep: identical to
/// [`plausibility_sweep_any_io_with`] but over any [`ObfuscationSpace`]
/// — per-cell camouflage and logic locking run through this one body.
/// Nothing here inspects the scheme: the space supplies the
/// configuration odometer for the screen and the selector-encoded CNF
/// for the solver, and everything downstream is pure choice-product
/// machinery.
///
/// # Panics
///
/// See [`plausibility_sweep_any_io`].
pub fn plausibility_sweep_any_io_in(
    space: &ObfuscationSpace<'_>,
    nl: &Netlist,
    candidates: &[VectorFunction],
    opts: &AnyIoOptions,
) -> Vec<AnyIoVerdict> {
    if candidates.is_empty() {
        return Vec::new();
    }
    let screen = opts
        .screen
        .then(|| ConfigScreen::build_in(space, nl, candidates, opts.screen_vectors))
        .flatten();
    let plan = plan_any_io(nl, candidates, opts, screen.as_ref());
    let mut cnf = space.encode(nl);
    if opts.inprocess {
        cnf.freeze_interface();
        cnf.solver.simplify();
    }
    run_any_io_plan(&plan, &mut cnf.solver, &cnf.row_outputs, candidates, opts)
}

/// The deterministic prelude of an interpretation-freedom sweep: orbit
/// representatives, class grouping, screening, and the surviving
/// `(candidate, orbit index, uid)` work list. Built serially, so
/// everything downstream — `screened` counts, initial witness bounds,
/// work order — is identical for every shard count and every
/// pause/resume split.
pub(crate) struct AnyIoPlan {
    pub(crate) n_in: usize,
    pub(crate) n_out: usize,
    /// Whether orbit indices use the NPN mixed-radix layout.
    pub(crate) npn: bool,
    /// Surviving work items in enumeration order. The third component is
    /// the distinct-orbit-function id keying the shared verdict cache.
    pub(crate) work: Vec<(u32, u32, u32)>,
    /// Number of distinct orbit-function ids across the batch — the
    /// verdict-cache size.
    pub(crate) n_uids: usize,
    /// Whether uids were assigned batch-wide (class sharing on): only
    /// then can the verdict cache ever hit, so only then is it worth
    /// checkpointing.
    pub(crate) shared: bool,
    /// Initial per-candidate witness bound (`usize::MAX` = none; set by
    /// a complete-regime screen confirmation).
    pub(crate) best_init: Vec<usize>,
    pub(crate) screened: Vec<usize>,
    pub(crate) orbits: Vec<usize>,
    pub(crate) uniques: Vec<usize>,
    /// Per-candidate batch class id (dense, first-appearance order).
    pub(crate) classes: Vec<usize>,
    /// Per-candidate size of its class.
    pub(crate) class_sizes: Vec<usize>,
}

/// The batch's orbit representatives with their uids: [`plan_any_io`]'s
/// first stage, before screening.
struct OrbitNumbering {
    /// Per candidate, its `(orbit index, uid)` representatives in
    /// enumeration order.
    reps: Vec<Vec<(u32, u32)>>,
    orbits: Vec<usize>,
    classes: Vec<usize>,
    n_classes: usize,
    n_uids: usize,
    /// Whether uids were assigned batch-wide.
    shared: bool,
}

/// Plans an interpretation-freedom sweep ([`AnyIoPlan`]): numbers every
/// candidate's orbit representatives ([`number_orbits`]: packed
/// truth-table keys in a flat interner, uids in first-seen order as
/// checkpoints expect), then screens them into the surviving work list.
pub(crate) fn plan_any_io(
    nl: &Netlist,
    candidates: &[VectorFunction],
    opts: &AnyIoOptions,
    screen: Option<&CamoScreen>,
) -> AnyIoPlan {
    let n_in = nl.inputs().len();
    let n_out = nl.outputs().len();
    let npn = opts.npn;
    // The only structural requirement is that flat orbit indices fit the
    // u32 bookkeeping; asymmetric arities (e.g. 7-in/2-out, orbit
    // 10,080) stay exhaustive-search territory exactly as before.
    assert!(
        checked_orbit(n_in, n_out, npn).is_some(),
        "interpretation-freedom orbit of {n_in} inputs, {n_out} outputs (npn: {npn}) \
         exceeds the supported size"
    );
    for candidate in candidates {
        assert_eq!(candidate.n_inputs(), n_in, "input arity mismatch");
        assert_eq!(candidate.n_outputs(), n_out, "output arity mismatch");
    }
    let numbering = number_orbits(candidates, n_in, n_out, opts);
    plan_from(numbering, n_in, n_out, candidates, opts, screen)
}

/// Walks every candidate's orbit and gives each distinct transformed
/// function a dense uid in first-seen order. Representative lists are
/// pure CPU (truth-table transforms), so they are built serially up
/// front — which also makes them, and everything derived from them,
/// deterministic by construction.
///
/// A transformed function is keyed by its output truth tables packed
/// into `u64` words ([`pack_orbit_key`]) and interned in a flat
/// [`KeyInterner`]; a dense per-uid stamp marks the uids the current
/// candidate has already seen. Nothing is allocated per orbit point.
/// Packed keys correspond one-to-one to lookup tables, so uids number
/// the distinct lookup tables in first-seen order. That numbering must
/// not change: checkpoints carry uids, and a resume maps them back onto
/// this plan.
///
/// With class sharing the uids span the whole batch: two candidates in
/// the same interpretation class walk the same set of orbit functions,
/// so a later class member resolves every one of its representatives to
/// an already-known uid and the screen/SAT caches keyed by uid do its
/// work for free. Without sharing the interner is reset per candidate
/// (uid numbering continues, so caches can never hit across candidates)
/// and the sweep degenerates to the historical per-candidate behavior.
fn number_orbits(
    candidates: &[VectorFunction],
    n_in: usize,
    n_out: usize,
    opts: &AnyIoOptions,
) -> OrbitNumbering {
    // Class sharing rides on the pruner's orbit walk; without pruning
    // every point is its own representative and there is nothing to
    // share.
    let shared = opts.class_share && opts.prune;
    let mut interner = KeyInterner::new(orbit_key_words(n_in, n_out));
    let mut key = Vec::new();
    // Per uid: its class, and the ordinal + 1 of the last candidate
    // whose walk met it.
    let mut uid_class: Vec<u32> = Vec::new();
    let mut uid_seen: Vec<u32> = Vec::new();
    let mut n_classes = 0u32;
    let mut all_reps = Vec::with_capacity(candidates.len());
    let mut orbits = Vec::with_capacity(candidates.len());
    let mut classes = Vec::with_capacity(candidates.len());
    for (c, candidate) in candidates.iter().enumerate() {
        if !shared {
            interner.clear();
        }
        let base = if shared { 0 } else { uid_class.len() as u32 };
        // A candidate joins an existing class iff its own function
        // already appears among earlier candidates' orbit functions
        // (group orbits are equal or disjoint, so one point decides).
        pack_orbit_key(candidate, &mut key);
        let class = match interner.get(&key) {
            Some(id) if shared => uid_class[id as usize],
            _ => {
                let k = n_classes;
                n_classes += 1;
                k
            }
        };
        classes.push(class as usize);
        let stamp = c as u32 + 1;
        let mut reps: Vec<(u32, u32)> = Vec::new();
        let orbit = if opts.prune {
            walk_orbit(candidate, opts.npn, |index, g| {
                pack_orbit_key(g, &mut key);
                let (id, fresh) = interner.intern(&key);
                if fresh {
                    uid_class.push(class);
                    uid_seen.push(0);
                }
                let uid = base + id;
                if uid_seen[uid as usize] != stamp {
                    uid_seen[uid as usize] = stamp;
                    reps.push((index, uid));
                }
            })
        } else {
            // Brute force keeps every orbit point as its own fresh uid;
            // no need to materialize the transformed functions just to
            // discard them.
            let orbit =
                checked_orbit(n_in, n_out, opts.npn).expect("orbit checked by caller") as usize;
            reps.reserve(orbit);
            for index in 0..orbit as u32 {
                let uid = uid_class.len() as u32;
                uid_class.push(class);
                reps.push((index, uid));
            }
            orbit
        };
        orbits.push(orbit);
        all_reps.push(reps);
    }
    OrbitNumbering {
        reps: all_reps,
        orbits,
        classes,
        n_classes: n_classes as usize,
        n_uids: uid_class.len(),
        shared,
    }
}

/// Screens a numbered batch into its [`AnyIoPlan`]: [`plan_any_io`]'s
/// second stage.
fn plan_from(
    numbering: OrbitNumbering,
    n_in: usize,
    n_out: usize,
    candidates: &[VectorFunction],
    opts: &AnyIoOptions,
    screen: Option<&CamoScreen>,
) -> AnyIoPlan {
    let OrbitNumbering {
        reps: all_reps,
        orbits,
        classes,
        n_classes,
        n_uids,
        shared,
    } = numbering;
    let npn = opts.npn;
    let mut class_counts = vec![0usize; n_classes];
    for &k in &classes {
        class_counts[k] += 1;
    }
    let class_sizes: Vec<usize> = classes.iter().map(|&k| class_counts[k]).collect();
    // The SAT-free screen runs serially up front, so `screened` counts —
    // and the surviving work list — are identical for every shard count.
    // Screen outcomes are cached per uid: a classification is a property
    // of the transformed function alone, so a class member inherits its
    // owner's refutations (and confirmations) without a fresh pass, and
    // only fresh classifications count toward `screened`.
    let mut screened = vec![0usize; candidates.len()];
    let mut best_init = vec![usize::MAX; candidates.len()];
    let work: Vec<(u32, u32, u32)> = if let Some(screen) = screen {
        let mut uid_screen: Vec<Option<ScreenOutcome>> = vec![None; n_uids];
        let mut scratch = OrbitScreenScratch::new();
        let (mut unrank_tmp, mut ip, mut op) = (Vec::new(), Vec::new(), Vec::new());
        let mut work = Vec::new();
        for (c, reps) in all_reps.iter().enumerate() {
            scratch.reset();
            for &(index, uid) in reps {
                let outcome = match uid_screen[uid as usize] {
                    Some(cached) => cached,
                    None => {
                        let (in_neg, out_neg) = unrank_orbit_index(
                            index,
                            n_in,
                            n_out,
                            npn,
                            &mut unrank_tmp,
                            &mut ip,
                            &mut op,
                        );
                        let outcome = screen.classify_orbit(
                            &candidates[c],
                            u64::from(index) / ip_period(n_in, n_out, npn),
                            &ip,
                            in_neg,
                            &op,
                            out_neg,
                            &mut scratch,
                        );
                        uid_screen[uid as usize] = Some(outcome);
                        if outcome != ScreenOutcome::Unknown {
                            screened[c] += 1;
                        }
                        outcome
                    }
                };
                match outcome {
                    ScreenOutcome::Refuted => {}
                    ScreenOutcome::Confirmed => {
                        // Complete regime: every smaller representative
                        // was exactly refuted, so this index is the
                        // orbit-minimal witness — done with zero queries.
                        best_init[c] = index as usize;
                        break;
                    }
                    ScreenOutcome::Unknown => work.push((c as u32, index, uid)),
                }
            }
        }
        work
    } else {
        all_reps
            .iter()
            .enumerate()
            .flat_map(|(c, reps)| reps.iter().map(move |&(index, uid)| (c as u32, index, uid)))
            .collect()
    };
    AnyIoPlan {
        n_in,
        n_out,
        npn,
        work,
        n_uids,
        shared,
        best_init,
        screened,
        orbits,
        uniques: all_reps.iter().map(Vec::len).collect(),
        classes,
        class_sizes,
    }
}

/// How many consecutive flat orbit indices share one input permutation:
/// the divisor extracting `ip_rank` from an index.
fn ip_period(n_in: usize, n_out: usize, npn: bool) -> u64 {
    let out_fact: u64 = (1..=n_out as u64).product();
    if npn {
        out_fact << (n_in + n_out)
    } else {
        out_fact
    }
}

/// Folds final per-candidate `best` witness bounds and query counts into
/// [`AnyIoVerdict`]s.
pub(crate) fn any_io_verdicts(
    plan: &AnyIoPlan,
    best: &[usize],
    queries: &[usize],
) -> Vec<AnyIoVerdict> {
    let mut unrank_tmp = Vec::new();
    (0..plan.screened.len())
        .map(|j| {
            let found = best[j];
            let witness = (found != usize::MAX).then(|| {
                let (mut ip, mut op) = (Vec::new(), Vec::new());
                let (in_neg, out_neg) = unrank_orbit_index(
                    found as u32,
                    plan.n_in,
                    plan.n_out,
                    plan.npn,
                    &mut unrank_tmp,
                    &mut ip,
                    &mut op,
                );
                IoInterpretation {
                    in_perm: ip,
                    in_neg,
                    out_perm: op,
                    out_neg,
                }
            });
            AnyIoVerdict {
                plausible: found != usize::MAX,
                witness,
                orbit: plan.orbits[j],
                unique: plan.uniques[j],
                screened: plan.screened[j],
                queries: queries[j],
                class: plan.classes[j],
                class_size: plan.class_sizes[j],
            }
        })
        .collect()
}

/// Executes a planned sweep on an encoded solver, serial or sharded.
fn run_any_io_plan(
    plan: &AnyIoPlan,
    solver: &mut Solver,
    row_outputs: &[Vec<Var>],
    candidates: &[VectorFunction],
    opts: &AnyIoOptions,
) -> Vec<AnyIoVerdict> {
    let shards = match opts.shards {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .min(plan.work.len())
    .max(1);
    let best: Vec<AtomicUsize> = plan
        .best_init
        .iter()
        .map(|&b| AtomicUsize::new(b))
        .collect();
    let queries: Vec<AtomicUsize> = candidates.iter().map(|_| AtomicUsize::new(0)).collect();
    let resolved: Vec<AtomicU8> = (0..plan.n_uids)
        .map(|_| AtomicU8::new(UID_UNKNOWN))
        .collect();
    if shards <= 1 {
        any_io_stripe(
            solver,
            row_outputs,
            candidates,
            &plan.work,
            plan.npn,
            0,
            1,
            &best,
            &queries,
            &resolved,
        );
    } else {
        let solver_ref = &*solver;
        let work_ref = &plan.work;
        let npn = plan.npn;
        let (best_ref, queries_ref, resolved_ref) = (&best, &queries, &resolved);
        std::thread::scope(|scope| {
            for w in 0..shards {
                scope.spawn(move || {
                    let mut local = solver_ref.clone_db();
                    any_io_stripe(
                        &mut local,
                        row_outputs,
                        candidates,
                        work_ref,
                        npn,
                        w,
                        shards,
                        best_ref,
                        queries_ref,
                        resolved_ref,
                    );
                });
            }
        });
    }
    let best: Vec<usize> = best.iter().map(|b| b.load(Ordering::Relaxed)).collect();
    let queries: Vec<usize> = queries.iter().map(|q| q.load(Ordering::Relaxed)).collect();
    any_io_verdicts(plan, &best, &queries)
}

/// Sweeps a whole list of viable functions against one camouflaged
/// netlist: `result[j]` is `true` iff `candidates[j]` is plausible under
/// the identity pin interpretation.
///
/// Unlike calling [`is_plausible`] per candidate, the netlist is encoded
/// **once** and one incremental solver answers every query under
/// per-candidate assumptions — the batched attacker-sweep primitive for
/// red-team evaluations over many suspected functions.
///
/// For wide candidate lists on multi-core machines, see
/// [`plausibility_sweep_sharded`], which answers the same queries from
/// cloned solvers in parallel.
///
/// # Panics
///
/// Panics if any candidate's shape does not match the netlist.
pub fn plausibility_sweep(
    nl: &Netlist,
    lib: &Library,
    camo: &CamoLibrary,
    candidates: &[VectorFunction],
) -> Vec<bool> {
    plausibility_sweep_sharded(nl, lib, camo, candidates, 1)
}

/// Options for the identity-interpretation sweep
/// ([`plausibility_sweep_with`]).
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker shards striping the SAT-pending candidates over
    /// [`mvf_sat::Solver::clone_db`] clones. `0` uses the available
    /// hardware parallelism; `<= 1` runs serially. Verdicts are
    /// bit-identical for every value.
    pub shards: usize,
    /// Runs the SAT-free screen ([`CamoScreen`]) in front of the
    /// solver. Never changes a verdict; stands down automatically when
    /// the configuration product is too large to enumerate.
    pub screen: bool,
    /// Screening batch size — see [`AnyIoOptions::screen_vectors`].
    pub screen_vectors: usize,
    /// Freezes the interface and runs [`mvf_sat::Solver::simplify`]
    /// once after encoding — see [`AnyIoOptions::inprocess`]. Never
    /// changes a verdict.
    pub inprocess: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            shards: 1,
            screen: true,
            screen_vectors: DEFAULT_SCREEN_VECTORS,
            inprocess: true,
        }
    }
}

/// The per-candidate result of an identity-interpretation sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepVerdict {
    /// Whether some doping configuration makes the circuit equal the
    /// candidate under the identity pin interpretation.
    pub plausible: bool,
    /// Whether the SAT-free screen settled the verdict on its own
    /// (refuted, or confirmed in the complete regime) — `false` means
    /// the solver was consulted.
    pub screened: bool,
}

/// The fully configurable identity-interpretation sweep behind
/// [`plausibility_sweep`] / [`plausibility_sweep_sharded`]: candidates
/// the screen settles never reach the solver; the rest are answered by
/// one incremental encoding, serial or striped over cloned solvers.
///
/// # Panics
///
/// Panics if any candidate's shape does not match the netlist.
pub fn plausibility_sweep_with(
    nl: &Netlist,
    lib: &Library,
    camo: &CamoLibrary,
    candidates: &[VectorFunction],
    opts: &SweepOptions,
) -> Vec<SweepVerdict> {
    plausibility_sweep_in(
        &ObfuscationSpace::camouflage(lib, camo),
        nl,
        candidates,
        opts,
    )
}

/// The scheme-generic identity-interpretation sweep: identical to
/// [`plausibility_sweep_with`] but over any [`ObfuscationSpace`].
///
/// # Panics
///
/// Panics if any candidate's shape does not match the netlist.
pub fn plausibility_sweep_in(
    space: &ObfuscationSpace<'_>,
    nl: &Netlist,
    candidates: &[VectorFunction],
    opts: &SweepOptions,
) -> Vec<SweepVerdict> {
    for candidate in candidates {
        assert_eq!(
            candidate.n_inputs(),
            nl.inputs().len(),
            "input arity mismatch"
        );
        assert_eq!(
            candidate.n_outputs(),
            nl.outputs().len(),
            "output arity mismatch"
        );
    }
    if candidates.is_empty() {
        return Vec::new();
    }
    let screen = opts
        .screen
        .then(|| ConfigScreen::build_in(space, nl, candidates, opts.screen_vectors))
        .flatten();
    let mut verdicts: Vec<Option<SweepVerdict>> = vec![None; candidates.len()];
    let mut pending: Vec<usize> = Vec::new();
    if let Some(screen) = &screen {
        for (j, candidate) in candidates.iter().enumerate() {
            match screen.classify_identity(candidate) {
                ScreenOutcome::Refuted => {
                    verdicts[j] = Some(SweepVerdict {
                        plausible: false,
                        screened: true,
                    });
                }
                ScreenOutcome::Confirmed => {
                    verdicts[j] = Some(SweepVerdict {
                        plausible: true,
                        screened: true,
                    });
                }
                ScreenOutcome::Unknown => pending.push(j),
            }
        }
    } else {
        pending.extend(0..candidates.len());
    }
    if !pending.is_empty() {
        let mut cnf = space.encode(nl);
        if opts.inprocess {
            cnf.freeze_interface();
            cnf.solver.simplify();
        }
        let shards = match opts.shards {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
        .min(pending.len());
        if shards <= 1 {
            let mut assumptions = Vec::new();
            for &j in &pending {
                // Saved phases are a per-candidate heuristic: polarities
                // a long UNSAT proof settled into would otherwise leak
                // into the next candidate's query and steer it wrong.
                cnf.solver.reset_phases();
                candidate_assumptions(&cnf.row_outputs, &candidates[j], &mut assumptions);
                verdicts[j] = Some(SweepVerdict {
                    plausible: cnf.solver.solve_with(&assumptions),
                    screened: false,
                });
            }
        } else {
            // One cloned solver per shard; pending candidates striped
            // (worker w answers pending[w], pending[w + shards], ...) so
            // expensive candidates spread out. Results are re-stitched
            // by index, preserving input order exactly.
            let row_outputs = &cnf.row_outputs;
            let solver = &cnf.solver;
            let pending_ref = &pending;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..shards)
                    .map(|w| {
                        scope.spawn(move || {
                            let mut local = solver.clone_db();
                            let mut assumptions = Vec::new();
                            pending_ref
                                .iter()
                                .skip(w)
                                .step_by(shards)
                                .map(|&j| {
                                    local.reset_phases();
                                    candidate_assumptions(
                                        row_outputs,
                                        &candidates[j],
                                        &mut assumptions,
                                    );
                                    (j, local.solve_with(&assumptions))
                                })
                                .collect::<Vec<(usize, bool)>>()
                        })
                    })
                    .collect();
                for h in handles {
                    for (j, plausible) in h.join().expect("sweep shard panicked") {
                        verdicts[j] = Some(SweepVerdict {
                            plausible,
                            screened: false,
                        });
                    }
                }
            });
        }
    }
    verdicts
        .into_iter()
        .map(|v| v.expect("every candidate is resolved by screen or solver"))
        .collect()
}

/// [`plausibility_sweep`] sharded across worker threads: the netlist is
/// encoded once, the encoded solver (clause arena, watch lists, VSIDS
/// state) is cloned per shard via [`mvf_sat::Solver::clone_db`], and the
/// candidate list is striped over the shards. Verdicts are stitched back
/// in input order.
///
/// Each verdict is the mathematically determined answer of its query, so
/// the result is **bit-identical to the serial sweep for every shard
/// count** — sharding only changes which learnt clauses each solver
/// accumulates along the way, never an answer.
///
/// `shards = 0` uses the available hardware parallelism; `shards <= 1`
/// (or a candidate list shorter than two) runs the serial sweep.
///
/// # Panics
///
/// Panics if any candidate's shape does not match the netlist.
pub fn plausibility_sweep_sharded(
    nl: &Netlist,
    lib: &Library,
    camo: &CamoLibrary,
    candidates: &[VectorFunction],
    shards: usize,
) -> Vec<bool> {
    plausibility_sweep_with(
        nl,
        lib,
        camo,
        candidates,
        &SweepOptions {
            shards,
            ..SweepOptions::default()
        },
    )
    .into_iter()
    .map(|v| v.plausible)
    .collect()
}

/// Builds the paper's baseline: synthesize a *single* function, map it to
/// the standard library, then blindly replace every gate with its
/// camouflaged look-alike. The result has exponentially many plausible
/// functions — but, as the paper argues, almost surely not the *other*
/// viable functions.
///
/// # Errors
///
/// Returns [`AttackError::Build`] if synthesis or mapping fails.
pub fn random_camouflage(
    function: &VectorFunction,
    lib: &Library,
    camo: &CamoLibrary,
) -> Result<Netlist, AttackError> {
    partial_camouflage(function, lib, camo, 1)
}

/// [`random_camouflage`] with a stride: synthesize `function`, map it to
/// the standard library, then replace every `period`-th gate (in
/// topological order) with its camouflaged look-alike. `period == 1`
/// camouflages everything; larger periods leave standard gates between
/// the camouflaged ones — the mixed shape real camouflage-mapped merged
/// circuits have, and the shape SAT preprocessing bites hardest on
/// (standard gates downstream of camouflaged ones keep free pin
/// variables that bounded variable elimination can resolve away).
///
/// # Errors
///
/// Returns [`AttackError::Build`] if synthesis or mapping fails.
///
/// # Panics
///
/// Panics if `period` is zero.
pub fn partial_camouflage(
    function: &VectorFunction,
    lib: &Library,
    camo: &CamoLibrary,
    period: usize,
) -> Result<Netlist, AttackError> {
    assert!(period > 0, "camouflage period must be at least 1");
    let funcs = vec![function.clone()];
    let assignment = mvf_merge::PinAssignment::identity(&funcs);
    let merged = mvf_merge::build_merged(&funcs, &assignment)
        .map_err(|e| AttackError::Build(e.to_string()))?;
    let synthesized = mvf_aig::Script::fast().run(&merged.aig);
    let subject = mvf_netlist::subject_graph::from_aig(&synthesized, lib);
    let plain = mvf_techmap::map_standard(&subject, lib, &mvf_techmap::MapOptions::default())
        .map_err(|e| AttackError::Build(e.to_string()))?;
    // Replace the selected gates by their look-alike camouflaged variant.
    let suffix = if period == 1 {
        "randcamo".to_string()
    } else {
        format!("camo{period}")
    };
    let mut out = Netlist::new(format!("{}_{suffix}", plain.name()));
    let mut net_map = std::collections::HashMap::new();
    for &pi in plain.inputs() {
        net_map.insert(pi, out.add_input(plain.net_name(pi).to_string()));
    }
    for (i, cid) in plain.topo_cells().into_iter().enumerate() {
        let c = plain.cell(cid);
        let pins: Vec<_> = c.inputs.iter().map(|p| net_map[p]).collect();
        let cell_ref = match c.cell {
            CellRef::Std(id) if i.is_multiple_of(period) => {
                let name = lib.cell(id).name().to_string();
                match camo.iter().find(|(_, cc)| cc.name() == name) {
                    Some((camo_id, _)) => CellRef::Camo(camo_id),
                    None => CellRef::Std(id), // tie cells stay standard
                }
            }
            other => other,
        };
        let (_, y) = out.add_cell(c.name.clone(), cell_ref, pins);
        net_map.insert(c.output, y);
    }
    for (name, net) in plain.outputs() {
        out.add_output(name.clone(), net_map[net]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvf_sboxes::optimal_sboxes;

    fn setup() -> (Library, CamoLibrary) {
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        (lib, camo)
    }

    #[test]
    fn true_function_is_plausible_for_its_own_circuit() {
        let (lib, camo) = setup();
        let f0 = &optimal_sboxes()[0];
        let circuit = random_camouflage(f0, &lib, &camo).unwrap();
        assert!(is_plausible(&circuit, &lib, &camo, f0));
    }

    #[test]
    fn sweep_agrees_with_per_candidate_queries() {
        let (lib, camo) = setup();
        let boxes = optimal_sboxes();
        let circuit = random_camouflage(&boxes[0], &lib, &camo).unwrap();
        let candidates = boxes[..4].to_vec();
        let swept = plausibility_sweep(&circuit, &lib, &camo, &candidates);
        assert_eq!(swept.len(), candidates.len());
        for (f, &v) in candidates.iter().zip(&swept) {
            assert_eq!(v, is_plausible(&circuit, &lib, &camo, f));
        }
        assert!(swept[0], "the true function is always plausible");
    }

    #[test]
    fn sharded_sweep_is_bit_identical_to_serial() {
        let (lib, camo) = setup();
        let boxes = optimal_sboxes();
        let circuit = random_camouflage(&boxes[0], &lib, &camo).unwrap();
        let candidates = boxes[..5].to_vec();
        let serial = plausibility_sweep(&circuit, &lib, &camo, &candidates);
        for shards in [0usize, 1, 2, 3, 4, 8] {
            let sharded = plausibility_sweep_sharded(&circuit, &lib, &camo, &candidates, shards);
            assert_eq!(serial, sharded, "shards = {shards}");
        }
    }

    #[test]
    fn random_camouflage_does_not_cover_other_viable_functions() {
        // The paper's core observation (§I): random camouflaging leaves
        // the other viable functions implausible, so the adversary rules
        // them out without resolving a single cell.
        let (lib, camo) = setup();
        let boxes = optimal_sboxes();
        let circuit = random_camouflage(&boxes[0], &lib, &camo).unwrap();
        let mut ruled_out = 0;
        for other in &boxes[1..4] {
            if !is_plausible(&circuit, &lib, &camo, other) {
                ruled_out += 1;
            }
        }
        assert!(
            ruled_out >= 2,
            "random camouflage should rule out most other S-boxes ({ruled_out}/3 ruled out)"
        );
    }

    #[test]
    fn designed_circuit_keeps_all_viable_functions_plausible() {
        // The flow's guarantee, checked through the adversary's own
        // decision procedure.
        let (lib, camo) = setup();
        let funcs = optimal_sboxes()[..2].to_vec();
        let assignment = mvf_merge::PinAssignment::identity(&funcs);
        let merged = mvf_merge::build_merged(&funcs, &assignment).unwrap();
        let synthesized = mvf_aig::Script::fast().run(&merged.aig);
        let subject = mvf_netlist::subject_graph::from_aig(&synthesized, &lib);
        let mapped = mvf_techmap::map_camouflage(
            &subject,
            &lib,
            &camo,
            &merged.select_indices,
            &mvf_techmap::CamoMapOptions::default(),
        )
        .unwrap();
        for (j, f) in merged.functions.iter().enumerate() {
            assert!(
                is_plausible(&mapped.netlist, &lib, &camo, f),
                "viable function {j} must be plausible"
            );
        }
    }

    #[test]
    fn io_permutation_freedom_widens_plausibility() {
        let (lib, camo) = setup();
        let f0 = &optimal_sboxes()[0];
        let circuit = random_camouflage(f0, &lib, &camo).unwrap();
        // A pin-permuted variant of the true function: implausible under
        // the identity interpretation, plausible when the adversary
        // searches interpretations.
        let permuted = f0
            .permute_inputs(&[1, 0, 2, 3])
            .unwrap()
            .permute_outputs(&[0, 1, 3, 2])
            .unwrap();
        if !is_plausible(&circuit, &lib, &camo, &permuted) {
            assert!(is_plausible_any_io(&circuit, &lib, &camo, &permuted));
        }
    }

    #[test]
    fn orbit_representatives_collapse_symmetric_candidates() {
        use mvf_logic::TruthTable;
        // Fully symmetric outputs: every input permutation fixes the
        // function, so only the output permutations survive pruning.
        let a = TruthTable::var(0, 3);
        let b = TruthTable::var(1, 3);
        let c = TruthTable::var(2, 3);
        let and3 = a.and(&b).and(&c);
        let xor3 = a.xor(&b).xor(&c);
        let maj = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        let sym = VectorFunction::new(3, vec![and3, xor3, maj]);
        let (reps, orbit) = orbit_representatives(&sym, true, false);
        assert_eq!(orbit, 36, "3! · 3!");
        assert_eq!(reps.len(), 6, "input symmetry leaves only out-perms");
        let (unpruned, _) = orbit_representatives(&sym, false, false);
        assert_eq!(unpruned.len(), 36);
        // An asymmetric bijection keeps its whole orbit.
        let f = VectorFunction::from_lookup_table(3, 3, &[1, 0, 3, 2, 5, 7, 6, 4]).unwrap();
        let (reps, orbit) = orbit_representatives(&f, true, false);
        assert_eq!(orbit, 36);
        assert_eq!(reps.len(), 36);
        // The NPN orbit squares in the polarity dimensions.
        let (_, npn_orbit) = orbit_representatives(&f, true, true);
        assert_eq!(npn_orbit, 36 * 8 * 8, "3!·2³·3!·2³");
    }

    /// SplitMix64 stream for seeded random test functions.
    fn next_rand(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_function(n_in: usize, n_out: usize, state: &mut u64) -> VectorFunction {
        let table: Vec<u16> = (0..1usize << n_in)
            .map(|_| (next_rand(state) & ((1 << n_out) - 1)) as u16)
            .collect();
        VectorFunction::from_lookup_table(n_in, n_out, &table).unwrap()
    }

    fn random_perm(n: usize, state: &mut u64) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, (next_rand(state) % (i as u64 + 1)) as usize);
        }
        p
    }

    /// A random point of `f`'s orbit (polarities only under `npn`).
    fn random_interpretation(f: &VectorFunction, npn: bool, state: &mut u64) -> VectorFunction {
        let (n_in, n_out) = (f.n_inputs(), f.n_outputs());
        let mut neg = |n: usize| {
            if npn {
                (next_rand(state) % (1 << n)) as u32
            } else {
                0
            }
        };
        let (in_neg, out_neg) = (neg(n_in), neg(n_out));
        IoInterpretation {
            in_perm: random_perm(n_in, state),
            in_neg,
            out_perm: random_perm(n_out, state),
            out_neg,
        }
        .apply(f)
        .unwrap()
    }

    /// `f` with its last lookup-table bit (top output, last row)
    /// flipped: the highest bit of its packed orbit key.
    fn near_twin(f: &VectorFunction) -> VectorFunction {
        let mut table = f.to_lookup_table();
        *table.last_mut().unwrap() ^= 1 << (f.n_outputs() - 1);
        VectorFunction::from_lookup_table(f.n_inputs(), f.n_outputs(), &table).unwrap()
    }

    /// A cell-free netlist of the given arity: all the planner reads.
    fn arity_netlist(n_in: usize, n_out: usize) -> Netlist {
        let mut nl = Netlist::new("arity");
        let pis: Vec<_> = (0..n_in).map(|i| nl.add_input(format!("x{i}"))).collect();
        for o in 0..n_out {
            nl.add_output(format!("y{o}"), pis[0]);
        }
        nl
    }

    fn assert_plans_match(
        nl: &Netlist,
        candidates: &[VectorFunction],
        opts: &AnyIoOptions,
        screen: Option<&CamoScreen>,
    ) -> AnyIoPlan {
        let (n_in, n_out) = (nl.inputs().len(), nl.outputs().len());
        let got = plan_any_io(nl, candidates, opts, screen);
        let want = plan_from(
            reference_numbering(candidates, n_in, n_out, opts),
            n_in,
            n_out,
            candidates,
            opts,
            screen,
        );
        let ctx = format!("{n_in}x{n_out} {opts:?}");
        assert_eq!(got.work, want.work, "work, {ctx}");
        assert_eq!(got.n_uids, want.n_uids, "n_uids, {ctx}");
        assert_eq!(got.shared, want.shared, "shared, {ctx}");
        assert_eq!(got.classes, want.classes, "classes, {ctx}");
        assert_eq!(got.class_sizes, want.class_sizes, "class_sizes, {ctx}");
        assert_eq!(got.uniques, want.uniques, "uniques, {ctx}");
        assert_eq!(got.orbits, want.orbits, "orbits, {ctx}");
        assert_eq!(got.screened, want.screened, "screened, {ctx}");
        assert_eq!(got.best_init, want.best_init, "best_init, {ctx}");
        got
    }

    #[test]
    fn interned_plan_matches_the_signature_map_reference() {
        let mut state = 0x5EED_0001u64;
        // (n_in, n_out, NPN settings): 7-in/2-out packs four words per
        // key, so it exercises multi-word keys on the permutation orbit.
        let shapes: [(usize, usize, &[bool]); 5] = [
            (2, 2, &[false, true]),
            (3, 3, &[false, true]),
            (3, 2, &[false, true]),
            (4, 4, &[false, true]),
            (7, 2, &[false]),
        ];
        for (n_in, n_out, npn_settings) in shapes {
            let nl = arity_netlist(n_in, n_out);
            for &npn in npn_settings {
                let f0 = random_function(n_in, n_out, &mut state);
                let f1 = random_function(n_in, n_out, &mut state);
                // Interpretations of earlier candidates share classes
                // under class sharing. A near twin differs from `f0` in
                // the last bit of its packed key only, so a key that
                // loses its tail bits (or a comparison of its first word
                // only) merges the two and renumbers the uids. The large
                // orbits (147,456 points for 4x4 NPN, 128-row tables for
                // 7x2) keep their batches short.
                let mut batch = vec![f0.clone(), random_interpretation(&f0, npn, &mut state)];
                if (n_in, n_out, npn) != (4, 4, true) {
                    batch.push(near_twin(&f0));
                    batch.push(f1.clone());
                }
                if n_in < 4 {
                    batch.push(random_interpretation(&f1, npn, &mut state));
                    batch.push(random_function(n_in, n_out, &mut state));
                    batch.push(f1.clone());
                }
                for prune in [false, true] {
                    for class_share in [false, true] {
                        let opts = AnyIoOptions {
                            npn,
                            prune,
                            class_share,
                            ..AnyIoOptions::default()
                        };
                        assert_plans_match(&nl, &batch, &opts, None);
                    }
                }
            }
        }
        // Behind a complete screen, so confirmed witnesses set
        // `best_init`: the circuit's own function and an interpretation
        // of it are plausible.
        let (lib, camo) = setup();
        let space = ObfuscationSpace::camouflage(&lib, &camo);
        let mut confirmed = 0;
        for (n_in, n_out) in [(2, 2), (3, 3), (3, 2)] {
            let f = random_function(n_in, n_out, &mut state);
            // A complete screen ignores the batch it was built for; sparse
            // camouflage keeps its configuration count small.
            let (nl, screen) = [8, 4, 2, 1]
                .into_iter()
                .find_map(|period| {
                    let nl = partial_camouflage(&f, &lib, &camo, period).unwrap();
                    let screen = ConfigScreen::build_in(&space, &nl, std::slice::from_ref(&f), 64)?;
                    Some((nl, screen))
                })
                .expect("some camouflage stride fits the screen");
            assert!(screen.is_complete());
            for npn in [false, true] {
                let batch = vec![
                    f.clone(),
                    random_function(n_in, n_out, &mut state),
                    random_interpretation(&f, npn, &mut state),
                ];
                for class_share in [false, true] {
                    let opts = AnyIoOptions {
                        npn,
                        class_share,
                        ..AnyIoOptions::default()
                    };
                    let plan = assert_plans_match(&nl, &batch, &opts, Some(&screen));
                    confirmed += plan.best_init.iter().filter(|&&b| b != usize::MAX).count();
                }
            }
        }
        assert!(confirmed > 0, "the screened cases must confirm witnesses");
    }

    #[test]
    fn key_interner_numbers_keys_in_first_seen_order_and_hashes_every_word() {
        // Four-word keys that share their first two words, as multi-word
        // orbit keys often do.
        let keys: Vec<[u64; 4]> = (0..300u64).map(|i| [7, 0, i, i >> 3]).collect();
        let mut interner = KeyInterner::new(4);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(interner.intern(key), (i as u32, true));
        }
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(interner.intern(key), (i as u32, false));
            assert_eq!(interner.get(key), Some(i as u32));
        }
        assert_eq!(interner.get(&[7, 0, 300, 0]), None);
        // Every word feeds the hash: the keys still spread over the
        // table instead of piling onto one home slot.
        let homes: std::collections::HashSet<usize> =
            keys.iter().map(|key| interner.home(key)).collect();
        assert!(homes.len() > keys.len() / 2, "{} home slots", homes.len());
        interner.clear();
        assert_eq!(interner.get(&keys[0]), None);
        assert_eq!(interner.intern(&keys[5]), (0, true));
    }

    #[test]
    fn npn_walk_matches_interpretation_unranking() {
        // The walk's in-place Gray flips and the index unranking must
        // describe the same orbit point: re-deriving the transformed
        // function from the unranked interpretation reproduces the
        // walk's function at every one of the 2304 indices.
        let f = VectorFunction::from_lookup_table(3, 3, &[1, 0, 3, 2, 5, 7, 6, 4]).unwrap();
        let (mut unrank_tmp, mut ip, mut op) = (Vec::new(), Vec::new(), Vec::new());
        let mut permuted_in = VectorFunction::new(0, Vec::new());
        let mut permuted = VectorFunction::new(0, Vec::new());
        let mut count = 0usize;
        let orbit = walk_orbit(&f, true, |index, g| {
            let (in_neg, out_neg) =
                unrank_orbit_index(index, 3, 3, true, &mut unrank_tmp, &mut ip, &mut op);
            apply_orbit_point(
                &f,
                &ip,
                in_neg,
                &op,
                out_neg,
                &mut permuted_in,
                &mut permuted,
            );
            assert_eq!(&permuted, g, "index {index}");
            // And the public interpretation type agrees with the
            // internal allocation-free pipeline.
            let interp = IoInterpretation {
                in_perm: ip.clone(),
                in_neg,
                out_perm: op.clone(),
                out_neg,
            };
            assert_eq!(interp.apply(&f).unwrap(), permuted, "index {index}");
            count += 1;
        });
        assert_eq!(orbit, 2304);
        assert_eq!(count, 2304);
        // Index 0 is always the identity interpretation.
        let (in_neg, out_neg) =
            unrank_orbit_index(0, 3, 3, true, &mut unrank_tmp, &mut ip, &mut op);
        assert_eq!((in_neg, out_neg), (0, 0));
        assert!(IoInterpretation {
            in_perm: ip.clone(),
            in_neg,
            out_perm: op.clone(),
            out_neg,
        }
        .is_identity());
    }

    #[test]
    fn unranking_matches_the_permutation_stream() {
        // Orbit indices are defined by the Permutations stream order;
        // unranking must reproduce position r exactly, for every r.
        for n in 0..=5usize {
            let mut perms = Permutations::new(n);
            let (mut scratch, mut out) = (Vec::new(), Vec::new());
            let mut rank = 0u64;
            while let Some(p) = perms.next() {
                unrank_perm(rank, n, &mut scratch, &mut out);
                assert_eq!(out, p, "n = {n}, rank = {rank}");
                rank += 1;
            }
        }
    }

    #[test]
    fn any_io_supports_asymmetric_arities() {
        // 7-in/2-out: orbit 7!·2! = 10,080. The sweep must accept it
        // (only orbits overflowing u32 indices are rejected); the true
        // function early-exits at the identity interpretation, so the
        // run costs one SAT query, not ten thousand.
        let (lib, camo) = setup();
        let table: Vec<u16> = (0..128u16).map(|m| (m * 37 + 11) % 4).collect();
        let f = VectorFunction::from_lookup_table(7, 2, &table).unwrap();
        let circuit = random_camouflage(&f, &lib, &camo).unwrap();
        let verdicts = plausibility_sweep_any_io(&circuit, &lib, &camo, &[f]);
        assert!(verdicts[0].plausible);
        assert_eq!(verdicts[0].orbit, 10_080);
        assert_eq!(
            verdicts[0].witness,
            Some(IoInterpretation::from_perms(
                vec![0, 1, 2, 3, 4, 5, 6],
                vec![0, 1]
            ))
        );
        // And the guard itself: factorials that overflow u32 indices.
        assert!(checked_orbit(7, 2, false).is_some());
        assert!(checked_orbit(7, 2, true).is_some(), "5.2M still fits u32");
        assert!(checked_orbit(12, 12, false).is_none());
        assert!(checked_orbit(6, 6, true).is_some(), "2.1B is the NPN edge");
        assert!(checked_orbit(7, 7, true).is_none());
    }

    #[test]
    fn any_io_sweep_agrees_with_single_queries_and_reports_witnesses() {
        let (lib, camo) = setup();
        let boxes = optimal_sboxes();
        let circuit = random_camouflage(&boxes[0], &lib, &camo).unwrap();
        let scrambled = boxes[0]
            .permute_inputs(&[2, 0, 3, 1])
            .unwrap()
            .permute_outputs(&[1, 3, 0, 2])
            .unwrap();
        let candidates = vec![boxes[0].clone(), scrambled, boxes[1].clone()];
        let verdicts = plausibility_sweep_any_io(&circuit, &lib, &camo, &candidates);
        assert_eq!(verdicts.len(), candidates.len());
        // The true function is plausible under the identity
        // interpretation, which is orbit index 0 — so it must also be
        // the reported witness.
        assert!(verdicts[0].plausible);
        assert_eq!(verdicts[0].witness, Some(IoInterpretation::identity(4, 4)));
        // A scrambled copy of the true function is plausible under some
        // interpretation by construction.
        assert!(verdicts[1].plausible);
        // Every witness actually satisfies the identity-interpretation
        // test once applied to the candidate.
        for (f, v) in candidates.iter().zip(&verdicts) {
            assert_eq!(v.orbit, 576, "4! · 4!");
            assert!(v.unique <= v.orbit);
            // Without class sharing every candidate is its own class.
            assert_eq!(v.class_size, 1);
            if let Some(interp) = &v.witness {
                let g = interp.apply(f).unwrap();
                assert!(is_plausible(&circuit, &lib, &camo, &g), "witness must hold");
            }
        }
        assert_eq!(
            verdicts.iter().map(|v| v.class).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }
}
