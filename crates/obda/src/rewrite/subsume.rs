//! **UCQ subsumption pruning**: dropping disjuncts that are homomorphic
//! images of another disjunct before the (much more expensive) data
//! step.
//!
//! A disjunct `q₁` is redundant in a UCQ if some other disjunct `q₂`
//! *subsumes* it: there is a homomorphism from `q₂`'s body into `q₁`'s
//! body mapping `q₂`'s head variables position-wise onto `q₁`'s. Then
//! every answer of `q₁` over any ABox is already an answer of `q₂`, so
//! removing `q₁` never changes the union. PerfectRef routinely emits
//! such redundant disjuncts (reduce steps produce specializations of
//! CQs that are also kept), and each one costs a full unfolding + SQL
//! round or an ABox join — pruning is pure win on the evaluation side.
//!
//! The homomorphism check is the textbook backtracking search (CQ
//! containment is NP-complete, but rewriting disjuncts have a handful
//! of atoms). The unpruned path stays available — callers can evaluate
//! the raw UCQ and cross-check, which the property tests do against the
//! bounded chase.

use std::collections::HashMap;

use crate::query::{Atom, ConjunctiveQuery, Term, Ucq, ValueTerm};

/// Above this disjunct count the system skips pruning: the kept-list
/// algorithm is quadratic in the UCQ size, and rewritings this large
/// (deep-hierarchy root queries) would spend far longer pruning than
/// evaluating.
pub const PRUNE_DISJUNCT_CAP: usize = 512;

/// The effective pruning cap: `QUONTO_PRUNE_CAP` when set and numeric,
/// else [`PRUNE_DISJUNCT_CAP`].
pub fn prune_cap() -> usize {
    quonto::env::prune_cap().unwrap_or(PRUNE_DISJUNCT_CAP)
}

/// Removes every disjunct subsumed by another disjunct. Keeps the first
/// representative of hom-equivalent disjuncts (in input order), so the
/// output is deterministic for a canonicalized input.
///
/// Quadratic in the number of disjuncts — callers on unbounded
/// rewritings should gate on [`PRUNE_DISJUNCT_CAP`].
pub fn prune_ucq(u: &Ucq) -> Ucq {
    let mut kept: Vec<ConjunctiveQuery> = Vec::new();
    'outer: for q in &u.disjuncts {
        for k in &kept {
            if subsumes(k, q) {
                continue 'outer; // q is redundant
            }
        }
        // q survives; it may in turn subsume earlier survivors.
        kept.retain(|k| !subsumes(q, k));
        kept.push(q.clone());
    }
    Ucq { disjuncts: kept }
}

/// [`prune_ucq`] under a `prune` trace span recording the surviving
/// disjunct count.
pub fn prune_ucq_traced(u: &Ucq, ctx: &obda_obs::TraceCtx) -> Ucq {
    let guard = obda_obs::span!(ctx, "prune");
    let pruned = prune_ucq(u);
    guard.count("disjuncts", pruned.len() as u64);
    pruned
}

/// The sort a variable inhabits, read off its body occurrences: IRI
/// positions (concept/role arguments, attribute subjects) vs attribute
/// value positions. Well-sorted queries never mix the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarSort {
    Iri,
    Val,
    Mixed,
}

fn var_sorts(q: &ConjunctiveQuery) -> HashMap<&str, VarSort> {
    fn note<'a>(sorts: &mut HashMap<&'a str, VarSort>, v: Option<&'a str>, sort: VarSort) {
        let Some(v) = v else { return };
        sorts
            .entry(v)
            .and_modify(|s| {
                if *s != sort {
                    *s = VarSort::Mixed;
                }
            })
            .or_insert(sort);
    }
    let mut sorts: HashMap<&str, VarSort> = HashMap::new();
    for a in &q.atoms {
        match a {
            Atom::Concept(_, t) => note(&mut sorts, t.as_var(), VarSort::Iri),
            Atom::Role(_, s, o) => {
                note(&mut sorts, s.as_var(), VarSort::Iri);
                note(&mut sorts, o.as_var(), VarSort::Iri);
            }
            Atom::Attribute(_, s, v) => {
                note(&mut sorts, s.as_var(), VarSort::Iri);
                note(&mut sorts, v.as_var(), VarSort::Val);
            }
        }
    }
    sorts
}

/// Whether `general` subsumes `specific`: a homomorphism from
/// `general`'s body into `specific`'s body maps `general`'s head
/// variables position-wise onto `specific`'s (so
/// `answers(specific) ⊆ answers(general)` over every ABox). Requires
/// equal head arity.
pub fn subsumes(general: &ConjunctiveQuery, specific: &ConjunctiveQuery) -> bool {
    if general.head.len() != specific.head.len() {
        return false;
    }
    // Seed the mappings with the positional head correspondence, each
    // head variable in the map matching its body sort (a value-typed
    // head like `q(n) :- u(x, n)` is matched through `val_map`, the
    // same map the attribute value positions consult). A head variable
    // repeated in `general` must map consistently. Sort mismatches,
    // mixed-sort variables and head variables missing from the body are
    // conservatively not subsumed.
    let gen_sorts = var_sorts(general);
    let spec_sorts = var_sorts(specific);
    let mut iri_map: HashMap<String, Term> = HashMap::new();
    let mut val_map: HashMap<String, ValueTerm> = HashMap::new();
    for (g, s) in general.head.iter().zip(&specific.head) {
        match (gen_sorts.get(g.as_str()), spec_sorts.get(s.as_str())) {
            (Some(VarSort::Iri), Some(VarSort::Iri)) => match iri_map.get(g) {
                Some(Term::Var(prev)) if prev == s => {}
                Some(_) => return false,
                None => {
                    iri_map.insert(g.clone(), Term::Var(s.clone()));
                }
            },
            (Some(VarSort::Val), Some(VarSort::Val)) => match val_map.get(g) {
                Some(ValueTerm::Var(prev)) if prev == s => {}
                Some(_) => return false,
                None => {
                    val_map.insert(g.clone(), ValueTerm::Var(s.clone()));
                }
            },
            _ => return false,
        }
    }
    hom_search(
        &general.atoms,
        0,
        &specific.atoms,
        &mut iri_map,
        &mut val_map,
    )
}

fn hom_search(
    gen_atoms: &[Atom],
    idx: usize,
    spec_atoms: &[Atom],
    iri_map: &mut HashMap<String, Term>,
    val_map: &mut HashMap<String, ValueTerm>,
) -> bool {
    let Some(atom) = gen_atoms.get(idx) else {
        return true; // every atom mapped
    };
    for target in spec_atoms {
        let mut added_iri: Vec<String> = Vec::new();
        let mut added_val: Vec<String> = Vec::new();
        if map_atom(
            atom,
            target,
            iri_map,
            val_map,
            &mut added_iri,
            &mut added_val,
        ) && hom_search(gen_atoms, idx + 1, spec_atoms, iri_map, val_map)
        {
            return true;
        }
        for v in added_iri {
            iri_map.remove(&v);
        }
        for v in added_val {
            val_map.remove(&v);
        }
    }
    false
}

/// Tries to extend the mapping so that `atom` lands on `target`,
/// recording newly bound variables for backtracking. On failure the
/// maps may contain the recorded additions; the caller rolls them back.
fn map_atom(
    atom: &Atom,
    target: &Atom,
    iri_map: &mut HashMap<String, Term>,
    val_map: &mut HashMap<String, ValueTerm>,
    added_iri: &mut Vec<String>,
    added_val: &mut Vec<String>,
) -> bool {
    let mut map_term = |t: &Term, onto: &Term| -> bool {
        match t {
            Term::Const(c) => matches!(onto, Term::Const(c2) if c == c2),
            Term::Var(v) => match iri_map.get(v) {
                Some(bound) => bound == onto,
                None => {
                    iri_map.insert(v.clone(), onto.clone());
                    added_iri.push(v.clone());
                    true
                }
            },
        }
    };
    match (atom, target) {
        (Atom::Concept(c1, t1), Atom::Concept(c2, t2)) if c1 == c2 => map_term(t1, t2),
        (Atom::Role(p1, s1, o1), Atom::Role(p2, s2, o2)) if p1 == p2 => {
            map_term(s1, s2) && map_term(o1, o2)
        }
        (Atom::Attribute(u1, s1, v1), Atom::Attribute(u2, s2, v2)) if u1 == u2 => {
            if !map_term(s1, s2) {
                return false;
            }
            match v1 {
                ValueTerm::Lit(l) => matches!(v2, ValueTerm::Lit(l2) if l == l2),
                ValueTerm::Var(x) => match val_map.get(x) {
                    Some(bound) => bound == v2,
                    None => {
                        val_map.insert(x.clone(), v2.clone());
                        added_val.push(x.clone());
                        true
                    }
                },
            }
        }
        _ => false,
    }
}

/// `true` when the environment disables pruning (`QUONTO_NO_PRUNE=1`) —
/// the cross-checking escape hatch.
pub fn pruning_disabled() -> bool {
    quonto::env::no_prune()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_cq;
    use obda_dllite::parse_tbox;

    fn sig() -> obda_dllite::Signature {
        parse_tbox("concept A B\nrole p\nattribute u").unwrap().sig
    }

    #[test]
    fn specialization_is_pruned() {
        let s = sig();
        // p(x, y) subsumes p(x, x) (map y ↦ x) and p(x, y), A(y).
        let general = parse_cq("q(x) :- p(x, y)", &s).unwrap();
        let diag = parse_cq("q(x) :- p(x, x)", &s).unwrap();
        let narrowed = parse_cq("q(x) :- p(x, y), A(y)", &s).unwrap();
        assert!(subsumes(&general, &diag));
        assert!(subsumes(&general, &narrowed));
        assert!(!subsumes(&diag, &general));
        let pruned = prune_ucq(&Ucq {
            disjuncts: vec![general.clone(), diag, narrowed],
        });
        assert_eq!(pruned.disjuncts, vec![general]);
    }

    #[test]
    fn later_generalization_evicts_earlier_disjuncts() {
        let s = sig();
        let diag = parse_cq("q(x) :- p(x, x)", &s).unwrap();
        let general = parse_cq("q(x) :- p(x, y)", &s).unwrap();
        let pruned = prune_ucq(&Ucq {
            disjuncts: vec![diag, general.clone()],
        });
        assert_eq!(pruned.disjuncts, vec![general]);
    }

    #[test]
    fn head_positions_block_spurious_homomorphisms() {
        let s = sig();
        // q(x, y) :- p(x, y) does not subsume q(x, y) :- p(y, x): the
        // head correspondence pins x ↦ x, y ↦ y.
        let a = parse_cq("q(x, y) :- p(x, y)", &s).unwrap();
        let b = parse_cq("q(x, y) :- p(y, x)", &s).unwrap();
        assert!(!subsumes(&a, &b));
        let pruned = prune_ucq(&Ucq {
            disjuncts: vec![a, b],
        });
        assert_eq!(pruned.disjuncts.len(), 2);
    }

    #[test]
    fn constants_and_literals_must_match() {
        let s = sig();
        let with_const = parse_cq("q(x) :- p(x, \"iri/1\")", &s).unwrap();
        let with_other = parse_cq("q(x) :- p(x, \"iri/2\")", &s).unwrap();
        let with_var = parse_cq("q(x) :- p(x, y)", &s).unwrap();
        assert!(!subsumes(&with_const, &with_other));
        assert!(subsumes(&with_var, &with_const));
        let lit5 = parse_cq("q(x) :- u(x, 5)", &s).unwrap();
        let lit6 = parse_cq("q(x) :- u(x, 6)", &s).unwrap();
        let lit_var = parse_cq("q(x) :- u(x, n)", &s).unwrap();
        assert!(!subsumes(&lit5, &lit6));
        assert!(subsumes(&lit_var, &lit5));
        assert!(!subsumes(&lit5, &lit_var));
    }

    #[test]
    fn value_typed_head_positions_are_pinned() {
        let s = sig();
        // The reviewer's counterexample: over ABox {u(a,7), u(b,5),
        // B(b)} the second query answers 7 but the first answers 5 —
        // neither may subsume the other.
        let g = parse_cq("q(n) :- u(x, n), B(x)", &s).unwrap();
        let sp = parse_cq("q(m) :- u(y, m), u(z, 5), B(z)", &s).unwrap();
        assert!(!subsumes(&g, &sp));
        assert!(!subsumes(&sp, &g));
        // Genuine value-head subsumption still holds: dropping a body
        // atom generalizes.
        let wide = parse_cq("q(n) :- u(x, n)", &s).unwrap();
        let narrow = parse_cq("q(m) :- u(y, m), B(y)", &s).unwrap();
        assert!(subsumes(&wide, &narrow));
        assert!(!subsumes(&narrow, &wide));
        // A value head must not pin the value to a literal-carrying atom
        // of a different head variable.
        let lit_body = parse_cq("q(m) :- u(y, m), u(y, 5)", &s).unwrap();
        assert!(subsumes(&wide, &lit_body));
    }

    #[test]
    fn head_sort_mismatch_is_never_subsumption() {
        let s = sig();
        let iri_head = parse_cq("q(x) :- A(x)", &s).unwrap();
        let val_head = parse_cq("q(n) :- u(y, n)", &s).unwrap();
        assert!(!subsumes(&iri_head, &val_head));
        assert!(!subsumes(&val_head, &iri_head));
        let pruned = prune_ucq(&Ucq {
            disjuncts: vec![iri_head, val_head],
        });
        assert_eq!(pruned.disjuncts.len(), 2);
    }

    #[test]
    fn mixed_iri_and_value_head_maps_independently() {
        let s = sig();
        // q(x, n) :- u(x, n) — the legal mixed-head shape from the
        // module docs. Positional pinning keeps subject and value
        // aligned.
        let g = parse_cq("q(x, n) :- u(x, n)", &s).unwrap();
        let sp = parse_cq("q(y, m) :- u(y, m), B(y)", &s).unwrap();
        assert!(subsumes(&g, &sp));
        assert!(!subsumes(&sp, &g));
    }

    #[test]
    fn incomparable_disjuncts_survive() {
        let s = sig();
        let a = parse_cq("q(x) :- A(x)", &s).unwrap();
        let b = parse_cq("q(x) :- B(x)", &s).unwrap();
        let pruned = prune_ucq(&Ucq {
            disjuncts: vec![a, b],
        });
        assert_eq!(pruned.disjuncts.len(), 2);
    }

    #[test]
    fn repeated_head_variable_maps_consistently() {
        let s = sig();
        // q(x, x) :- p(x, x) vs q(x, y) :- p(x, y): arity matches but
        // the doubled head of the first must map both positions to the
        // same target variable.
        let doubled = parse_cq("q(x, x) :- p(x, x)", &s).unwrap();
        let pair = parse_cq("q(x, y) :- p(x, y)", &s).unwrap();
        assert!(!subsumes(&doubled, &pair));
        assert!(subsumes(&pair, &doubled));
    }
}
