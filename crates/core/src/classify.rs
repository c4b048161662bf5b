//! Ontology classification: the crate's headline service.
//!
//! [`Classification::classify`] runs the paper's two-step technique —
//! build the digraph (Definition 1), compute its transitive closure
//! (`Φ_T`, Theorem 1), then `computeUnsat` (`Ω_T`) — and packages the
//! result behind a query API over *named* predicates (atomic concepts,
//! atomic roles, attributes) as well as arbitrary basic expressions.
//!
//! Subsumption semantics: `T ⊨ S₁ ⊑ S₂` iff `S₁` is unsatisfiable (an
//! empty predicate is subsumed by everything of its sort) or `S₂` is
//! reachable from `S₁` in the closure.

use obda_dllite::{AttributeId, BasicConcept, BasicRole, ConceptId, NamedPredicate, RoleId, Tbox};

use crate::closure::{recommended, Closure, ClosureEngine};
use crate::graph::{NodeId, NodeKind, TboxGraph};
use crate::unsat::{compute_unsat, UnsatSet};

/// The result of classifying a TBox: digraph, transitive closure and
/// unsatisfiable-node set, with query and materialization APIs.
#[derive(Debug, Clone)]
pub struct Classification {
    graph: TboxGraph,
    closure: Closure,
    unsat: UnsatSet,
}

impl Classification {
    /// Classifies `tbox` with the default closure engine.
    pub fn classify(tbox: &Tbox) -> Self {
        Self::classify_with(tbox, recommended().as_ref())
    }

    /// Classifies `tbox` with an explicit closure engine (used by the
    /// ablation benchmarks).
    ///
    /// With `QUONTO_TIMINGS=1` in the environment, prints a one-line
    /// phase breakdown (graph build / closure / unsat, engine name and
    /// thread count) to stderr — consumed by `figure1 --verbose`.
    pub fn classify_with(tbox: &Tbox, engine: &dyn ClosureEngine) -> Self {
        let timings = crate::env::timings_enabled();
        let t0 = std::time::Instant::now();
        let graph = TboxGraph::build(tbox);
        let t1 = std::time::Instant::now();
        let closure = engine.compute(&graph);
        let t2 = std::time::Instant::now();
        let unsat = compute_unsat(&graph);
        if timings {
            let t3 = std::time::Instant::now();
            eprintln!(
                "quonto-timings engine={} threads={} nodes={} graph_ms={:.2} closure_ms={:.2} unsat_ms={:.2}",
                engine.name(),
                engine.threads(),
                graph.num_nodes(),
                (t1 - t0).as_secs_f64() * 1e3,
                (t2 - t1).as_secs_f64() * 1e3,
                (t3 - t2).as_secs_f64() * 1e3,
            );
        }
        Classification {
            graph,
            closure,
            unsat,
        }
    }

    /// Incrementally extends the classification with new axioms over the
    /// *existing* signature (ids out of range panic). Positive arcs update
    /// the closure with the one-edge algorithm; the unsatisfiable set is
    /// recomputed (it is near-linear, unlike the closure). The caller is
    /// responsible for also recording the axioms in its `Tbox`.
    pub fn add_axioms(&mut self, axioms: &[obda_dllite::Axiom]) {
        for ax in axioms {
            for (from, to) in self.graph.insert_axiom(ax) {
                self.closure.insert_edge(&self.graph, from, to);
            }
        }
        // Any axiom (negative, qualified or a new arc) can grow the
        // unsatisfiable set; recomputing is cheap relative to closure.
        if !axioms.is_empty() {
            self.unsat = compute_unsat(&self.graph);
        }
    }

    /// The underlying digraph.
    pub fn graph(&self) -> &TboxGraph {
        &self.graph
    }

    /// The transitive closure.
    pub fn closure(&self) -> &Closure {
        &self.closure
    }

    /// The unsatisfiable-node set.
    pub fn unsat(&self) -> &UnsatSet {
        &self.unsat
    }

    /// Whether `T ⊨ B₁ ⊑ B₂` for basic concepts.
    pub fn subsumed_concept(&self, b1: BasicConcept, b2: BasicConcept) -> bool {
        let n1 = self.graph.concept_node(b1);
        self.unsat.contains(n1) || self.closure.reaches(n1, self.graph.concept_node(b2))
    }

    /// Whether `T ⊨ Q₁ ⊑ Q₂` for basic roles.
    pub fn subsumed_role(&self, q1: BasicRole, q2: BasicRole) -> bool {
        let n1 = self.graph.role_node(q1);
        self.unsat.contains(n1) || self.closure.reaches(n1, self.graph.role_node(q2))
    }

    /// Whether `T ⊨ U₁ ⊑ U₂` for attributes.
    pub fn subsumed_attr(&self, u1: AttributeId, u2: AttributeId) -> bool {
        let n1 = self.graph.attr_node(u1);
        self.unsat.contains(n1) || self.closure.reaches(n1, self.graph.attr_node(u2))
    }

    /// Whether an atomic concept is unsatisfiable.
    pub fn concept_unsat(&self, a: ConceptId) -> bool {
        self.unsat.contains(self.graph.atomic_node(a))
    }

    /// Whether an atomic role is unsatisfiable.
    pub fn role_unsat(&self, p: RoleId) -> bool {
        self.unsat
            .contains(self.graph.role_node(BasicRole::Direct(p)))
    }

    /// Whether an attribute is unsatisfiable.
    pub fn attr_unsat(&self, u: AttributeId) -> bool {
        self.unsat.contains(self.graph.attr_node(u))
    }

    /// All unsatisfiable atomic concepts, ascending.
    pub fn unsat_concepts(&self) -> Vec<ConceptId> {
        self.unsat
            .members()
            .iter()
            .filter_map(|&v| match self.graph.node_kind(NodeId(v)) {
                NodeKind::Concept(a) => Some(a),
                _ => None,
            })
            .collect()
    }

    /// All unsatisfiable atomic roles, ascending.
    pub fn unsat_roles(&self) -> Vec<RoleId> {
        self.unsat
            .members()
            .iter()
            .filter_map(|&v| match self.graph.node_kind(NodeId(v)) {
                NodeKind::Role(p, false) => Some(p),
                _ => None,
            })
            .collect()
    }

    /// All unsatisfiable attributes, ascending.
    pub fn unsat_attributes(&self) -> Vec<AttributeId> {
        self.unsat
            .members()
            .iter()
            .filter_map(|&v| match self.graph.node_kind(NodeId(v)) {
                NodeKind::Attr(u) => Some(u),
                _ => None,
            })
            .collect()
    }

    /// Named (atomic-concept) subsumers of `a`, excluding `a` itself. For
    /// an unsatisfiable concept this is *every* other concept; callers that
    /// only want informative subsumers should check
    /// [`Classification::concept_unsat`] first.
    pub fn concept_subsumers(&self, a: ConceptId) -> Vec<ConceptId> {
        if self.concept_unsat(a) {
            return (0..self.graph.num_concepts())
                .filter(|&i| i != a.0)
                .map(ConceptId)
                .collect();
        }
        let n = self.graph.atomic_node(a);
        self.closure
            .successors(n)
            .iter()
            .filter_map(|&v| match self.graph.node_kind(NodeId(v)) {
                NodeKind::Concept(b) if b != a => Some(b),
                _ => None,
            })
            .collect()
    }

    /// Named (role) subsumers of the basic role `q`, as basic roles,
    /// excluding `q` itself. For an unsatisfiable role this is every basic
    /// role over the signature except `q`.
    pub fn role_subsumers(&self, q: BasicRole) -> Vec<BasicRole> {
        let n = self.graph.role_node(q);
        if self.unsat.contains(n) {
            let mut out = Vec::new();
            for p in 0..self.graph.num_roles() {
                for cand in [BasicRole::Direct(RoleId(p)), BasicRole::Inverse(RoleId(p))] {
                    if cand != q {
                        out.push(cand);
                    }
                }
            }
            return out;
        }
        self.closure
            .successors(n)
            .iter()
            .filter_map(|&v| match self.graph.node_kind(NodeId(v)) {
                NodeKind::Role(p, inv) => {
                    let cand = if inv {
                        BasicRole::Inverse(p)
                    } else {
                        BasicRole::Direct(p)
                    };
                    (cand != q).then_some(cand)
                }
                _ => None,
            })
            .collect()
    }

    /// All non-trivial subsumption pairs between *satisfiable* named
    /// predicates (the canonical classification output compared across
    /// reasoners in the Figure 1 benchmark; unsatisfiable predicates are
    /// reported separately by the `unsat_*` accessors since materializing
    /// their subsumptions would be quadratic noise).
    pub fn named_subsumptions(&self) -> Vec<(NamedPredicate, NamedPredicate)> {
        let mut out = Vec::new();
        for n in self.graph.nodes() {
            if self.unsat.contains(n) {
                continue;
            }
            let from = match self.graph.node_kind(n) {
                NodeKind::Concept(a) => NamedPredicate::Concept(a),
                NodeKind::Role(p, false) => NamedPredicate::Role(p),
                NodeKind::Attr(u) => NamedPredicate::Attribute(u),
                _ => continue,
            };
            for &v in self.closure.successors(n) {
                if v == n.0 {
                    continue;
                }
                let to = match self.graph.node_kind(NodeId(v)) {
                    NodeKind::Concept(a) => NamedPredicate::Concept(a),
                    NodeKind::Role(p, false) => NamedPredicate::Role(p),
                    NodeKind::Attr(u) => NamedPredicate::Attribute(u),
                    _ => continue,
                };
                out.push((from, to));
            }
        }
        out
    }

    /// Equivalence classes of satisfiable atomic concepts with more than
    /// one member (mutual subsumption), each sorted ascending.
    pub fn concept_equivalence_classes(&self) -> Vec<Vec<ConceptId>> {
        let mut seen = vec![false; self.graph.num_concepts() as usize];
        let mut classes = Vec::new();
        for i in 0..self.graph.num_concepts() {
            let a = ConceptId(i);
            if seen[i as usize] || self.concept_unsat(a) {
                continue;
            }
            let n = self.graph.atomic_node(a);
            let mut class = vec![a];
            for &v in self.closure.successors(n) {
                if v == n.0 {
                    continue;
                }
                if let NodeKind::Concept(b) = self.graph.node_kind(NodeId(v)) {
                    if !self.concept_unsat(b) && self.closure.reaches(NodeId(v), n) {
                        class.push(b);
                        seen[b.0 as usize] = true;
                    }
                }
            }
            seen[i as usize] = true;
            if class.len() > 1 {
                class.sort_unstable();
                classes.push(class);
            }
        }
        classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_dllite::parse_tbox;

    #[test]
    fn transitive_subsumption_and_subsumers() {
        let t = parse_tbox("concept A B C\nA [= B\nB [= C").unwrap();
        let c = Classification::classify(&t);
        let (a, b, cc) = (
            t.sig.find_concept("A").unwrap(),
            t.sig.find_concept("B").unwrap(),
            t.sig.find_concept("C").unwrap(),
        );
        assert!(c.subsumed_concept(a.into(), cc.into()));
        assert!(!c.subsumed_concept(cc.into(), a.into()));
        assert_eq!(c.concept_subsumers(a), vec![b, cc]);
        assert!(c.concept_subsumers(cc).is_empty());
    }

    #[test]
    fn unsat_concept_is_subsumed_by_everything() {
        let t = parse_tbox("concept A B C\nA [= B\nA [= C\nB [= not C").unwrap();
        let c = Classification::classify(&t);
        let a = t.sig.find_concept("A").unwrap();
        let b = t.sig.find_concept("B").unwrap();
        assert_eq!(c.unsat_concepts(), vec![a]);
        assert!(c.subsumed_concept(a.into(), b.into()));
        assert_eq!(c.concept_subsumers(a).len(), 2);
        // B itself stays satisfiable and keeps only its real subsumers.
        assert!(c.concept_subsumers(b).is_empty());
    }

    #[test]
    fn role_subsumers_include_inverses() {
        let t = parse_tbox("role p r\np [= inv(r)").unwrap();
        let c = Classification::classify(&t);
        let p = t.sig.find_role("p").unwrap();
        let r = t.sig.find_role("r").unwrap();
        assert_eq!(
            c.role_subsumers(BasicRole::Direct(p)),
            vec![BasicRole::Inverse(r)]
        );
        assert_eq!(
            c.role_subsumers(BasicRole::Inverse(p)),
            vec![BasicRole::Direct(r)]
        );
        assert!(c.subsumed_role(BasicRole::Direct(p), BasicRole::Inverse(r)));
    }

    #[test]
    fn named_subsumptions_exclude_unsat_and_existentials() {
        let t = parse_tbox("concept A B C\nrole p\nA [= B\nC [= not C\nA [= exists p").unwrap();
        let c = Classification::classify(&t);
        let subs = c.named_subsumptions();
        // Only A ⊑ B is a named–named pair between satisfiable predicates:
        // A ⊑ ∃p has a non-named right side; C is unsatisfiable.
        assert_eq!(subs.len(), 1);
    }

    #[test]
    fn equivalence_classes_from_cycles() {
        let t = parse_tbox("concept A B C D\nA [= B\nB [= A\nC [= D").unwrap();
        let c = Classification::classify(&t);
        let classes = c.concept_equivalence_classes();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].len(), 2);
    }

    #[test]
    fn attribute_subsumption() {
        let t = parse_tbox("attribute u w z\nu [= w\nw [= z").unwrap();
        let c = Classification::classify(&t);
        let u = t.sig.find_attribute("u").unwrap();
        let z = t.sig.find_attribute("z").unwrap();
        assert!(c.subsumed_attr(u, z));
        assert!(!c.subsumed_attr(z, u));
        assert!(c.unsat_attributes().is_empty());
    }
}
