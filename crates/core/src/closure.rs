//! Precomputed transitive closure of the ground fragment of `H_C`.
//!
//! The deterministic prover (Theorems 1–3) answers a *ground* goal
//! `τ₁ ⪰ τ₂` by searching ε-expansion chains: it either decomposes equal
//! functors argument-wise or rewrites the supertype through a defining
//! constraint (Definition 7). On the ground fragment that search is a plain
//! graph-reachability question, and guardedness (Definition 9) makes the
//! relevant graph finite: starting from the nullary type constructors, the
//! set of ground types reachable by expansion is closed and small. This
//! module computes that graph **once per module load**, collapses it with
//! Tarjan's SCC algorithm, and stores the transitive closure as bitsets —
//! after which a ground `t1 >= t2` query answers in O(1)-ish time with no
//! prover, no proof table, no lock, and no allocation.
//!
//! # What exactly is precomputed
//!
//! *Nodes* are the ground types reachable from the nullary type constructors
//! of the signature by constraint expansion, plus all their subterms (so a
//! decomposition step can stay inside the node set). Node terms live in a
//! [`TermArena`]; node metadata (functor, child node indices) is flat.
//! *Edges* are the ε-rewritings `c(t̄) →_C σ` of Definition 7. `reach[i]`
//! is the bitset of nodes reachable from node `i` by zero or more ε-steps.
//!
//! A query `decide(sup, sub)` then mirrors the prover's ground semantics:
//!
//! * `sup` must be a node (otherwise the closure abstains — `None`);
//! * if `sub` is itself a node, bit `sub ∈ reach[sup]` answers positively
//!   in O(1); for nullary `sub` the bit is *complete* (reaching a nullary
//!   type is the only way to derive it);
//! * otherwise `sub` is decomposed: some reachable node must share its
//!   functor and arity and relate argument-wise (recursing on strictly
//!   smaller subterms of `sub`).
//!
//! The abstention path is what keeps the closure sound: anything involving
//! variables, parameterized types outside the nullary-reachable fragment
//! (`list(int)` is *not* a node unless some nullary type expands to it), or
//! an oversized graph (see [`GroundClosure::is_disabled`]) falls back to the
//! tabled prover. A differential proptest (`tests/prop_closure.rs`) pins
//! `decide` ≡ untabled prover ≡ tabled ≡ sharded at exact-`Proof` equality.
//!
//! # Invalidation contract (serve deltas)
//!
//! The closure depends only on the *defining constraint lists of the type
//! constructors that appear in its node set* (the "watched" constructors —
//! recorded even when the list is empty, so a first constraint added to a
//! watched constructor is noticed). [`GroundClosure::compatible_with`]
//! checks exactly that, which gives `slp serve` a cheap adoption rule for
//! incremental loads: a delta that leaves every watched list untouched
//! (appending clauses, adding constraints on unwatched parameterized
//! constructors, declaring new symbols) reuses the old closure `Arc`; any
//! delta editing a watched list rebuilds. New nullary constructors in an
//! extended signature are safe to adopt across: they are simply absent from
//! the node map, so queries about them abstain and take the prover path.

use std::collections::{BTreeMap, HashMap, VecDeque};

use lp_term::{Signature, Sym, SymKind, Term};

use crate::arena::{TermArena, TermId};
use crate::constraint::{ConstraintSet, SubtypeConstraint};

/// Hard cap on the number of nodes enrolled before the closure gives up and
/// disables itself (falling back to the prover for everything). Guardedness
/// keeps real modules far below this.
const NODE_CAP: usize = 1024;
/// Hard cap on the size of any single enrolled ground type.
const TERM_SIZE_CAP: usize = 64;

/// Build-time statistics, reported through the `closure.build` trace event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Ground types enrolled as nodes.
    pub nodes: usize,
    /// ε-expansion edges between nodes.
    pub edges: usize,
    /// Strongly connected components of the ε-graph (equals `nodes` when the
    /// graph is a DAG, which guardedness guarantees for checked sets).
    pub sccs: usize,
}

/// Verdict of the closure on a conjunction of subtype goals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClosureVerdict {
    /// Every goal is ground and derivable: the conjunction is proved with
    /// the empty substitution.
    Proved,
    /// Some goal is ground and decided non-derivable: the conjunction is
    /// refuted.
    Refuted,
    /// At least one side of some goal is non-ground (or the closure is
    /// disabled): the expected prover fallback, not a closure miss.
    NotGround,
    /// All goals are ground but at least one supertype lies outside the
    /// precomputed node set; counts as a `closure_misses` fallback.
    Miss,
}

/// The precomputed ground-fragment closure. Immutable once built; shared
/// across provers and serve generations behind an `Arc`.
#[derive(Debug, Clone)]
pub struct GroundClosure {
    /// True when the build hit [`NODE_CAP`]/[`TERM_SIZE_CAP`]; every query
    /// then abstains.
    disabled: bool,
    /// Node terms, stored flat.
    arena: TermArena,
    /// Arena handle of each node's term.
    node_term: Vec<TermId>,
    /// Functor of each node (every node is a ground application).
    node_sym: Vec<Sym>,
    /// Indexed by [`Sym::index`]: whether some node has that functor.
    node_functor: Vec<bool>,
    /// Child *node* indices of each node.
    node_args: Vec<Vec<u32>>,
    /// Term → node index. Owned keys; queries look up with a borrowed term.
    index: HashMap<Term, u32>,
    /// Bitset words per reachability row.
    words: usize,
    /// Row-major reachability bitsets: node `j` is ε-reachable from node `i`
    /// iff bit `j` of row `i` is set. Every row includes its own node.
    reach: Vec<u64>,
    /// The defining constraint lists this closure was built against, for
    /// every type constructor appearing in the node set.
    watched: BTreeMap<Sym, Vec<SubtypeConstraint>>,
    stats: BuildStats,
}

struct Builder<'a> {
    sig: &'a Signature,
    set: &'a ConstraintSet,
    arena: TermArena,
    node_term: Vec<TermId>,
    node_sym: Vec<Sym>,
    node_args: Vec<Vec<u32>>,
    index: HashMap<Term, u32>,
    eps: Vec<Vec<u32>>,
    watched: BTreeMap<Sym, Vec<SubtypeConstraint>>,
    queue: VecDeque<u32>,
    overflow: bool,
}

impl<'a> Builder<'a> {
    /// Enrolls a ground type (and, first, all its subterms) as a node.
    /// Returns `None` on overflow or on a non-application (which cannot
    /// occur for checked sets: nullary-lhs constraints have ground rhs).
    fn enroll(&mut self, t: &Term) -> Option<u32> {
        if let Some(&i) = self.index.get(t) {
            return Some(i);
        }
        if self.node_sym.len() >= NODE_CAP || t.size() > TERM_SIZE_CAP {
            self.overflow = true;
            return None;
        }
        let Term::App(sym, args) = t else {
            self.overflow = true;
            return None;
        };
        let mut kid_nodes = Vec::with_capacity(args.len());
        let mut kid_ids = Vec::with_capacity(args.len());
        for a in args {
            let ci = self.enroll(a)?;
            kid_nodes.push(ci);
            kid_ids.push(self.node_term[ci as usize]);
        }
        let id = self.arena.app(*sym, &kid_ids);
        let i = self.node_sym.len() as u32;
        self.node_term.push(id);
        self.node_sym.push(*sym);
        self.node_args.push(kid_nodes);
        self.eps.push(Vec::new());
        self.index.insert(t.clone(), i);
        self.queue.push_back(i);
        Some(i)
    }

    /// Expands node `i` (if constructor-headed): records its watched list
    /// and adds ε-edges to each instantiated right-hand side.
    fn expand(&mut self, i: u32) {
        let sym = self.node_sym[i as usize];
        if self.sig.kind(sym) != SymKind::TypeCtor {
            return;
        }
        self.watched
            .entry(sym)
            .or_insert_with(|| self.set.for_ctor(sym).cloned().collect());
        let ty = self.arena.term(self.node_term[i as usize]);
        let args = ty.args().to_vec();
        let cons: Vec<SubtypeConstraint> = self
            .set
            .for_ctor(sym)
            .filter(|con| con.params().len() == args.len())
            .cloned()
            .collect();
        for con in cons {
            let rhs = instantiate(&con, &args);
            match self.enroll(&rhs) {
                Some(j) => self.eps[i as usize].push(j),
                None => return,
            }
        }
    }
}

/// Instantiates a uniform constraint's right-hand side at ground arguments:
/// the paper's `τ{α₁ ↦ t₁, …, αₙ ↦ tₙ}`, here a plain variable map because
/// uniformity makes the parameters distinct variables.
fn instantiate(con: &SubtypeConstraint, args: &[Term]) -> Term {
    let mut map: HashMap<lp_term::Var, &Term> = HashMap::new();
    for (p, a) in con.params().iter().zip(args) {
        if let Term::Var(v) = p {
            map.insert(*v, a);
        }
    }
    con.rhs
        .map_vars(&mut |v| map.get(&v).map(|t| (*t).clone()).unwrap_or(Term::Var(v)))
}

impl GroundClosure {
    /// Computes the closure for a constraint set over `sig`. Called once per
    /// module load (from [`ConstraintSet::checked`]); the set is expected to
    /// already satisfy uniformity, so parameters are distinct variables.
    pub fn build(sig: &Signature, set: &ConstraintSet) -> GroundClosure {
        let mut b = Builder {
            sig,
            set,
            arena: TermArena::new(),
            node_term: Vec::new(),
            node_sym: Vec::new(),
            node_args: Vec::new(),
            index: HashMap::new(),
            eps: Vec::new(),
            watched: BTreeMap::new(),
            queue: VecDeque::new(),
            overflow: false,
        };
        // Seed with every constructor usable as a ground constant. An unfixed
        // arity (`None`) means the module never applied the constructor to
        // arguments, so treating it as nullary matches every possible goal.
        for sym in sig.symbols_of_kind(SymKind::TypeCtor) {
            if matches!(sig.arity(sym), Some(0) | None) {
                b.enroll(&Term::constant(sym));
            }
        }
        while let Some(i) = b.queue.pop_front() {
            if b.overflow {
                break;
            }
            b.expand(i);
        }
        if b.overflow {
            return GroundClosure {
                disabled: true,
                arena: TermArena::new(),
                node_term: Vec::new(),
                node_sym: Vec::new(),
                node_functor: Vec::new(),
                node_args: Vec::new(),
                index: HashMap::new(),
                words: 0,
                reach: Vec::new(),
                watched: BTreeMap::new(),
                stats: BuildStats::default(),
            };
        }

        let n = b.node_sym.len();
        let edges = b.eps.iter().map(Vec::len).sum();
        let (comp, comp_order) = tarjan_sccs(n, &b.eps);
        let words = n.div_ceil(64).max(1);
        // Tarjan emits components sinks-first (reverse topological order), so
        // one pass computes each component's row from its members plus the
        // already-finished rows of its successors.
        let mut comp_rows: Vec<Vec<u64>> = vec![Vec::new(); comp_order.len()];
        for (c, members) in comp_order.iter().enumerate() {
            let mut row = vec![0u64; words];
            for &m in members {
                row[m / 64] |= 1u64 << (m % 64);
                for &j in &b.eps[m] {
                    let tc = comp[j as usize];
                    if tc != c {
                        for (w, r) in row.iter_mut().zip(&comp_rows[tc]) {
                            *w |= *r;
                        }
                    }
                }
            }
            comp_rows[c] = row;
        }
        let mut node_functor = Vec::new();
        for sym in &b.node_sym {
            if node_functor.len() <= sym.index() {
                node_functor.resize(sym.index() + 1, false);
            }
            node_functor[sym.index()] = true;
        }
        let mut reach = vec![0u64; n * words];
        for i in 0..n {
            reach[i * words..(i + 1) * words].copy_from_slice(&comp_rows[comp[i]]);
        }
        GroundClosure {
            disabled: false,
            arena: b.arena,
            node_term: b.node_term,
            node_sym: b.node_sym,
            node_functor,
            node_args: b.node_args,
            index: b.index,
            words,
            reach,
            watched: b.watched,
            stats: BuildStats {
                nodes: n,
                edges,
                sccs: comp_order.len(),
            },
        }
    }

    /// Build statistics (zeroed when disabled).
    pub fn stats(&self) -> BuildStats {
        self.stats
    }

    /// Whether the build overflowed its caps; a disabled closure abstains on
    /// every query.
    pub fn is_disabled(&self) -> bool {
        self.disabled
    }

    /// Number of enrolled ground types.
    pub fn node_count(&self) -> usize {
        self.node_sym.len()
    }

    /// Rebuilds every enrolled ground type from the arena, in enrollment
    /// order. Off the hot path: diagnostics and tests.
    pub fn node_terms(&self) -> impl Iterator<Item = Term> + '_ {
        self.node_term.iter().map(|&id| self.arena.term(id))
    }

    /// Whether this closure is still valid for `set`: every watched type
    /// constructor must define exactly the same constraint list. This is the
    /// serve-delta adoption rule — see the module docs.
    pub fn compatible_with(&self, set: &ConstraintSet) -> bool {
        !self.disabled
            && self
                .watched
                .iter()
                .all(|(sym, cons)| set.for_ctor(*sym).eq(cons.iter()))
    }

    fn reach_bit(&self, i: u32, j: u32) -> bool {
        let row = i as usize * self.words;
        self.reach[row + j as usize / 64] & (1u64 << (j as usize % 64)) != 0
    }

    /// Decides a single ground goal `sup >= sub`, abstaining (`None`) when
    /// either side is non-ground, the closure is disabled, or `sup` is
    /// outside the node set.
    pub fn decide(&self, sup: &Term, sub: &Term) -> Option<bool> {
        if !sub.is_ground() {
            return None;
        }
        self.decide_ground(sup, sub)
    }

    /// [`GroundClosure::decide`] for a caller that already knows `sub` is
    /// ground, saving the scan.
    pub(crate) fn decide_ground(&self, sup: &Term, sub: &Term) -> Option<bool> {
        if self.disabled {
            return None;
        }
        let &i = self.index.get(sup)?;
        Some(self.decide_idx(i, sub))
    }

    /// Core decision: `sub` is ground, `i` is a node. Mirrors the prover's
    /// ground search exactly — either `sub` is ε-reachable as a node, or
    /// some ε-reachable node decomposes against it functor-wise.
    fn decide_idx(&self, i: u32, sub: &Term) -> bool {
        let Term::App(f, fargs) = sub else {
            return false;
        };
        // A functor no node carries can neither be a node nor decompose
        // against one; rejecting it here spares hashing all of `sub`.
        if !self.node_functor.get(f.index()).copied().unwrap_or(false) {
            return false;
        }
        if let Some(&j) = self.index.get(sub) {
            if self.reach_bit(i, j) {
                return true;
            }
            if self.node_args[j as usize].is_empty() {
                // Nullary: decomposition degenerates to equality, which is
                // the same node — the bit was the complete answer.
                return false;
            }
        }
        if fargs.is_empty() {
            // A ground constant not in the node set can only be derived via
            // equality with a node, which the map lookup ruled out.
            return false;
        }
        let row = i as usize * self.words;
        for w in 0..self.words {
            let mut bits = self.reach[row + w];
            while bits != 0 {
                let j = (w * 64 + bits.trailing_zeros() as usize) as u32;
                bits &= bits - 1;
                if self.node_sym[j as usize] == *f
                    && self.node_args[j as usize].len() == fargs.len()
                    && self.node_args[j as usize]
                        .iter()
                        .zip(fargs)
                        .all(|(&cj, a)| self.decide_idx(cj, a))
                {
                    return true;
                }
            }
        }
        false
    }

    /// Decides a conjunction of goals the way the rigid-goal prover entry
    /// points would: [`ClosureVerdict::Proved`] means exactly
    /// `Proof::Proved(Subst::new())`, [`ClosureVerdict::Refuted`] exactly
    /// `Proof::Refuted`. An empty conjunction is vacuously proved.
    pub fn decide_goals(&self, goals: &[(Term, Term)]) -> ClosureVerdict {
        if self.disabled {
            return ClosureVerdict::NotGround;
        }
        if goals
            .iter()
            .any(|(sup, sub)| !sup.is_ground() || !sub.is_ground())
        {
            return ClosureVerdict::NotGround;
        }
        let mut miss = false;
        for (sup, sub) in goals {
            match self.index.get(sup) {
                Some(&i) => {
                    if !self.decide_idx(i, sub) {
                        // The prover refutes the conjunction at its first
                        // failing ground goal regardless of the others.
                        return ClosureVerdict::Refuted;
                    }
                }
                None => miss = true,
            }
        }
        if miss {
            ClosureVerdict::Miss
        } else {
            ClosureVerdict::Proved
        }
    }
}

/// Iterative-enough Tarjan over the ε-graph. Returns `comp[i]` (the SCC id
/// of node `i`) and the components in emission order (sinks first, i.e.
/// reverse topological order of the condensation).
fn tarjan_sccs(n: usize, eps: &[Vec<u32>]) -> (Vec<usize>, Vec<Vec<usize>>) {
    struct State<'a> {
        eps: &'a [Vec<u32>],
        idx: Vec<Option<u32>>,
        low: Vec<u32>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next: u32,
        comp: Vec<usize>,
        comps: Vec<Vec<usize>>,
    }
    fn visit(s: &mut State, v: usize) {
        s.idx[v] = Some(s.next);
        s.low[v] = s.next;
        s.next += 1;
        s.stack.push(v);
        s.on_stack[v] = true;
        for k in 0..s.eps[v].len() {
            let w = s.eps[v][k] as usize;
            match s.idx[w] {
                None => {
                    visit(s, w);
                    s.low[v] = s.low[v].min(s.low[w]);
                }
                Some(wi) => {
                    if s.on_stack[w] {
                        s.low[v] = s.low[v].min(wi);
                    }
                }
            }
        }
        if Some(s.low[v]) == s.idx[v] {
            let c = s.comps.len();
            let mut members = Vec::new();
            loop {
                let w = s.stack.pop().expect("tarjan stack underflow");
                s.on_stack[w] = false;
                s.comp[w] = c;
                members.push(w);
                if w == v {
                    break;
                }
            }
            s.comps.push(members);
        }
    }
    let mut s = State {
        eps,
        idx: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next: 0,
        comp: vec![0; n],
        comps: Vec::new(),
    };
    for v in 0..n {
        if s.idx[v].is_none() {
            visit(&mut s, v);
        }
    }
    (s.comp, s.comps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prover::tests::world;
    use lp_term::Var;

    fn closure_of(w: &crate::prover::tests::World) -> GroundClosure {
        GroundClosure::build(&w.sig, w.cs.as_set())
    }

    #[test]
    fn nullary_judgements_answer_from_the_bitset() {
        let w = world();
        let c = closure_of(&w);
        assert!(!c.is_disabled());
        assert!(c.stats().nodes > 0);
        assert_eq!(c.stats().sccs, c.stats().nodes, "guarded ε-graph is a DAG");
        assert_eq!(
            c.decide(&Term::constant(w.int), &Term::constant(w.nat)),
            Some(true)
        );
        assert_eq!(
            c.decide(&Term::constant(w.nat), &Term::constant(w.int)),
            Some(false)
        );
        assert_eq!(
            c.decide(&Term::constant(w.int), &Term::constant(w.unnat)),
            Some(true)
        );
        assert_eq!(
            c.decide(&Term::constant(w.elist), &Term::constant(w.nil)),
            Some(true)
        );
        assert_eq!(
            c.decide(&Term::constant(w.nat), &Term::constant(w.nat)),
            Some(true)
        );
    }

    #[test]
    fn non_node_subtypes_decide_by_decomposition() {
        let w = world();
        let c = closure_of(&w);
        // succ(succ(0)) is not a node, but succ(nat) is reachable from nat
        // and decomposes against it — twice.
        assert_eq!(c.decide(&Term::constant(w.nat), &w.num(2)), Some(true));
        assert_eq!(c.decide(&Term::constant(w.int), &w.num(-2)), Some(true));
        assert_eq!(c.decide(&Term::constant(w.nat), &w.num(-1)), Some(false));
        // A ground constant outside the node set refutes immediately.
        assert_eq!(
            c.decide(&Term::constant(w.nat), &Term::constant(w.foo)),
            Some(false)
        );
    }

    #[test]
    fn abstains_outside_its_fragment() {
        let w = world();
        let c = closure_of(&w);
        // Parameterized supertype: not a node, even though fully ground.
        let list_int = Term::app(w.list, vec![Term::constant(w.int)]);
        assert_eq!(c.decide(&list_int, &Term::constant(w.elist)), None);
        // Either side non-ground.
        let x = Term::Var(Var(900));
        assert_eq!(c.decide(&Term::constant(w.nat), &x), None);
        assert_eq!(c.decide(&x, &Term::constant(w.nat)), None);
    }

    #[test]
    fn goal_conjunctions_follow_prover_semantics() {
        let w = world();
        let c = closure_of(&w);
        let int = Term::constant(w.int);
        let nat = Term::constant(w.nat);
        let list_int = Term::app(w.list, vec![int.clone()]);
        let elist = Term::constant(w.elist);
        assert_eq!(
            c.decide_goals(&[]),
            ClosureVerdict::Proved,
            "empty conjunction"
        );
        assert_eq!(
            c.decide_goals(&[
                (int.clone(), nat.clone()),
                (elist.clone(), Term::constant(w.nil))
            ]),
            ClosureVerdict::Proved
        );
        // One refuted ground goal refutes the conjunction even when another
        // goal's supertype is outside the node set.
        assert_eq!(
            c.decide_goals(&[
                (list_int.clone(), elist.clone()),
                (nat.clone(), int.clone())
            ]),
            ClosureVerdict::Refuted
        );
        assert_eq!(
            c.decide_goals(&[
                (list_int.clone(), elist.clone()),
                (int.clone(), nat.clone())
            ]),
            ClosureVerdict::Miss
        );
        assert_eq!(
            c.decide_goals(&[(int.clone(), Term::Var(Var(901)))]),
            ClosureVerdict::NotGround
        );
    }

    #[test]
    fn compatibility_tracks_watched_constraint_lists() {
        let w = world();
        let c = closure_of(&w);
        assert!(c.compatible_with(w.cs.as_set()));
        // Editing a watched (nullary, enrolled) constructor's list rebuilds.
        let mut changed = w.cs.as_set().clone();
        changed
            .add(&w.sig, Term::constant(w.nat), Term::constant(w.foo))
            .unwrap();
        assert!(!c.compatible_with(&changed));
    }

    #[test]
    fn unbounded_expansion_disables_the_closure() {
        use lp_term::{Signature, SymKind};
        let mut sig = Signature::new();
        let f = sig.declare_with_arity("f", SymKind::Func, 1).unwrap();
        let a = sig.declare_with_arity("a", SymKind::TypeCtor, 0).unwrap();
        let b = sig.declare_with_arity("b", SymKind::TypeCtor, 1).unwrap();
        let mut cs = ConstraintSet::new();
        cs.add(
            &sig,
            Term::constant(a),
            Term::app(b, vec![Term::constant(a)]),
        )
        .unwrap();
        // b(X) >= b(f(X)): every expansion grows the term, so enrollment
        // must trip a cap and fall back to the prover wholesale.
        let x = Term::Var(lp_term::Var(0));
        cs.add(
            &sig,
            Term::app(b, vec![x.clone()]),
            Term::app(b, vec![Term::app(f, vec![x.clone()])]),
        )
        .unwrap();
        let c = GroundClosure::build(&sig, &cs);
        assert!(c.is_disabled());
        assert_eq!(c.decide(&Term::constant(a), &Term::constant(a)), None);
        assert_eq!(
            c.decide_goals(&[(Term::constant(a), Term::constant(a))]),
            ClosureVerdict::NotGround
        );
        assert!(
            !c.compatible_with(&cs),
            "a disabled closure is never adopted"
        );
    }
}
