//! Symbol resolution: turns the syntactic AST into signature-checked terms.
//!
//! The loader enforces the paper's syntactic discipline:
//!
//! * `F`, `T`, `P` are disjoint and every symbol has a fixed arity;
//! * types (in `PRED` declarations and subtype constraints) are terms over
//!   `F ∪ T`;
//! * program atoms are predicate symbols applied to terms over `F`
//!   (variables allowed, of course);
//! * each clause/query gets its own variable scope; `_` is anonymous.
//!
//! Predicate symbols are declared implicitly by use (a `PRED` declaration is
//! only required for *type checking*, not for loading); function symbols may
//! be declared implicitly too by enabling
//! [`LoaderOptions::implicit_funcs`] — useful for running plain untyped
//! Prolog programs through the engine.

use lp_engine::{Clause, ClauseOrigin};
use lp_term::{FastHashMap, NameHints, Signature, Sym, SymKind, Term, Var, VarGen};

use crate::ast::{Item, Mode, ModeDeclAst, NodeId, NodeKind, Run, SyntaxTree};
use crate::error::{ParseError, ParseErrorKind};
use crate::parser::{parse_items, parse_single_term};
use crate::token::Span;

/// Loader configuration.
#[derive(Debug, Clone, Copy)]
pub struct LoaderOptions {
    /// Declare unknown lower-case symbols in *program term* positions as
    /// function symbols instead of erroring. Off by default: the paper's
    /// language declares `F` explicitly with `FUNC`.
    pub implicit_funcs: bool,
    /// Predeclare the polymorphic union constructor `+` together with its
    /// constraints `A+B >= A.` and `A+B >= B.` (paper §1). On by default.
    pub predefine_union: bool,
}

impl Default for LoaderOptions {
    fn default() -> Self {
        LoaderOptions {
            implicit_funcs: false,
            predefine_union: true,
        }
    }
}

/// A loaded subtype constraint `lhs >= rhs` with presentation metadata.
#[derive(Debug, Clone)]
pub struct LoadedConstraint {
    /// The left-hand side `c(τ₁…τₙ)` (a type-constructor application).
    pub lhs: Term,
    /// The right-hand side type.
    pub rhs: Term,
    /// Source names for the constraint's parameter variables.
    pub hints: NameHints,
    /// Source location; `None` for predefined (builtin) constraints.
    pub span: Option<Span>,
}

/// A loaded program clause with presentation metadata.
#[derive(Debug, Clone)]
pub struct LoadedClause {
    /// The engine clause.
    pub clause: Clause,
    /// Source names for the clause's variables.
    pub hints: NameHints,
    /// Source location.
    pub span: Span,
    /// Source locations of the atoms: head first, then each body atom.
    pub atom_spans: Vec<Span>,
    /// Every occurrence of a *named* variable, in source order.
    pub var_spans: Vec<(Var, Span)>,
}

/// A loaded query with presentation metadata.
#[derive(Debug, Clone)]
pub struct LoadedQuery {
    /// The goal atoms.
    pub goals: Vec<Term>,
    /// Source names for the query's variables.
    pub hints: NameHints,
    /// Source location.
    pub span: Span,
    /// Source locations of the goal atoms.
    pub atom_spans: Vec<Span>,
    /// Every occurrence of a *named* variable, in source order.
    pub var_spans: Vec<(Var, Span)>,
}

/// A fully loaded module: signature plus everything declared in the source.
#[derive(Debug, Clone)]
pub struct Module {
    /// The signature with every declared (and predefined) symbol.
    pub sig: Signature,
    /// A variable generator positioned past every variable in the module.
    pub gen: VarGen,
    /// Raw subtype constraints in declaration order, including the
    /// predefined union constraints when enabled.
    pub constraints: Vec<LoadedConstraint>,
    /// Declared predicate types `p(τ₁, …, τₙ)`, one per predicate.
    pub pred_types: Vec<Term>,
    /// Source location of each `PRED` declaration, parallel to
    /// [`Module::pred_types`].
    pub pred_type_spans: Vec<Span>,
    /// Declared argument modes, one entry per `MODE`-declared predicate,
    /// in declaration order.
    pub pred_modes: Vec<(Sym, Vec<Mode>)>,
    /// Source location of each `MODE` declaration entry, parallel to
    /// [`Module::pred_modes`].
    pub pred_mode_spans: Vec<Span>,
    /// Declaration sites of explicitly declared symbols (`FUNC`/`TYPE`
    /// names), in declaration order.
    pub sym_spans: Vec<(Sym, Span)>,
    /// Program clauses in source order.
    pub clauses: Vec<LoadedClause>,
    /// Queries in source order.
    pub queries: Vec<LoadedQuery>,
    /// The predefined `+` constructor, if enabled.
    pub union_sym: Option<Sym>,
    /// The first declaration site of each symbol, indexed by
    /// [`Sym::index`]: the entry of [`Module::sym_spans`] for that symbol.
    first_decl: Vec<Option<Span>>,
}

impl Module {
    /// Builds an engine [`Database`](lp_engine::Database) from the clauses,
    /// recording each clause's source index and span as its provenance.
    pub fn database(&self) -> lp_engine::Database {
        let mut db = lp_engine::Database::new();
        for (i, c) in self.clauses.iter().enumerate() {
            db.add_with_origin(
                c.clause.clone(),
                ClauseOrigin {
                    source_index: i,
                    span: Some((c.span.start, c.span.end)),
                },
            );
        }
        db
    }

    /// Declaration site of a `FUNC`/`TYPE` symbol, if it was declared in
    /// source (predefined and implicitly declared symbols have none).
    pub fn sym_span(&self, sym: Sym) -> Option<Span> {
        self.first_decl.get(sym.index()).copied().flatten()
    }

    /// Source location of the `PRED` declaration for `pred`, if any.
    pub fn pred_type_span(&self, pred: Sym) -> Option<Span> {
        self.pred_types
            .iter()
            .position(|pt| pt.functor() == Some(pred))
            .and_then(|i| self.pred_type_spans.get(i).copied())
    }

    /// Declared argument modes of `pred`, if a `MODE` declaration exists.
    pub fn pred_mode(&self, pred: Sym) -> Option<&[Mode]> {
        self.pred_modes
            .iter()
            .find(|(p, _)| *p == pred)
            .map(|(_, ms)| ms.as_slice())
    }

    /// Source location of the `MODE` declaration for `pred`, if any.
    pub fn pred_mode_span(&self, pred: Sym) -> Option<Span> {
        self.pred_modes
            .iter()
            .position(|(p, _)| *p == pred)
            .and_then(|i| self.pred_mode_spans.get(i).copied())
    }
}

/// Parses and loads a source file in one step with default options.
///
/// # Errors
///
/// Any lexical, syntactic or resolution error, with its source span.
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let mut loader = Loader::new(LoaderOptions::default());
    loader.load_source(src)?;
    Ok(loader.finish())
}

/// Position of a term within an item; drives kind checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Position {
    /// Inside a type (PRED argument or either side of `>=`): `F ∪ T`.
    Type,
    /// Inside an atom's arguments: `F` only.
    ProgramTerm,
}

/// Incremental loader; feed it items or whole sources, then [`finish`].
///
/// [`finish`]: Loader::finish
#[derive(Debug)]
pub struct Loader {
    options: LoaderOptions,
    sig: Signature,
    gen: VarGen,
    constraints: Vec<LoadedConstraint>,
    pred_types: Vec<Term>,
    pred_type_spans: Vec<Span>,
    pred_type_owner: FastHashMap<Sym, Span>,
    pred_modes: Vec<(Sym, Vec<Mode>)>,
    pred_mode_spans: Vec<Span>,
    pred_mode_owner: FastHashMap<Sym, Span>,
    sym_spans: Vec<(Sym, Span)>,
    first_decl: Vec<Option<Span>>,
    clauses: Vec<LoadedClause>,
    queries: Vec<LoadedQuery>,
    union_sym: Option<Sym>,
}

impl Loader {
    /// Creates a loader, predeclaring `+` per `options`.
    pub fn new(options: LoaderOptions) -> Self {
        let mut sig = Signature::new();
        let mut gen = VarGen::new();
        let mut constraints = Vec::new();
        let union_sym = if options.predefine_union {
            let plus = sig
                .declare_with_arity("+", SymKind::TypeCtor, 2)
                .expect("fresh signature");
            // A+B >= A.   A+B >= B.
            let (a, b) = (gen.fresh(), gen.fresh());
            let lhs = Term::app(plus, vec![Term::Var(a), Term::Var(b)]);
            constraints.push(LoadedConstraint {
                lhs: lhs.clone(),
                rhs: Term::Var(a),
                hints: NameHints::new(),
                span: None,
            });
            let (a2, b2) = (gen.fresh(), gen.fresh());
            let lhs2 = Term::app(plus, vec![Term::Var(a2), Term::Var(b2)]);
            constraints.push(LoadedConstraint {
                lhs: lhs2,
                rhs: Term::Var(b2),
                hints: NameHints::new(),
                span: None,
            });
            Some(plus)
        } else {
            None
        };
        Loader {
            options,
            sig,
            gen,
            constraints,
            pred_types: Vec::new(),
            pred_type_spans: Vec::new(),
            pred_type_owner: FastHashMap::default(),
            pred_modes: Vec::new(),
            pred_mode_spans: Vec::new(),
            pred_mode_owner: FastHashMap::default(),
            sym_spans: Vec::new(),
            first_decl: Vec::new(),
            clauses: Vec::new(),
            queries: Vec::new(),
            union_sym,
        }
    }

    /// Access to the signature built so far.
    pub fn signature(&self) -> &Signature {
        &self.sig
    }

    /// Re-opens a finished [`Module`] for further loading or for resolving
    /// additional terms against its signature (e.g. command-line queries).
    pub fn resume(module: Module, options: LoaderOptions) -> Self {
        let mut pred_type_owner = FastHashMap::default();
        for (i, pt) in module.pred_types.iter().enumerate() {
            if let Some(p) = pt.functor() {
                let span = module.pred_type_spans.get(i).copied().unwrap_or_default();
                pred_type_owner.insert(p, span);
            }
        }
        let mut pred_mode_owner = FastHashMap::default();
        for (i, (p, _)) in module.pred_modes.iter().enumerate() {
            let span = module.pred_mode_spans.get(i).copied().unwrap_or_default();
            pred_mode_owner.insert(*p, span);
        }
        Loader {
            options,
            sig: module.sig,
            gen: module.gen,
            constraints: module.constraints,
            pred_types: module.pred_types,
            pred_type_spans: module.pred_type_spans,
            pred_type_owner,
            pred_modes: module.pred_modes,
            pred_mode_spans: module.pred_mode_spans,
            pred_mode_owner,
            sym_spans: module.sym_spans,
            first_decl: module.first_decl,
            clauses: module.clauses,
            queries: module.queries,
            union_sym: module.union_sym,
        }
    }

    /// Parses and resolves a standalone *type* (a term over `F ∪ T`),
    /// returning it with the name hints for its variables.
    ///
    /// # Errors
    ///
    /// Lexical/syntactic errors, undeclared symbols, kind/arity clashes.
    pub fn parse_type(&mut self, src: &str) -> Result<(Term, NameHints), ParseError> {
        self.parse_standalone(src, Position::Type)
    }

    /// Parses and resolves a standalone *program term* (a term over `F`).
    ///
    /// # Errors
    ///
    /// As for [`Loader::parse_type`].
    pub fn parse_program_term(&mut self, src: &str) -> Result<(Term, NameHints), ParseError> {
        self.parse_standalone(src, Position::ProgramTerm)
    }

    fn parse_standalone(
        &mut self,
        src: &str,
        pos: Position,
    ) -> Result<(Term, NameHints), ParseError> {
        let (tree, root) = parse_single_term(src)?;
        let mut pass = Pass::new(&tree);
        let t = self.resolve(&mut pass, root, pos)?;
        Ok((t, pass.end_item().0))
    }

    /// Parses and resolves a standalone goal list `a₁, …, aₙ` (an optional
    /// leading `:-` and trailing `.` are accepted).
    ///
    /// # Errors
    ///
    /// As for [`Loader::parse_type`].
    pub fn parse_goals(&mut self, src: &str) -> Result<(Vec<Term>, NameHints), ParseError> {
        let trimmed = src.trim().trim_start_matches(":-");
        let dotted = trimmed.trim_end();
        let with_dot = if dotted.ends_with('.') {
            dotted.to_string()
        } else {
            format!("{dotted}.")
        };
        let query = format!(":- {with_dot}");
        let tree = parse_items(&query)?;
        let [Item::Query { body, .. }] = tree.items() else {
            return Err(ParseError::new(
                ParseErrorKind::Malformed("expected a goal list".into()),
                Span::default(),
            ));
        };
        let mut pass = Pass::new(&tree);
        let goals = self.resolve_atoms(&mut pass, *body, &mut Vec::new())?;
        Ok((goals, pass.end_item().0))
    }

    /// Parses `src` and loads all of its items.
    ///
    /// The whole source is parsed before any item is resolved, so a
    /// syntax error wins over an undeclared symbol earlier in the file.
    ///
    /// # Errors
    ///
    /// Any lexical, syntactic or resolution error.
    pub fn load_source(&mut self, src: &str) -> Result<(), ParseError> {
        let tree = parse_items(src)?;
        let mut pass = Pass::new(&tree);
        let items = tree.items();
        let clauses = items.iter().filter(|i| matches!(i, Item::Clause { .. }));
        self.clauses.reserve(clauses.count());
        let queries = items.iter().filter(|i| matches!(i, Item::Query { .. }));
        self.queries.reserve(queries.count());
        for item in items {
            match *item {
                Item::FuncDecl(names) => self.declare_names(&mut pass, names, SymKind::Func)?,
                Item::TypeDecl(names) => self.declare_names(&mut pass, names, SymKind::TypeCtor)?,
                Item::PredDecl(types) => {
                    for &t in tree.list(types) {
                        self.load_pred_type(&mut pass, t)?;
                    }
                }
                Item::ModeDecl(decls) => {
                    for d in tree.mode_decls(decls) {
                        self.load_mode_decl(&mut pass, d)?;
                    }
                }
                Item::Constraint { lhs, rhs, span } => {
                    self.load_constraint(&mut pass, lhs, rhs, span)?;
                }
                Item::Clause { head, body, span } => {
                    self.load_clause(&mut pass, head, body, span)?;
                }
                Item::Query { body, span } => self.load_query(&mut pass, body, span)?,
            }
        }
        Ok(())
    }

    /// Consumes the loader, producing the module.
    pub fn finish(self) -> Module {
        Module {
            sig: self.sig,
            gen: self.gen,
            constraints: self.constraints,
            pred_types: self.pred_types,
            pred_type_spans: self.pred_type_spans,
            pred_modes: self.pred_modes,
            pred_mode_spans: self.pred_mode_spans,
            sym_spans: self.sym_spans,
            first_decl: self.first_decl,
            clauses: self.clauses,
            queries: self.queries,
            union_sym: self.union_sym,
        }
    }

    /// Declares the names of a `FUNC` or `TYPE` list as `kind`.
    fn declare_names(
        &mut self,
        pass: &mut Pass<'_, '_>,
        names: Run,
        kind: SymKind,
    ) -> Result<(), ParseError> {
        for &id in pass.tree.list(names) {
            let span = pass.tree.node(id).span();
            let sym = self
                .sig
                .declare(pass.tree.name(id), kind)
                .map_err(|e| ParseError::from((e, span)))?;
            self.record_sym_span(sym, span);
        }
        Ok(())
    }

    /// Remembers the *first* declaration site of a symbol.
    fn record_sym_span(&mut self, sym: Sym, span: Span) {
        let i = sym.index();
        if self.first_decl.len() <= i {
            self.first_decl.resize(i + 1, None);
        }
        if self.first_decl[i].is_none() {
            self.first_decl[i] = Some(span);
            self.sym_spans.push((sym, span));
        }
    }

    /// Declares the predicate named by node `id` and fixes its arity.
    fn declare_pred(&mut self, pass: &mut Pass<'_, '_>, id: NodeId) -> Result<Sym, ParseError> {
        let span = pass.tree.node(id).span();
        let pred = self
            .sig
            .declare(pass.tree.name(id), SymKind::Pred)
            .map_err(|e| ParseError::from((e, span)))?;
        self.sig
            .fix_arity(pred, pass.tree.args(id).len())
            .map_err(|e| ParseError::from((e, span)))?;
        Ok(pred)
    }

    fn load_pred_type(&mut self, pass: &mut Pass<'_, '_>, id: NodeId) -> Result<(), ParseError> {
        let span = pass.tree.node(id).span();
        if pass.tree.node(id).kind() == NodeKind::Var {
            return Err(ParseError::new(
                ParseErrorKind::Malformed("a PRED declaration must name a predicate".into()),
                span,
            ));
        }
        let pred = self.declare_pred(pass, id)?;
        if let Some(_prev) = self.pred_type_owner.insert(pred, span) {
            return Err(ParseError::new(
                ParseErrorKind::Malformed(format!(
                    "duplicate predicate type for `{}` (Definition 15 fixes one per predicate)",
                    pass.tree.name(id)
                )),
                span,
            ));
        }
        let t = self.resolve_args(pass, id, pred, Position::Type)?;
        pass.end_scope();
        self.pred_types.push(t);
        self.pred_type_spans.push(span);
        Ok(())
    }

    fn load_mode_decl(
        &mut self,
        pass: &mut Pass<'_, '_>,
        d: &ModeDeclAst<'_>,
    ) -> Result<(), ParseError> {
        let modes = pass.tree.modes(d);
        let pred = self
            .sig
            .declare(d.name, SymKind::Pred)
            .map_err(|e| ParseError::from((e, d.span)))?;
        self.sig
            .fix_arity(pred, modes.len())
            .map_err(|e| ParseError::from((e, d.span)))?;
        if self.pred_mode_owner.insert(pred, d.span).is_some() {
            return Err(ParseError::new(
                ParseErrorKind::Malformed(format!(
                    "duplicate mode declaration for `{}` (one MODE per predicate)",
                    d.name
                )),
                d.span,
            ));
        }
        self.pred_modes.push((pred, modes.to_vec()));
        self.pred_mode_spans.push(d.span);
        Ok(())
    }

    fn load_constraint(
        &mut self,
        pass: &mut Pass<'_, '_>,
        lhs: NodeId,
        rhs: NodeId,
        span: Span,
    ) -> Result<(), ParseError> {
        let lhs_t = self.resolve(pass, lhs, Position::Type)?;
        // Definition 2: the left-hand side is `c(τ₁…τₙ)` with `c ∈ T`.
        match lhs_t.functor() {
            Some(c) if self.sig.kind(c) == SymKind::TypeCtor => {}
            _ => {
                return Err(ParseError::new(
                    ParseErrorKind::Malformed(
                        "the left-hand side of a subtype constraint must be a type-constructor \
                         application (Definition 2)"
                            .into(),
                    ),
                    pass.tree.node(lhs).span(),
                ));
            }
        }
        // Definition 2: var(rhs) ⊆ var(lhs). A variable of the right-hand
        // side that is not on the left is numbered from here on, so the
        // first one, if any, is the smallest.
        let first_rhs_only = Var(self.gen.watermark());
        let rhs_t = self.resolve(pass, rhs, Position::Type)?;
        let (hints, _) = pass.end_item();
        if self.gen.watermark() > first_rhs_only.0 {
            let v = first_rhs_only;
            let name = hints
                .get(v)
                .map(str::to_owned)
                .unwrap_or_else(|| format!("_G{}", v.0));
            return Err(ParseError::new(
                ParseErrorKind::Malformed(format!(
                    "variable `{name}` occurs on the right of `>=` but not on the left \
                     (Definition 2 requires var(τ) ⊆ var(c(τ₁…τₙ)))"
                )),
                span,
            ));
        }
        self.constraints.push(LoadedConstraint {
            lhs: lhs_t,
            rhs: rhs_t,
            hints,
            span: Some(span),
        });
        Ok(())
    }

    fn load_clause(
        &mut self,
        pass: &mut Pass<'_, '_>,
        head: NodeId,
        body: Run,
        span: Span,
    ) -> Result<(), ParseError> {
        let mut atom_spans = Vec::with_capacity(pass.tree.list(body).len() + 1);
        atom_spans.push(pass.tree.node(head).span());
        let head_t = self.resolve_atom(pass, head)?;
        let body_t = self.resolve_atoms(pass, body, &mut atom_spans)?;
        let (hints, var_spans) = pass.end_item();
        self.clauses.push(LoadedClause {
            clause: Clause::rule(head_t, body_t),
            hints,
            span,
            atom_spans,
            var_spans,
        });
        Ok(())
    }

    fn load_query(
        &mut self,
        pass: &mut Pass<'_, '_>,
        body: Run,
        span: Span,
    ) -> Result<(), ParseError> {
        let mut atom_spans = Vec::with_capacity(pass.tree.list(body).len());
        let goals = self.resolve_atoms(pass, body, &mut atom_spans)?;
        let (hints, var_spans) = pass.end_item();
        self.queries.push(LoadedQuery {
            goals,
            hints,
            span,
            atom_spans,
            var_spans,
        });
        Ok(())
    }

    /// Resolves a list of atoms, appending each one's span to `spans`.
    fn resolve_atoms(
        &mut self,
        pass: &mut Pass<'_, '_>,
        atoms: Run,
        spans: &mut Vec<Span>,
    ) -> Result<Vec<Term>, ParseError> {
        let tree = pass.tree;
        let atoms = tree.list(atoms);
        let mut out = Vec::with_capacity(atoms.len());
        for &a in atoms {
            spans.push(tree.node(a).span());
            out.push(self.resolve_atom(pass, a)?);
        }
        Ok(out)
    }

    /// Resolves an atom: predicate applied to program terms.
    fn resolve_atom(&mut self, pass: &mut Pass<'_, '_>, id: NodeId) -> Result<Term, ParseError> {
        if pass.tree.node(id).kind() == NodeKind::Var {
            return Err(ParseError::new(
                ParseErrorKind::Malformed("an atom cannot be a variable".into()),
                pass.tree.node(id).span(),
            ));
        }
        // Predicates are declared implicitly by use.
        let pred = self.declare_pred(pass, id)?;
        self.resolve_args(pass, id, pred, Position::ProgramTerm)
    }

    /// Resolves the arguments of node `id` in position `pos` into
    /// `sym(args…)`.
    fn resolve_args(
        &mut self,
        pass: &mut Pass<'_, '_>,
        id: NodeId,
        sym: Sym,
        pos: Position,
    ) -> Result<Term, ParseError> {
        let tree = pass.tree;
        let args = tree.args(id);
        let mut resolved = Vec::with_capacity(args.len());
        for &a in args {
            resolved.push(self.resolve(pass, a, pos)?);
        }
        Ok(Term::app(sym, resolved))
    }

    /// Resolves a term in a type or program-term position.
    fn resolve(
        &mut self,
        pass: &mut Pass<'_, '_>,
        id: NodeId,
        pos: Position,
    ) -> Result<Term, ParseError> {
        let tree = pass.tree;
        let (name, span) = (tree.name(id), tree.node(id).span());
        if tree.node(id).kind() == NodeKind::Var {
            return Ok(Term::Var(pass.var(&mut self.gen, name, span)));
        }
        let sym = match self.sig.lookup(name) {
            Some(s) => {
                let kind = self.sig.kind(s);
                let ok = match pos {
                    Position::Type => kind == SymKind::Func || kind == SymKind::TypeCtor,
                    Position::ProgramTerm => kind == SymKind::Func,
                };
                if !ok {
                    let wanted = match pos {
                        Position::Type => "a function symbol or type constructor",
                        Position::ProgramTerm => "a function symbol",
                    };
                    return Err(ParseError::new(
                        ParseErrorKind::Malformed(format!(
                            "`{name}` is a {kind} but {wanted} is required here"
                        )),
                        span,
                    ));
                }
                s
            }
            None if pos == Position::ProgramTerm && self.options.implicit_funcs => self
                .sig
                .declare(name, SymKind::Func)
                .map_err(|e| ParseError::from((e, span)))?,
            None => {
                return Err(ParseError::new(
                    ParseErrorKind::UndeclaredSymbol(name.to_string()),
                    span,
                ));
            }
        };
        self.sig
            .fix_arity(sym, tree.args(id).len())
            .map_err(|e| ParseError::from((e, span)))?;
        self.resolve_args(pass, id, sym, pos)
    }
}

/// One resolution pass over a syntax tree: the tree, and the variable scope
/// of the item being resolved, keyed by source name.
struct Pass<'t, 'src> {
    tree: &'t SyntaxTree<'src>,
    vars: FastHashMap<&'src str, Var>,
    /// The item's named variables in order of first occurrence.
    named: Vec<(Var, &'src str)>,
    /// Occurrences of named (non-`_`) variables, in source order.
    occurrences: Vec<(Var, Span)>,
}

impl<'t, 'src> Pass<'t, 'src> {
    fn new(tree: &'t SyntaxTree<'src>) -> Self {
        Pass {
            tree,
            vars: FastHashMap::default(),
            named: Vec::new(),
            occurrences: Vec::new(),
        }
    }

    fn var(&mut self, gen: &mut VarGen, name: &'src str, span: Span) -> Var {
        if name == "_" {
            // Anonymous: every occurrence is fresh and never reported.
            return gen.fresh();
        }
        let v = *self.vars.entry(name).or_insert_with(|| {
            let v = gen.fresh();
            self.named.push((v, name));
            v
        });
        self.occurrences.push((v, span));
        v
    }

    /// Ends the current item's variable scope, dropping what it recorded.
    fn end_scope(&mut self) {
        // Clearing costs the map's capacity: after an item with unusually
        // many variables, start afresh so later items pay only for theirs.
        if self.vars.capacity() > 64 {
            self.vars = FastHashMap::default();
        } else {
            self.vars.clear();
        }
        self.named.clear();
        self.occurrences.clear();
    }

    /// Ends the current item's variable scope, returning its name hints
    /// and named-variable occurrences.
    fn end_item(&mut self) -> (NameHints, Vec<(Var, Span)>) {
        let bytes = self.named.iter().map(|(_, n)| n.len()).sum();
        let mut hints = NameHints::with_capacity(self.named.len(), bytes);
        for &(v, name) in &self.named {
            hints.insert(v, name);
        }
        // Copied out at its final length, so the buffer is reused and the
        // item's vector is allocated once.
        let occurrences = self.occurrences.to_vec();
        self.end_scope();
        (hints, occurrences)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LISTS: &str = "
        FUNC nil, cons.
        TYPE elist, nelist, list.
        elist >= nil.
        nelist(A) >= cons(A, list(A)).
        list(A) >= elist + nelist(A).
        PRED app(list(A), list(A), list(A)).
        app(nil, L, L).
        app(cons(X, L), M, cons(X, N)) :- app(L, M, N).
        :- app(nil, nil, Z).
    ";

    #[test]
    fn loads_paper_list_module() {
        let m = parse_module(LISTS).unwrap();
        // 2 builtin union constraints + 3 declared.
        assert_eq!(m.constraints.len(), 5);
        assert_eq!(m.pred_types.len(), 1);
        assert_eq!(m.clauses.len(), 2);
        assert_eq!(m.queries.len(), 1);
        let app = m.sig.lookup("app").unwrap();
        assert_eq!(m.sig.kind(app), SymKind::Pred);
        assert_eq!(m.sig.arity(app), Some(3));
        let list = m.sig.lookup("list").unwrap();
        assert_eq!(m.sig.kind(list), SymKind::TypeCtor);
        assert_eq!(m.sig.arity(list), Some(1));
    }

    #[test]
    fn loaded_program_runs_on_engine() {
        use lp_engine::{Query, SolveConfig};
        let m = parse_module(LISTS).unwrap();
        let db = m.database();
        let q = &m.queries[0];
        let mut run = Query::new(&db, q.goals.clone(), SolveConfig::default());
        let sol = run.next_solution().expect("append query succeeds");
        // Z = nil.
        let z = q.goals[0].args()[2].clone();
        let nil = m.sig.lookup("nil").unwrap();
        assert_eq!(sol.answer.resolve(&z), Term::constant(nil));
    }

    #[test]
    fn undeclared_symbol_in_clause_errors() {
        let err = parse_module("p(foo).").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UndeclaredSymbol(ref n) if n == "foo"));
    }

    #[test]
    fn implicit_funcs_declares_on_use() {
        let mut loader = Loader::new(LoaderOptions {
            implicit_funcs: true,
            ..LoaderOptions::default()
        });
        loader.load_source("p(foo, bar(foo)).").unwrap();
        let m = loader.finish();
        assert_eq!(m.sig.kind(m.sig.lookup("foo").unwrap()), SymKind::Func);
        assert_eq!(m.sig.arity(m.sig.lookup("bar").unwrap()), Some(1));
    }

    #[test]
    fn constraint_lhs_must_be_type_ctor() {
        let err = parse_module("FUNC f. TYPE t. f(A) >= t.").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Malformed(_)));
        assert!(err.to_string().contains("Definition 2"));
    }

    #[test]
    fn constraint_rhs_vars_must_be_bound_by_lhs() {
        let err = parse_module("TYPE c, d. c(A) >= d(A, B).").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Malformed(_)));
        assert!(err.to_string().contains('B'));
    }

    #[test]
    fn mode_decl_loads_with_span_and_arity() {
        let src = "TYPE t. PRED p(t, t). MODE p(+, -).";
        let m = parse_module(src).unwrap();
        let p = m.sig.lookup("p").unwrap();
        assert_eq!(m.pred_mode(p), Some(&[Mode::In, Mode::Out][..]));
        let span = m.pred_mode_span(p).expect("MODE entry has a span");
        assert_eq!(&src[span.start..span.end], "p(+, -)");
    }

    #[test]
    fn mode_decl_declares_pred_implicitly() {
        let m = parse_module("MODE q(+).").unwrap();
        let q = m.sig.lookup("q").unwrap();
        assert_eq!(m.sig.kind(q), SymKind::Pred);
        assert_eq!(m.sig.arity(q), Some(1));
    }

    #[test]
    fn duplicate_mode_decl_rejected() {
        let err = parse_module("MODE p(+). MODE p(-).").unwrap_err();
        assert!(err.to_string().contains("duplicate mode"));
    }

    #[test]
    fn mode_decl_arity_clash_rejected() {
        let err = parse_module("TYPE t. PRED p(t). MODE p(+, -).").unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::Signature(lp_term::SigError::ArityClash { .. })
        ));
    }

    #[test]
    fn resume_preserves_mode_decls() {
        let m = parse_module("MODE p(+).").unwrap();
        let mut loader = Loader::resume(m, LoaderOptions::default());
        let err = loader.load_source("MODE p(-).").unwrap_err();
        assert!(err.to_string().contains("duplicate mode"));
    }

    #[test]
    fn duplicate_pred_type_rejected() {
        let err = parse_module("TYPE t. PRED p(t). PRED p(t).").unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn type_ctor_rejected_in_program_position() {
        let err = parse_module("TYPE t. p(t).").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Malformed(_)));
    }

    #[test]
    fn pred_rejected_inside_type() {
        let err = parse_module("PRED q(r). ").unwrap_err();
        // `r` is undeclared here.
        assert!(matches!(err.kind, ParseErrorKind::UndeclaredSymbol(_)));
    }

    #[test]
    fn arity_clash_detected_across_items() {
        let err = parse_module("FUNC f. TYPE t. t >= f(t). PRED p(t). p(f(X, Y)).").unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::Signature(lp_term::SigError::ArityClash { .. })
        ));
    }

    #[test]
    fn anonymous_variables_are_distinct() {
        let m = parse_module("p(_, _).").unwrap();
        let c = &m.clauses[0].clause;
        let vars = c.vars();
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn named_variables_are_shared_within_clause() {
        let m = parse_module("p(X, X).").unwrap();
        assert_eq!(m.clauses[0].clause.vars().len(), 1);
    }

    #[test]
    fn variable_scopes_are_per_clause() {
        let m = parse_module("p(X). q(X).").unwrap();
        let v1 = m.clauses[0].clause.vars();
        let v2 = m.clauses[1].clause.vars();
        assert!(v1.is_disjoint(&v2));
    }

    #[test]
    fn union_predefined_with_builtin_constraints() {
        let m = parse_module("").unwrap();
        let plus = m.union_sym.expect("predefined +");
        assert_eq!(m.sig.kind(plus), SymKind::TypeCtor);
        assert_eq!(m.constraints.len(), 2);
        // Both constraints have `+` on the left, and neither has a span.
        for c in &m.constraints {
            assert_eq!(c.lhs.functor(), Some(plus));
            assert_eq!(c.span, None);
        }
    }

    #[test]
    fn spans_survive_lowering() {
        let m = parse_module(LISTS).unwrap();
        let src = LISTS;
        // Declared constraints carry their source spans.
        for c in &m.constraints[2..] {
            let span = c.span.expect("declared constraint has a span");
            assert!(src[span.start..span.end].contains(">="));
        }
        // The PRED declaration span covers the predicate type.
        assert_eq!(m.pred_type_spans.len(), 1);
        let ps = m.pred_type_spans[0];
        assert!(src[ps.start..ps.end].starts_with("app"));
        // Symbol declaration sites point at the declared names.
        let nil = m.sig.lookup("nil").unwrap();
        let span = m.sym_span(nil).expect("nil declared in source");
        assert_eq!(&src[span.start..span.end], "nil");
        // Clause atom spans: head first, then body atoms.
        let rule = &m.clauses[1];
        assert_eq!(rule.atom_spans.len(), 2);
        assert!(src[rule.atom_spans[0].start..].starts_with("app(cons"));
        assert!(src[rule.atom_spans[1].start..].starts_with("app(L"));
        // Named-variable occurrences: X, L, M, X, N in the head, L, M, N in
        // the body — 8 occurrences of 4 distinct variables.
        assert_eq!(rule.var_spans.len(), 8);
        let distinct: std::collections::HashSet<_> =
            rule.var_spans.iter().map(|(v, _)| *v).collect();
        assert_eq!(distinct.len(), 4);
        for (v, span) in &rule.var_spans {
            let name = rule.hints.get(*v).expect("named var has a hint");
            assert_eq!(&src[span.start..span.end], name);
        }
    }

    #[test]
    fn redeclared_name_keeps_its_first_span() {
        let src = "FUNC a, b. TYPE t. FUNC b, a. TYPE t, u.";
        let m = parse_module(src).unwrap();
        let first = |name: &str| src.find(name).unwrap();
        for name in ["a", "b", "t"] {
            let sym = m.sig.lookup(name).unwrap();
            let span = m.sym_span(sym).expect("declared in source");
            assert_eq!(span, Span::new(first(name), first(name) + 1), "{name}");
        }
        // One entry per symbol, in order of first declaration.
        let order: Vec<&str> = m.sym_spans.iter().map(|&(s, _)| m.sig.name(s)).collect();
        assert_eq!(order, ["a", "b", "t", "u"]);
        // A resumed loader keeps the first site too.
        let mut loader = Loader::resume(m, LoaderOptions::default());
        loader.load_source("FUNC a.").unwrap();
        let m = loader.finish();
        let a = m.sig.lookup("a").unwrap();
        assert_eq!(m.sym_span(a), Some(Span::new(5, 6)));
        assert_eq!(m.sym_spans.len(), 4);
    }

    #[test]
    fn wide_func_declaration_records_every_site() {
        let names: Vec<String> = (0..20_000).map(|i| format!("f{i}")).collect();
        let src = format!("FUNC {}.", names.join(", "));
        let m = parse_module(&src).unwrap();
        assert_eq!(m.sym_spans.len(), names.len());
        for name in &names {
            let span = m.sym_span(m.sig.lookup(name).unwrap()).unwrap();
            assert_eq!(&src[span.start..span.end], name);
        }
        // Symbols without a declaration site have no span.
        assert_eq!(m.sym_span(m.union_sym.unwrap()), None);
    }

    #[test]
    fn database_records_provenance() {
        let m = parse_module(LISTS).unwrap();
        let db = m.database();
        for i in 0..db.len() {
            let origin = db.origin(i).expect("loaded clause has an origin");
            assert_eq!(origin.source_index, i);
            let (start, end) = origin.span.expect("loaded clause has a span");
            assert_eq!(
                (start, end),
                (m.clauses[i].span.start, m.clauses[i].span.end)
            );
        }
    }

    #[test]
    fn nonuniform_id_example_loads() {
        // The paper's non-uniform polymorphic type (§1).
        let src = "
            FUNC 0, succ, m, f.
            TYPE nat, males, females, id, person.
            nat >= 0 + succ(nat).
            id(males) >= m(nat).
            id(females) >= f(nat).
            person >= males + females.
        ";
        let m = parse_module(src).unwrap();
        assert_eq!(m.constraints.len(), 2 + 4);
    }
}
