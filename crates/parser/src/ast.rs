//! The syntax tree: a purely syntactic, flat representation of a parsed
//! file, before symbol resolution.
//!
//! Every term node lives in one array ([`SyntaxTree::node`]) and names
//! its arguments by index; every list (arguments, clause bodies,
//! declaration lists) is a run of indices in a second array. A node holds
//! offsets into the source rather than text, and [`SyntaxTree::name`]
//! slices its name out of the source, so building the tree allocates only
//! those few arrays, never per token or per name.

use crate::token::Span;

/// Index of a [`Node`] within its [`SyntaxTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeId(u32);

/// A run of consecutive entries in one of the tree's arrays: node ids for
/// argument lists, clause bodies and declaration lists, mode entries for
/// a `MODE` declaration, or [`ModeDeclAst`]s for a `MODE` item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Run {
    start: u32,
    len: u32,
}

impl Run {
    fn range(self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// What a [`Node`] is. At this stage names are source text; kinds
/// (function symbol, type constructor, predicate) are resolved by the
/// [`Loader`](crate::Loader).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A variable occurrence. The name `_` denotes an anonymous variable:
    /// every occurrence is distinct.
    Var,
    /// `name(args…)`, or a constant when there are no arguments. The
    /// infix `+` appears here under the name `"+"`.
    App,
}

/// One term node: a variable or a named application. Its name is
/// [`SyntaxTree::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    kind: NodeKind,
    /// Byte offsets of the name (for an infix union, of its `+` token).
    name_start: u32,
    name_end: u32,
    /// Byte offsets of the whole term.
    start: u32,
    end: u32,
    args: Run,
}

impl Node {
    /// Variable or application.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// Source location of the whole term.
    pub fn span(&self) -> Span {
        Span::new(self.start as usize, self.end as usize)
    }
}

/// An argument mode: `+` (input, bound at call time) or `-` (output,
/// bound by the call).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Mode {
    /// `+` — the argument must be input-bound when the predicate is called.
    In,
    /// `-` — the argument is an output the call may bind.
    Out,
}

impl Mode {
    /// The concrete-syntax character, `+` or `-`.
    pub fn symbol(self) -> char {
        match self {
            Mode::In => '+',
            Mode::Out => '-',
        }
    }
}

/// One entry of a `MODE` declaration: `p(+, -)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeDeclAst<'src> {
    /// The predicate name.
    pub name: &'src str,
    /// Source location of the whole entry.
    pub span: Span,
    modes: Run,
}

/// One top-level item of a source file. Terms and lists are indices into
/// the [`SyntaxTree`] the item belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item {
    /// `FUNC f, g, h.` — declares function symbols (constant nodes).
    FuncDecl(Run),
    /// `TYPE c, d.` — declares type constructors (constant nodes).
    TypeDecl(Run),
    /// `PRED p(τ…), q(τ…).` — declares predicate types (Definition 14).
    PredDecl(Run),
    /// `MODE p(+,-), q(+).` — declares input/output modes per argument
    /// position (Smaus–Fages–Deransart); a run of [`ModeDeclAst`]s.
    ModeDecl(Run),
    /// `c(α…) >= τ.` — a subtype constraint (Definition 2).
    Constraint {
        /// Left-hand side (the supertype pattern).
        lhs: NodeId,
        /// Right-hand side.
        rhs: NodeId,
        /// Span of the whole constraint.
        span: Span,
    },
    /// `h :- b₁, …, bₖ.` or `h.` — a program clause.
    Clause {
        /// Head atom.
        head: NodeId,
        /// Body atoms (empty for a fact).
        body: Run,
        /// Span of the whole clause.
        span: Span,
    },
    /// `:- b₁, …, bₖ.` — a query (negative clause).
    Query {
        /// Goal atoms.
        body: Run,
        /// Span of the whole query.
        span: Span,
    },
}

/// A parsed file (or a single term): its items and the arrays they index.
#[derive(Debug, Clone)]
pub struct SyntaxTree<'src> {
    src: &'src str,
    nodes: Vec<Node>,
    ids: Vec<NodeId>,
    modes: Vec<Mode>,
    mode_decls: Vec<ModeDeclAst<'src>>,
    items: Vec<Item>,
}

/// Converts an array length or a source offset to 32 bits. Neither can
/// exceed the source length, which the parser bounds by `u32::MAX`.
fn index(len: usize) -> u32 {
    u32::try_from(len).expect("source longer than the parser's limit")
}

impl<'src> SyntaxTree<'src> {
    /// An empty tree over `src`.
    pub(crate) fn new(src: &'src str) -> Self {
        // Roughly one term node and one list entry per 4 source bytes.
        SyntaxTree {
            src,
            nodes: Vec::with_capacity(src.len() / 4),
            ids: Vec::with_capacity(src.len() / 4),
            modes: Vec::new(),
            mode_decls: Vec::new(),
            items: Vec::new(),
        }
    }

    /// The top-level items in source order.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// The node `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// The source name of node `id`: the variable's, or the symbol's
    /// (`+` for an infix union).
    pub fn name(&self, id: NodeId) -> &'src str {
        let node = self.node(id);
        &self.src[node.name_start as usize..node.name_end as usize]
    }

    /// The argument nodes of `id`, left to right.
    pub fn args(&self, id: NodeId) -> &[NodeId] {
        &self.ids[self.node(id).args.range()]
    }

    /// The nodes of a list: a clause body, or the entries of a `FUNC`,
    /// `TYPE` or `PRED` declaration.
    pub fn list(&self, run: Run) -> &[NodeId] {
        &self.ids[run.range()]
    }

    /// The entries of a `MODE` declaration item.
    pub fn mode_decls(&self, run: Run) -> &[ModeDeclAst<'src>] {
        &self.mode_decls[run.range()]
    }

    /// The argument modes of one `MODE` entry.
    pub fn modes(&self, decl: &ModeDeclAst<'src>) -> &[Mode] {
        &self.modes[decl.modes.range()]
    }

    pub(crate) fn push_item(&mut self, item: Item) {
        self.items.push(item);
    }

    /// Adds a node named by the source text under `name`, spanning
    /// `span`, whose arguments are `args`.
    pub(crate) fn push_node(
        &mut self,
        kind: NodeKind,
        name: Span,
        span: Span,
        args: Run,
    ) -> NodeId {
        let id = NodeId(index(self.nodes.len()));
        self.nodes.push(Node {
            kind,
            name_start: index(name.start),
            name_end: index(name.end),
            start: index(span.start),
            end: index(span.end),
            args,
        });
        id
    }

    /// Moves `pending[from..]` into the id array as one run.
    pub(crate) fn push_list(&mut self, pending: &mut Vec<NodeId>, from: usize) -> Run {
        let start = index(self.ids.len());
        self.ids.extend(pending.drain(from..));
        Run {
            start,
            len: index(self.ids.len()) - start,
        }
    }

    /// Moves `pending` into the mode array as one run.
    pub(crate) fn push_modes(&mut self, pending: &mut Vec<Mode>) -> Run {
        let start = index(self.modes.len());
        self.modes.append(pending);
        Run {
            start,
            len: index(self.modes.len()) - start,
        }
    }

    /// Adds a `MODE` entry; consecutive entries form an item's run.
    pub(crate) fn push_mode_decl(&mut self, name: &'src str, span: Span, modes: Run) -> u32 {
        self.mode_decls.push(ModeDeclAst { name, span, modes });
        index(self.mode_decls.len() - 1)
    }

    /// The run of `MODE` entries from `start` to the last one added.
    pub(crate) fn mode_decl_run(&self, start: u32) -> Run {
        Run {
            start,
            len: index(self.mode_decls.len()) - start,
        }
    }
}
