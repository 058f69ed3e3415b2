//! Regular path queries (Section IV.2).
//!
//! The paper's "regular simple paths ... allow some node and edge
//! restrictions (e.g., regular expressions)" and notes the key
//! complexity fact: "finding simple paths with desired properties in
//! direct graphs is an NP-complete problem". Accordingly:
//!
//! * [`regular_path_exists`] answers the *walk* semantics (does any
//!   walk spell a word in the language?) in polynomial time via the
//!   product of the graph with a Thompson NFA;
//! * [`regular_simple_paths`] enumerates *simple* paths matching the
//!   expression by budgeted backtracking, failing loudly when the
//!   budget is exhausted.
//!
//! Expression syntax over edge labels:
//!
//! ```text
//! expr     := alt
//! alt      := seq ('|' seq)*
//! seq      := rep+
//! rep      := atom ('*' | '+' | '?')?
//! atom     := label | '.' | '(' expr ')'
//! label    := identifier | '<' any chars except '>' '>'
//! ```

use crate::paths::Path;
use gdm_core::{EdgeId, FxHashSet, GdmError, GraphView, NodeId, Result};
use gdm_govern::ExecutionGuard;
use std::collections::VecDeque;

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Ast {
    Label(String),
    Any,
    Concat(Box<Ast>, Box<Ast>),
    Alt(Box<Ast>, Box<Ast>),
    Star(Box<Ast>),
    Plus(Box<Ast>),
    Opt(Box<Ast>),
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Self { src, pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> GdmError {
        GdmError::Parse {
            dialect: "label-regex",
            message: message.into(),
            position: self.pos,
        }
    }

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(char::is_whitespace) {
            self.bump();
        }
    }

    fn parse_alt(&mut self) -> Result<Ast> {
        let mut left = self.parse_seq()?;
        loop {
            self.skip_ws();
            if self.peek() == Some('|') {
                self.bump();
                let right = self.parse_seq()?;
                left = Ast::Alt(Box::new(left), Box::new(right));
            } else {
                return Ok(left);
            }
        }
    }

    fn parse_seq(&mut self) -> Result<Ast> {
        let mut parts = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                None | Some('|') | Some(')') => break,
                _ => parts.push(self.parse_rep()?),
            }
        }
        let mut iter = parts.into_iter();
        let first = iter.next().ok_or_else(|| self.error("empty expression"))?;
        Ok(iter.fold(first, |acc, next| {
            Ast::Concat(Box::new(acc), Box::new(next))
        }))
    }

    fn parse_rep(&mut self) -> Result<Ast> {
        let mut atom = self.parse_atom()?;
        loop {
            match self.peek() {
                Some('*') => {
                    self.bump();
                    atom = Ast::Star(Box::new(atom));
                }
                Some('+') => {
                    self.bump();
                    atom = Ast::Plus(Box::new(atom));
                }
                Some('?') => {
                    self.bump();
                    atom = Ast::Opt(Box::new(atom));
                }
                _ => return Ok(atom),
            }
        }
    }

    fn parse_atom(&mut self) -> Result<Ast> {
        self.skip_ws();
        match self.peek() {
            Some('(') => {
                self.bump();
                let inner = self.parse_alt()?;
                self.skip_ws();
                if self.bump() != Some(')') {
                    return Err(self.error("expected ')'"));
                }
                Ok(inner)
            }
            Some('.') => {
                self.bump();
                Ok(Ast::Any)
            }
            Some('<') => {
                self.bump();
                let start = self.pos;
                while self.peek().is_some_and(|c| c != '>') {
                    self.bump();
                }
                let label = self.src[start..self.pos].to_owned();
                if self.bump() != Some('>') {
                    return Err(self.error("unterminated '<label>'"));
                }
                Ok(Ast::Label(label))
            }
            Some(c) if c.is_alphanumeric() || c == '_' => {
                let start = self.pos;
                while self.peek().is_some_and(|c| c.is_alphanumeric() || c == '_') {
                    self.bump();
                }
                Ok(Ast::Label(self.src[start..self.pos].to_owned()))
            }
            Some(c) => Err(self.error(format!("unexpected character {c:?}"))),
            None => Err(self.error("unexpected end of expression")),
        }
    }
}

// ---------------------------------------------------------------------
// Thompson NFA
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Trans {
    Label(String),
    Any,
}

#[derive(Debug, Clone, Default)]
struct State {
    eps: Vec<usize>,
    steps: Vec<(Trans, usize)>,
}

/// A compiled edge-label regular expression.
#[derive(Debug, Clone)]
pub struct LabelRegex {
    states: Vec<State>,
    start: usize,
    accept: usize,
    source: String,
}

impl LabelRegex {
    /// Compiles `expr`.
    pub fn compile(expr: &str) -> Result<Self> {
        let mut parser = Parser::new(expr);
        let ast = parser.parse_alt()?;
        parser.skip_ws();
        if parser.pos != expr.len() {
            return Err(parser.error("trailing input"));
        }
        let mut nfa = LabelRegex {
            states: Vec::new(),
            start: 0,
            accept: 0,
            source: expr.to_owned(),
        };
        let (s, a) = nfa.build(&ast);
        nfa.start = s;
        nfa.accept = a;
        Ok(nfa)
    }

    /// The original expression text.
    pub fn source(&self) -> &str {
        &self.source
    }

    fn add_state(&mut self) -> usize {
        self.states.push(State::default());
        self.states.len() - 1
    }

    fn build(&mut self, ast: &Ast) -> (usize, usize) {
        match ast {
            Ast::Label(l) => {
                let s = self.add_state();
                let a = self.add_state();
                self.states[s].steps.push((Trans::Label(l.clone()), a));
                (s, a)
            }
            Ast::Any => {
                let s = self.add_state();
                let a = self.add_state();
                self.states[s].steps.push((Trans::Any, a));
                (s, a)
            }
            Ast::Concat(x, y) => {
                let (sx, ax) = self.build(x);
                let (sy, ay) = self.build(y);
                self.states[ax].eps.push(sy);
                (sx, ay)
            }
            Ast::Alt(x, y) => {
                let s = self.add_state();
                let a = self.add_state();
                let (sx, ax) = self.build(x);
                let (sy, ay) = self.build(y);
                self.states[s].eps.push(sx);
                self.states[s].eps.push(sy);
                self.states[ax].eps.push(a);
                self.states[ay].eps.push(a);
                (s, a)
            }
            Ast::Star(x) => {
                let s = self.add_state();
                let a = self.add_state();
                let (sx, ax) = self.build(x);
                self.states[s].eps.push(sx);
                self.states[s].eps.push(a);
                self.states[ax].eps.push(sx);
                self.states[ax].eps.push(a);
                (s, a)
            }
            Ast::Plus(x) => {
                let (sx, ax) = self.build(x);
                let a = self.add_state();
                self.states[ax].eps.push(sx);
                self.states[ax].eps.push(a);
                (sx, a)
            }
            Ast::Opt(x) => {
                let s = self.add_state();
                let a = self.add_state();
                let (sx, ax) = self.build(x);
                self.states[s].eps.push(sx);
                self.states[s].eps.push(a);
                self.states[ax].eps.push(a);
                (s, a)
            }
        }
    }

    pub(crate) fn eps_closure(&self, set: &mut FxHashSet<usize>) {
        let mut stack: Vec<usize> = set.iter().copied().collect();
        while let Some(s) = stack.pop() {
            for &next in &self.states[s].eps {
                if set.insert(next) {
                    stack.push(next);
                }
            }
        }
    }

    pub(crate) fn step(&self, set: &FxHashSet<usize>, label: Option<&str>) -> FxHashSet<usize> {
        let mut out = FxHashSet::default();
        for &s in set {
            for (trans, next) in &self.states[s].steps {
                let matches = match trans {
                    Trans::Any => true,
                    Trans::Label(want) => label == Some(want.as_str()),
                };
                if matches {
                    out.insert(*next);
                }
            }
        }
        self.eps_closure(&mut out);
        out
    }

    pub(crate) fn start_set(&self) -> FxHashSet<usize> {
        let mut set = FxHashSet::default();
        set.insert(self.start);
        self.eps_closure(&mut set);
        set
    }

    pub(crate) fn accepts_set(&self, set: &FxHashSet<usize>) -> bool {
        set.contains(&self.accept)
    }

    /// Does the word (sequence of labels) belong to the language?
    pub fn accepts<'a>(&self, word: impl IntoIterator<Item = &'a str>) -> bool {
        let mut set = self.start_set();
        for label in word {
            set = self.step(&set, Some(label));
            if set.is_empty() {
                return false;
            }
        }
        self.accepts_set(&set)
    }
}

// ---------------------------------------------------------------------
// Graph queries
// ---------------------------------------------------------------------

/// Walk semantics: is there any walk from `a` to `b` whose label word
/// matches `regex`? Polynomial product-automaton BFS under `guard`: it
/// charges one node visit per dequeued product state and one edge
/// visit per expanded edge, and a trip returns
/// [`GdmError::Interrupted`].
pub fn regular_path_exists(
    g: &dyn GraphView,
    a: NodeId,
    b: NodeId,
    regex: &LabelRegex,
    guard: &ExecutionGuard,
) -> Result<bool> {
    if !g.contains_node(a) || !g.contains_node(b) {
        return Ok(false);
    }
    // Product state: (node, nfa state). BFS over epsilon-closed sets is
    // per-node; we track (node, state) pairs explicitly.
    let mut seen: FxHashSet<(u64, usize)> = FxHashSet::default();
    let mut queue: VecDeque<(NodeId, usize)> = VecDeque::new();
    let start = regex.start_set();
    for &s in &start {
        if seen.insert((a.raw(), s)) {
            queue.push_back((a, s));
        }
    }
    if a == b && regex.accepts_set(&start) {
        return Ok(true);
    }
    let meter = guard.meter();
    let found = 'search: {
        while let Some((node, state)) = queue.pop_front() {
            meter.nodes(1)?;
            let mut edges = Vec::new();
            g.visit_out_edges(node, &mut |e| edges.push(e));
            for e in edges {
                meter.edges(1)?;
                let label = e.label.and_then(|sym| g.label_text(sym));
                let mut from_set = FxHashSet::default();
                from_set.insert(state);
                // No eps-closure needed here: sets in `seen` are already
                // closed at insertion time via step()/start_set(). A
                // single state still needs closing before stepping.
                regex.eps_closure(&mut from_set);
                let next = regex.step(&from_set, label);
                for &ns in &next {
                    if ns == regex.accept && e.to == b {
                        break 'search true;
                    }
                    if seen.insert((e.to.raw(), ns)) {
                        queue.push_back((e.to, ns));
                    }
                }
                // Accepting in a non-accept-labeled state set.
                if e.to == b && regex.accepts_set(&next) {
                    break 'search true;
                }
            }
        }
        false
    };
    meter.settle()?;
    Ok(found)
}

/// Simple-path semantics: enumerate simple paths from `a` to `b` whose
/// label word matches `regex`, up to `budget` search steps
/// (NP-complete in general — the budget keeps the search honest).
pub fn regular_simple_paths(
    g: &dyn GraphView,
    a: NodeId,
    b: NodeId,
    regex: &LabelRegex,
    budget: usize,
) -> Result<Vec<Path>> {
    if !g.contains_node(a) || !g.contains_node(b) {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    let mut steps = 0usize;
    let start = regex.start_set();
    if a == b && regex.accepts_set(&start) {
        out.push(Path {
            nodes: vec![a],
            edges: vec![],
        });
    }
    let mut nodes = vec![a];
    let mut edges: Vec<EdgeId> = Vec::new();
    backtrack(
        g, b, regex, budget, &mut steps, &start, &mut nodes, &mut edges, &mut out,
    )?;
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn backtrack(
    g: &dyn GraphView,
    target: NodeId,
    regex: &LabelRegex,
    budget: usize,
    steps: &mut usize,
    states: &FxHashSet<usize>,
    nodes: &mut Vec<NodeId>,
    edges: &mut Vec<EdgeId>,
    out: &mut Vec<Path>,
) -> Result<()> {
    *steps += 1;
    if *steps > budget {
        return Err(GdmError::BudgetExhausted(format!(
            "regular simple path search exceeded {budget} steps"
        )));
    }
    let current = *nodes.last().expect("non-empty");
    let mut next_edges = Vec::new();
    g.visit_out_edges(current, &mut |e| next_edges.push(e));
    for e in next_edges {
        if nodes.contains(&e.to) {
            continue;
        }
        let label = e.label.and_then(|sym| g.label_text(sym));
        let next_states = regex.step(states, label);
        if next_states.is_empty() {
            continue;
        }
        nodes.push(e.to);
        edges.push(e.id);
        if e.to == target && regex.accepts_set(&next_states) {
            out.push(Path {
                nodes: nodes.clone(),
                edges: edges.clone(),
            });
        }
        backtrack(
            g,
            target,
            regex,
            budget,
            steps,
            &next_states,
            nodes,
            edges,
            out,
        )?;
        nodes.pop();
        edges.pop();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdm_graphs::SimpleGraph;

    #[test]
    fn regex_word_acceptance() {
        let r = LabelRegex::compile("knows+ works_at").unwrap();
        assert!(r.accepts(["knows", "works_at"]));
        assert!(r.accepts(["knows", "knows", "works_at"]));
        assert!(!r.accepts(["works_at"]));
        assert!(!r.accepts(["knows"]));
    }

    #[test]
    fn regex_alternation_and_grouping() {
        let r = LabelRegex::compile("(a | b)* c").unwrap();
        assert!(r.accepts(["c"]));
        assert!(r.accepts(["a", "b", "a", "c"]));
        assert!(!r.accepts(["a", "b"]));
    }

    #[test]
    fn regex_optional_and_wildcard() {
        let r = LabelRegex::compile("a? . b").unwrap();
        assert!(r.accepts(["a", "x", "b"]));
        assert!(r.accepts(["x", "b"]));
        assert!(!r.accepts(["b"]));
    }

    #[test]
    fn quoted_labels() {
        let r = LabelRegex::compile("<has part> <is a>").unwrap();
        assert!(r.accepts(["has part", "is a"]));
    }

    #[test]
    fn parse_errors_carry_position() {
        for bad in ["", "a |", "(a", "a)"] {
            let err = LabelRegex::compile(bad).unwrap_err();
            assert!(matches!(err, GdmError::Parse { .. }), "{bad:?}");
        }
    }

    fn exists(g: &SimpleGraph, a: NodeId, b: NodeId, regex: &LabelRegex) -> bool {
        regular_path_exists(g, a, b, regex, &ExecutionGuard::unlimited())
            .expect("an unlimited guard never interrupts")
    }

    fn chain() -> (SimpleGraph, Vec<NodeId>) {
        // 0 -a-> 1 -a-> 2 -b-> 3, plus shortcut 0 -b-> 3 and cycle 1->0.
        let mut g = SimpleGraph::directed();
        let n: Vec<NodeId> = (0..4).map(|_| g.add_node()).collect();
        g.add_labeled_edge(n[0], n[1], "a").unwrap();
        g.add_labeled_edge(n[1], n[2], "a").unwrap();
        g.add_labeled_edge(n[2], n[3], "b").unwrap();
        g.add_labeled_edge(n[0], n[3], "b").unwrap();
        g.add_labeled_edge(n[1], n[0], "a").unwrap();
        (g, n)
    }

    #[test]
    fn walk_semantics_existence() {
        let (g, n) = chain();
        let r = LabelRegex::compile("a a b").unwrap();
        assert!(exists(&g, n[0], n[3], &r));
        let r2 = LabelRegex::compile("a b").unwrap();
        assert!(!exists(&g, n[0], n[3], &r2));
        let r3 = LabelRegex::compile("a* b").unwrap();
        assert!(exists(&g, n[0], n[3], &r3));
    }

    #[test]
    fn walk_can_use_cycles() {
        let (g, n) = chain();
        // a a a a b requires going around the 0↔1 cycle.
        let r = LabelRegex::compile("a a a a b").unwrap();
        assert!(exists(&g, n[0], n[3], &r));
    }

    #[test]
    fn empty_word_at_same_node() {
        let (g, n) = chain();
        let r = LabelRegex::compile("a*").unwrap();
        assert!(exists(&g, n[0], n[0], &r));
    }

    #[test]
    fn simple_paths_exclude_cycles() {
        let (g, n) = chain();
        let r = LabelRegex::compile("a a a a b").unwrap();
        // Walk exists (previous test) but no *simple* path does.
        let paths = regular_simple_paths(&g, n[0], n[3], &r, 10_000).unwrap();
        assert!(paths.is_empty());
        let r2 = LabelRegex::compile("a a b | b").unwrap();
        let paths2 = regular_simple_paths(&g, n[0], n[3], &r2, 10_000).unwrap();
        assert_eq!(paths2.len(), 2, "the long arm and the shortcut");
    }

    #[test]
    fn simple_path_budget() {
        let (g, n) = chain();
        let r = LabelRegex::compile(".*").unwrap();
        let err = regular_simple_paths(&g, n[0], n[3], &r, 1).unwrap_err();
        assert!(matches!(err, GdmError::BudgetExhausted(_)));
    }

    #[test]
    fn unlabeled_edges_match_wildcard_only() {
        let mut g = SimpleGraph::directed();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b).unwrap(); // unlabeled
        let any = LabelRegex::compile(".").unwrap();
        assert!(exists(&g, a, b, &any));
        let named = LabelRegex::compile("x").unwrap();
        assert!(!exists(&g, a, b, &named));
    }
}
