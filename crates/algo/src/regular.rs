//! Regular path queries (Section IV.2).
//!
//! The paper's "regular simple paths ... allow some node and edge
//! restrictions (e.g., regular expressions)" and notes the key
//! complexity fact: "finding simple paths with desired properties in
//! direct graphs is an NP-complete problem". Accordingly:
//!
//! * [`LabelRegex`] compiles the expression once into a Thompson NFA
//!   with every state's ε-closure precomputed as its live states (those
//!   with a labelled transition), so both searches step a state set as
//!   the list of its live states, sized to the set rather than the
//!   automaton, and stop where a set has none;
//! * [`regular_path_exists`] answers the *walk* semantics (does any
//!   walk spell a word in the language?) in polynomial time: a
//!   breadth-first walk of the product of the graph with the NFA,
//!   through the crate's one level-walk kernel
//!   [`walk_levels`];
//! * [`regular_simple_paths`] enumerates *simple* paths matching the
//!   expression by backtracking under an [`ExecutionGuard`], failing
//!   loudly with [`GdmError::Interrupted`] when the guard trips. It is
//!   the crate's one simple-path search: a fixed-length path
//!   ([`fixed_length_paths`](crate::paths::fixed_length_paths)) is a
//!   regular simple path over `len` wildcard hops.
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
use crate::traverse::{walk_levels, WalkBufs};
use gdm_core::{EdgeId, EdgeRef, FxHashSet, GdmError, GraphView, NodeId, Result};
use gdm_govern::{ExecutionGuard, Meter};
use std::ops::{ControlFlow, Range};

// ---------------------------------------------------------------------
// Parsing straight into a Thompson NFA
// ---------------------------------------------------------------------

/// A state of the NFA under construction. Thompson's construction
/// gives each state at most one labelled transition: a hop over an
/// edge with the given label, or over any edge when that is `None`.
#[derive(Debug, Clone, Default)]
struct State {
    eps: Vec<usize>,
    step: Option<(Option<String>, usize)>,
}

/// An NFA fragment: its start and accept states.
type Frag = (usize, usize);

/// The deepest an expression may nest groups: the parser recurses once
/// per group, so this bounds its stack.
const MAX_NESTING: usize = 256;

/// A recursive-descent parser that builds each construct's fragment
/// as it reads it.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
    states: Vec<State>,
}

impl Parser<'_> {
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

    /// Two new states, joined by nothing yet.
    fn fresh(&mut self) -> Frag {
        self.states.extend([State::default(), State::default()]);
        (self.states.len() - 2, self.states.len() - 1)
    }

    fn hop(&mut self, label: Option<String>) -> Frag {
        let (s, a) = self.fresh();
        self.states[s].step = Some((label, a));
        (s, a)
    }

    fn parse_alt(&mut self) -> Result<Frag> {
        let (mut s, mut a) = self.parse_seq()?;
        loop {
            self.skip_ws();
            if self.peek() != Some('|') {
                return Ok((s, a));
            }
            self.bump();
            let (sy, ay) = self.parse_seq()?;
            let (ns, na) = self.fresh();
            self.states[ns].eps.extend([s, sy]);
            self.states[a].eps.push(na);
            self.states[ay].eps.push(na);
            (s, a) = (ns, na);
        }
    }

    fn parse_seq(&mut self) -> Result<Frag> {
        let mut seq: Option<Frag> = None;
        loop {
            self.skip_ws();
            if matches!(self.peek(), None | Some('|' | ')')) {
                return seq.ok_or_else(|| self.error("empty expression"));
            }
            let (sy, ay) = self.parse_rep()?;
            seq = Some(match seq {
                None => (sy, ay),
                Some((sx, ax)) => {
                    self.states[ax].eps.push(sy);
                    (sx, ay)
                }
            });
        }
    }

    fn parse_rep(&mut self) -> Result<Frag> {
        let (mut s, mut a) = self.parse_atom()?;
        while let Some(op @ ('*' | '+' | '?')) = self.peek() {
            self.bump();
            let (ns, na) = self.fresh();
            self.states[ns].eps.push(s);
            self.states[a].eps.push(na);
            if op != '+' {
                self.states[ns].eps.push(na); // `x*` and `x?` may skip `x`
            }
            if op != '?' {
                self.states[a].eps.push(s); // `x*` and `x+` may repeat it
            }
            (s, a) = (ns, na);
        }
        Ok((s, a))
    }

    fn parse_atom(&mut self) -> Result<Frag> {
        self.skip_ws();
        match self.peek() {
            Some('(') => {
                if self.depth == MAX_NESTING {
                    return Err(self.error(format!("groups nested over {MAX_NESTING} deep")));
                }
                self.bump();
                self.depth += 1;
                let inner = self.parse_alt()?;
                self.depth -= 1;
                self.skip_ws();
                if self.bump() != Some(')') {
                    return Err(self.error("expected ')'"));
                }
                Ok(inner)
            }
            Some('.') => {
                self.bump();
                Ok(self.hop(None))
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
                Ok(self.hop(Some(label)))
            }
            Some(c) if c.is_alphanumeric() || c == '_' => {
                let start = self.pos;
                while self.peek().is_some_and(|c| c.is_alphanumeric() || c == '_') {
                    self.bump();
                }
                Ok(self.hop(Some(self.src[start..self.pos].to_owned())))
            }
            Some(c) => Err(self.error(format!("unexpected character {c:?}"))),
            None => Err(self.error("unexpected end of expression")),
        }
    }
}

// ---------------------------------------------------------------------
// The compiled automaton
// ---------------------------------------------------------------------

/// The most NFA states an expression may compile to: a state's
/// ε-closure can hold nearly every other state, so the closures cost up
/// to the square of the state count, kept here to milliseconds and a
/// few megabytes.
const MAX_STATES: usize = 1 << 12;

/// A compiled edge-label regular expression: a Thompson NFA whose
/// ε-closures are computed once, at compile time. A state set is
/// searched as the list of its live states (those with a labelled
/// transition, the only ones a step reads) and whether it holds the
/// accept state, so its size follows the set, not the automaton, and a
/// set with no live state ends every word through it.
#[derive(Debug, Clone)]
pub struct LabelRegex {
    /// Each state's labelled transition, if it has one.
    steps: Vec<Option<(Option<String>, usize)>>,
    /// The live states of each state's ε-closure, ascending.
    closures: Vec<Vec<usize>>,
    /// Whether each state's ε-closure holds the accept state.
    accepting: Vec<bool>,
    start: usize,
}

impl LabelRegex {
    /// Compiles `expr`; an expression of more than 4 096 automaton
    /// states or 256 nested groups is a parse error.
    pub fn compile(expr: &str) -> Result<Self> {
        let mut parser = Parser {
            src: expr,
            pos: 0,
            depth: 0,
            states: Vec::new(),
        };
        let (start, accept) = parser.parse_alt()?;
        parser.skip_ws();
        if parser.pos != expr.len() {
            return Err(parser.error("trailing input"));
        }
        if parser.states.len() > MAX_STATES {
            return Err(parser.error(format!("over {MAX_STATES} automaton states")));
        }
        Ok(Self::from_nfa(parser.states, start, accept))
    }

    /// The words of exactly `len` labels, any labels: `len` wildcard
    /// hops (`len = 0` accepts only the empty word).
    pub(crate) fn hops(len: usize) -> Self {
        let states = (0..=len)
            .map(|s| State {
                eps: Vec::new(),
                step: (s < len).then_some((None, s + 1)),
            })
            .collect();
        Self::from_nfa(states, 0, len)
    }

    fn from_nfa(states: Vec<State>, start: usize, accept: usize) -> Self {
        let mut seen = vec![0u64; states.len().div_ceil(64)];
        let (mut closures, mut accepting) = (Vec::new(), Vec::new());
        for s in 0..states.len() {
            let mut reached = vec![s];
            insert(&mut seen, s);
            let mut i = 0;
            while let Some(&at) = reached.get(i) {
                i += 1;
                for &next in &states[at].eps {
                    if insert(&mut seen, next) {
                        reached.push(next);
                    }
                }
            }
            for &at in &reached {
                remove(&mut seen, at);
            }
            accepting.push(reached.contains(&accept));
            reached.retain(|&at| states[at].step.is_some());
            reached.sort_unstable();
            closures.push(reached);
        }
        let steps = states.into_iter().map(|state| state.step).collect();
        LabelRegex {
            steps,
            closures,
            accepting,
            start,
        }
    }

    /// The state that live state `s` moves to on `label`, if its
    /// transition matches `label`.
    fn hop(&self, s: usize, label: Option<&str>) -> Option<usize> {
        let (want, next) = self.steps[s].as_ref().expect("a live state has a step");
        (want.is_none() || want.as_deref() == label).then_some(*next)
    }

    /// Appends to `sets`, each once, the live states of the ε-closed
    /// set that the live states at `sets[from]` move to on `label`, and
    /// returns whether that set holds the accept state. `seen`, one bit
    /// per state, is clear on entry and on return.
    fn step(
        &self,
        sets: &mut Vec<usize>,
        from: Range<usize>,
        label: Option<&str>,
        seen: &mut [u64],
    ) -> bool {
        let top = sets.len();
        let mut accepting = false;
        for i in from {
            let Some(next) = self.hop(sets[i], label) else {
                continue;
            };
            accepting |= self.accepting[next];
            for &s in &self.closures[next] {
                if insert(seen, s) {
                    sets.push(s);
                }
            }
        }
        for &s in &sets[top..] {
            remove(seen, s);
        }
        accepting
    }

    /// Does the word (sequence of labels) belong to the language?
    pub fn accepts<'a>(&self, word: impl IntoIterator<Item = &'a str>) -> bool {
        let mut set = self.closures[self.start].clone();
        let mut accepting = self.accepting[self.start];
        let mut seen = vec![0; self.steps.len().div_ceil(64)];
        for label in word {
            let n = set.len();
            accepting = self.step(&mut set, 0..n, Some(label), &mut seen);
            set.drain(..n);
        }
        accepting
    }
}

/// Adds state `s` to `set`, returning whether it was absent.
fn insert(set: &mut [u64], s: usize) -> bool {
    let (word, bit) = (&mut set[s / 64], 1 << (s % 64));
    let absent = *word & bit == 0;
    *word |= bit;
    absent
}

/// Takes state `s` out of `set`.
fn remove(set: &mut [u64], s: usize) {
    set[s / 64] &= !(1 << (s % 64));
}

// ---------------------------------------------------------------------
// Graph queries
// ---------------------------------------------------------------------

/// Walk semantics: is there any walk from `a` to `b` whose label word
/// matches `regex`? A breadth-first walk, through
/// [`walk_levels`], of the product of the graph with the automaton:
/// its keys are `(node, state)` pairs, a state standing for its
/// ε-closure. Polynomial; charges one node visit per frontier key,
/// keys whose closure has no live state included, though their edges
/// are not read, and a trip of `guard` returns
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
    let start = regex.start;
    if a == b && regex.accepting[start] {
        return Ok(true);
    }
    let meter = guard.meter();
    let mut seen = FxHashSet::default();
    seen.insert((a.raw(), start));
    let step = |(u, s): (NodeId, usize), out: &mut Vec<(NodeId, usize)>| {
        let set = &regex.closures[s];
        if set.is_empty() {
            return;
        }
        g.visit_out_edges(u, &mut |e| {
            let label = e.label.and_then(|sym| g.label_text(sym));
            let moves = set.iter().filter_map(|&l| regex.hop(l, label));
            out.extend(moves.map(|next| (e.to, next)));
        });
    };
    let mark = |(t, s): (NodeId, usize), _| seen.insert((t.raw(), s));
    let at_b = |_, (t, s): (NodeId, usize), _| {
        if t == b && regex.accepting[s] {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    };
    let bufs = &mut WalkBufs::default();
    let found = walk_levels((a, start), (1, u32::MAX), bufs, step, mark, &meter, at_b)?;
    meter.settle()?;
    Ok(found)
}

/// Simple-path semantics: enumerate simple paths from `a` to `b` whose
/// label word matches `regex` (NP-complete in general), by backtracking
/// under `guard`: the search charges one node visit per search step,
/// before it stops at a state set with no live state, and one row per
/// path, and settles before returning, so a tripped budget is
/// [`GdmError::Interrupted`].
pub fn regular_simple_paths(
    g: &dyn GraphView,
    a: NodeId,
    b: NodeId,
    regex: &LabelRegex,
    guard: &ExecutionGuard,
) -> Result<Vec<Path>> {
    if !g.contains_node(a) || !g.contains_node(b) {
        return Ok(Vec::new());
    }
    let mut search = SimplePaths {
        g,
        target: b,
        regex,
        meter: guard.meter(),
        nodes: vec![a],
        edges: Vec::new(),
        sets: regex.closures[regex.start].clone(),
        seen: vec![0; regex.steps.len().div_ceil(64)],
        pending: Vec::new(),
        out: Vec::new(),
    };
    search.visit(0..search.sets.len(), regex.accepting[regex.start])?;
    search.meter.settle()?;
    Ok(search.out)
}

/// The backtracking state of [`regular_simple_paths`]: the path so far,
/// the live states of each path node's state set and the out-edges of
/// every open step.
struct SimplePaths<'a> {
    g: &'a dyn GraphView,
    target: NodeId,
    regex: &'a LabelRegex,
    meter: Meter<'a>,
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
    /// One range of live states per path node, the last node's on top.
    sets: Vec<usize>,
    seen: Vec<u64>,
    pending: Vec<EdgeRef>,
    out: Vec<Path>,
}

impl SimplePaths<'_> {
    /// Extends the path from its last node, whose state set has the
    /// live states `sets[set]` and holds the accept state when
    /// `accepting` says so.
    fn visit(&mut self, set: Range<usize>, accepting: bool) -> Result<()> {
        self.meter.nodes(1)?;
        let at = *self.nodes.last().expect("paths are non-empty");
        if at == self.target && accepting {
            self.meter.rows(1)?;
            self.out.push(Path {
                nodes: self.nodes.clone(),
                edges: self.edges.clone(),
            });
        }
        if set.is_empty() {
            return Ok(());
        }
        let (g, regex) = (self.g, self.regex);
        let lo = self.pending.len();
        g.visit_out_edges(at, &mut |e| self.pending.push(e));
        for i in lo..self.pending.len() {
            let e = self.pending[i];
            if self.nodes.contains(&e.to) {
                continue;
            }
            let label = e.label.and_then(|sym| g.label_text(sym));
            let top = self.sets.len();
            let accepting = regex.step(&mut self.sets, set.clone(), label, &mut self.seen);
            if self.sets.len() == top && !accepting {
                continue;
            }
            self.nodes.push(e.to);
            self.edges.push(e.id);
            self.visit(top..self.sets.len(), accepting)?;
            self.sets.truncate(top);
            self.nodes.pop();
            self.edges.pop();
        }
        self.pending.truncate(lo);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdm_core::InterruptReason;
    use gdm_govern::Limits;
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

    #[test]
    fn expressions_past_the_state_or_nesting_limit_are_refused() {
        let long = "a ".repeat(1_000);
        let r = LabelRegex::compile(&long).unwrap();
        assert!(r.accepts(std::iter::repeat_n("a", 1_000)));
        assert!(!r.accepts(std::iter::repeat_n("a", 999)));
        let nested = |n| format!("{}a{}", "(".repeat(n), ")".repeat(n));
        assert!(LabelRegex::compile(&nested(256)).unwrap().accepts(["a"]));
        for bad in ["a ".repeat(100_000), nested(257), nested(100_000)] {
            let err = LabelRegex::compile(&bad).unwrap_err();
            assert!(matches!(err, GdmError::Parse { .. }));
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
        let unlimited = ExecutionGuard::unlimited();
        let paths = regular_simple_paths(&g, n[0], n[3], &r, &unlimited).unwrap();
        assert!(paths.is_empty());
        let r2 = LabelRegex::compile("a a b | b").unwrap();
        let paths2 = regular_simple_paths(&g, n[0], n[3], &r2, &unlimited).unwrap();
        assert_eq!(paths2.len(), 2, "the long arm and the shortcut");
    }

    #[test]
    fn simple_path_budget() {
        let (g, n) = chain();
        let r = LabelRegex::compile(".*").unwrap();
        let guard = ExecutionGuard::new(Limits::none().with_node_visits(1));
        let err = regular_simple_paths(&g, n[0], n[3], &r, &guard).unwrap_err();
        assert_eq!(err.interrupt_reason(), Some(InterruptReason::Budget));
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
