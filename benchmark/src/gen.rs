//! The benchmark's own seeded inputs: the people graph, the query
//! templates of the four essential classes, and the request streams.
//!
//! Nothing here imports `gdm_bench::workload` — a later PR may edit
//! that generator, and the benchmark's inputs must not move with it.
//! The RNG is local for the same reason: the same `--seed` must give
//! the same graph and the same request stream on every commit.
//!
//! The graph is degree-regular on purpose. Every person has (up to
//! duplicate skips) [`INTRA`] `knows` edges inside their community and
//! [`INTER`] outside, in *and* out, because edges are laid as random
//! cycles. A query's cost then depends on the template and on |V|, not
//! on which person the seed happened to draw, which is what lets ten
//! different seeds agree within a few percent.

use gdm_core::{props, NodeId, Result};
use gdm_engines::GraphEngine;

/// People per community (communities = people / 100).
pub const COMMUNITY: usize = 100;
/// Random `knows` cycles laid inside each community.
pub const INTRA: usize = 8;
/// Random `knows` cycles laid across the whole population.
pub const INTER: usize = 2;
/// Texts per class in a pooled workload (4 × 12 = 48 fits the server's
/// default 64-entry plan cache).
pub const POOL_PER_CLASS: usize = 12;

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1). The modulo bias is < 2⁻⁴⁰ for the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The generated graph, as plain data (what the engine is loaded from).
#[derive(Debug, Clone)]
pub struct PeopleGraph {
    /// Age of person `i` (18..80).
    pub ages: Vec<i64>,
    /// `knows` edges as `(from, to)` person indexes, no duplicates, no
    /// self loops.
    pub edges: Vec<(u32, u32)>,
    /// Out-neighbours of person `i`, in edge order.
    pub out: Vec<Vec<u32>>,
}

impl PeopleGraph {
    pub fn people(&self) -> usize {
        self.ages.len()
    }

    pub fn communities(&self) -> usize {
        self.people() / COMMUNITY
    }
}

/// Generates `people` persons (a multiple of [`COMMUNITY`]).
pub fn people_graph(people: usize, seed: u64) -> PeopleGraph {
    assert!(
        people >= 2 * COMMUNITY && people.is_multiple_of(COMMUNITY),
        "people must be a multiple of {COMMUNITY}, at least two communities"
    );
    let mut rng = Rng::new(seed ^ 0x0067_7261_7068); // "graph"
    let ages = (0..people).map(|_| 18 + rng.below(62) as i64).collect();
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(people * (INTRA + INTER));
    let mut seen = std::collections::HashSet::with_capacity(people * (INTRA + INTER));
    let mut lay_cycle = |order: &[u32], same_community_ok: bool, edges: &mut Vec<(u32, u32)>| {
        for k in 0..order.len() {
            let (a, b) = (order[k], order[(k + 1) % order.len()]);
            let cross = a as usize / COMMUNITY != b as usize / COMMUNITY;
            if a != b && (same_community_ok || cross) && seen.insert((a, b)) {
                edges.push((a, b));
            }
        }
    };
    for c in 0..people / COMMUNITY {
        let mut order: Vec<u32> = (c * COMMUNITY..(c + 1) * COMMUNITY)
            .map(|i| i as u32)
            .collect();
        for _ in 0..INTRA {
            rng.shuffle(&mut order);
            lay_cycle(&order, true, &mut edges);
        }
    }
    let mut order: Vec<u32> = (0..people as u32).collect();
    for _ in 0..INTER {
        rng.shuffle(&mut order);
        lay_cycle(&order, false, &mut edges);
    }
    let mut out = vec![Vec::with_capacity(INTRA + INTER); people];
    for &(a, b) in &edges {
        out[a as usize].push(b);
    }
    PeopleGraph { ages, edges, out }
}

/// Loads the graph through the engine facade (`create_node` /
/// `create_edge`), returning the engine id of each person.
pub fn load(engine: &mut dyn GraphEngine, graph: &PeopleGraph) -> Result<Vec<NodeId>> {
    let mut ids = Vec::with_capacity(graph.people());
    for (i, &age) in graph.ages.iter().enumerate() {
        ids.push(engine.create_node(
            Some("person"),
            props! {
                "name" => format!("person{i}"),
                "age" => age,
                "community" => (i / COMMUNITY) as i64,
            },
        )?);
    }
    for &(a, b) in &graph.edges {
        engine.create_edge(ids[a as usize], ids[b as usize], Some("knows"), props! {})?;
    }
    Ok(ids)
}

/// The paper's four essential query classes (Section IV / Table VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    Adjacency,
    Reachability,
    Pattern,
    Summarization,
}

impl Class {
    pub const ALL: [Class; 4] = [
        Class::Adjacency,
        Class::Reachability,
        Class::Pattern,
        Class::Summarization,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Adjacency => "adjacency",
            Class::Reachability => "reachability",
            Class::Pattern => "pattern",
            Class::Summarization => "summarization",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    /// Requests per [`BLOCK`], by template: 40 / 10 / 30 / 20 per class.
    ///
    /// - adjacency: outgoing 30, incoming 10
    /// - reachability: `*1..2` count 9, `*1..4` to a target 1
    /// - pattern: triangle 24, 2-hop with residual 4, community 2
    /// - summarization: community aggregate 12, community → community
    ///   5, by-age 3
    ///
    /// A class's first template is its cheapest at every scale and
    /// holds 60 % or more of the class, so the class median lies well
    /// inside one group of like-cost requests and not on the step
    /// between two. The exception is meant: `*1..2` (cost ∝ |V| today) is by far the costliest template at
    /// every scale; at 9 % of all requests, p95 of the whole window
    /// lies in the middle of that group and cannot flip between it and
    /// the next-cheaper template.
    pub fn templates_per_block(self) -> &'static [usize] {
        match self {
            Class::Adjacency => &[30, 10],
            Class::Reachability => &[9, 1],
            Class::Pattern => &[24, 4, 2],
            Class::Summarization => &[12, 5, 3],
        }
    }
}

/// Requests per schedule block. Every block holds every template
/// exactly [`Class::templates_per_block`] times, so any whole number
/// of blocks is the same work — the load loops measure whole blocks
/// only, and the share of expensive requests in a window cannot drift
/// with the seed.
pub const BLOCK: usize = 100;

/// Which template a pool slot (= Zipf rank within the class) holds:
/// two-template classes keep their second template in every third
/// slot, three-template classes rotate.
fn template_of(class: Class, slot: usize) -> usize {
    match class {
        Class::Adjacency | Class::Reachability => usize::from(slot % 3 == 2),
        Class::Pattern | Class::Summarization => slot % 3,
    }
}

/// Renders template `t` of `class`. `v` is the variable suffix (cold
/// streams vary it to make texts unique), `i` a person, `j` a second
/// person (reachability target), `c` a community, `age` an age.
fn render(class: Class, t: usize, v: &str, i: usize, j: usize, c: usize, age: i64) -> String {
    match (class, t) {
        (Class::Adjacency, 0) => {
            format!("MATCH (p{v}:person {{name:'person{i}'}})-[:knows]->(f) RETURN f.name")
        }
        (Class::Adjacency, _) => format!(
            "MATCH (p{v}:person {{name:'person{i}'}})<-[:knows]-(f:person) RETURN f.name, f.age"
        ),
        (Class::Reachability, 0) => format!(
            "MATCH (p{v}:person {{name:'person{i}'}})-[:knows*1..2]->(g:person) RETURN count(*)"
        ),
        (Class::Reachability, _) => format!(
            "MATCH (p{v}:person {{name:'person{i}'}})-[:knows*1..4]->\
             (g:person {{name:'person{j}'}}) RETURN count(*)"
        ),
        (Class::Pattern, 0) => format!(
            "MATCH (a{v}:person {{name:'person{i}'}})-[:knows]->(b)-[:knows]->(c)-[:knows]->(a{v}) \
             RETURN b.name, c.name"
        ),
        (Class::Pattern, 1) => format!(
            "MATCH (a{v}:person {{name:'person{i}'}})-[:knows]->(b:person)-[:knows]->(c:person) \
             WHERE c.age > 60 RETURN b.name, c.name"
        ),
        (Class::Pattern, _) => format!(
            "MATCH (a{v}:person {{community:{c}}})-[:knows]->(b:person) WHERE b.age < 30 \
             RETURN a{v}.name, b.name"
        ),
        (Class::Summarization, 0) => format!(
            "MATCH (q{v}:person {{community:{c}}}) RETURN count(*), avg(q{v}.age), max(q{v}.age)"
        ),
        (Class::Summarization, 1) => format!(
            "MATCH (a{v}:person {{community:{c}}})-[:knows]->(b:person) \
             RETURN b.community, count(*)"
        ),
        (Class::Summarization, _) => {
            format!("MATCH (q{v}:person) WHERE q{v}.age = {age} RETURN q{v}.community, count(*)")
        }
    }
}

/// The 48 texts of a pooled workload; text `class.index() * 12 + slot`
/// is the class's Zipf rank `slot`.
#[derive(Debug, Clone)]
pub struct Pool {
    pub texts: Vec<String>,
}

impl Pool {
    pub fn class_of(text: usize) -> Class {
        Class::ALL[text / POOL_PER_CLASS]
    }
}

/// Draws the pool: per class, 12 distinct persons / communities / ages
/// out of the first `readable` people (`refresh_10k` keeps its writer's
/// nodes outside that range).
pub fn pool(readable: usize, seed: u64) -> Pool {
    let mut rng = Rng::new(seed ^ 0x706F_6F6C); // "pool"
    let communities = readable / COMMUNITY;
    let mut texts = Vec::with_capacity(4 * POOL_PER_CLASS);
    for class in Class::ALL {
        let mut persons: Vec<usize> = (0..readable).collect();
        rng.shuffle(&mut persons);
        let mut comms: Vec<usize> = (0..communities).collect();
        rng.shuffle(&mut comms);
        let mut ages: Vec<i64> = (18..80).collect();
        rng.shuffle(&mut ages);
        for slot in 0..POOL_PER_CLASS {
            texts.push(render(
                class,
                template_of(class, slot),
                "",
                persons[slot],
                persons[POOL_PER_CLASS + slot],
                comms[slot % communities],
                ages[slot],
            ));
        }
    }
    Pool { texts }
}

/// Order of one connection's requests: a fixed multiset of
/// `(class, template)` per block, reshuffled per block from the
/// connection's own seed.
#[derive(Debug, Clone)]
struct Schedule {
    rng: Rng,
    block: Vec<(Class, usize)>,
    pos: usize,
}

impl Schedule {
    fn new(seed: u64, connection: usize) -> Self {
        let mut block = Vec::with_capacity(BLOCK);
        for class in Class::ALL {
            for (template, &count) in class.templates_per_block().iter().enumerate() {
                block.extend(std::iter::repeat_n((class, template), count));
            }
        }
        debug_assert_eq!(block.len(), BLOCK);
        Schedule {
            rng: Rng::new(seed ^ 0x7363_6864 ^ ((connection as u64 + 1) << 32)), // "schd"
            block,
            pos: BLOCK,
        }
    }

    fn next(&mut self) -> (Class, usize) {
        if self.pos == BLOCK {
            self.rng.shuffle(&mut self.block);
            self.pos = 0;
        }
        self.pos += 1;
        self.block[self.pos - 1]
    }
}

/// One connection's walk over a [`Pool`]: class and template by block
/// schedule, text among the template's slots by Zipf(1.0) weights
/// (1 / rank within the class). The weights are dealt out by smooth
/// weighted round-robin instead of drawn at random, so after `n`
/// requests of a template each of its texts has been asked its share
/// of `n` to within one — the seed picks *which* persons are hot and
/// the order of requests, never how much work a window holds.
#[derive(Debug, Clone)]
pub struct PooledCursor {
    schedule: Schedule,
    credit: [[f64; POOL_PER_CLASS]; 4],
}

impl PooledCursor {
    pub fn new(seed: u64, connection: usize) -> Self {
        PooledCursor {
            schedule: Schedule::new(seed, connection),
            credit: [[0.0; POOL_PER_CLASS]; 4],
        }
    }

    /// Index into [`Pool::texts`] of the next request.
    pub fn next_text(&mut self) -> usize {
        let (class, template) = self.schedule.next();
        let credit = &mut self.credit[class.index()];
        let mut total = 0.0;
        let mut best = None;
        for slot in (0..POOL_PER_CLASS).filter(|&s| template_of(class, s) == template) {
            let w = 1.0 / (slot + 1) as f64;
            credit[slot] += w;
            total += w;
            if best.is_none_or(|b| credit[slot] > credit[b]) {
                best = Some(slot);
            }
        }
        let best = best.expect("every template holds a slot");
        credit[best] -= total;
        class.index() * POOL_PER_CLASS + best
    }
}

/// What a cold request asks, as the key of its expected answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColdAsk {
    /// Names of `person`'s out-neighbours.
    Out(u32),
    /// Names and ages of `person`'s in-neighbours.
    In(u32),
    /// Whether a chosen 2-hop neighbour is within 4 hops: always 1.
    Reach,
    /// The triangles through `person`.
    Triangle(u32),
    /// count / avg(age) / max(age) of a community.
    Summary(u32),
}

/// One connection's walk over the cold stream (`cold_plans_10k`): the
/// cheapest ("point") template of every class, every text unique, so
/// each request parses, plans and seeds index domains afresh while
/// execution stays near idle. Person ids come from one seeded
/// permutation, connection `t` of `T` taking entries `t, t+T, …`; once
/// a lap over the people is used up the query's variable name changes
/// (`p0`, `p1`, …), which changes the text — and the plan-cache key —
/// but not the plan.
#[derive(Debug, Clone)]
pub struct ColdCursor {
    schedule: Schedule,
    connection: usize,
    connections: usize,
    asked: [usize; 4],
    persons: std::sync::Arc<Vec<u32>>,
}

/// The seeded person permutation the cold cursors share.
pub fn cold_persons(people: usize, seed: u64) -> std::sync::Arc<Vec<u32>> {
    let mut persons: Vec<u32> = (0..people as u32).collect();
    Rng::new(seed ^ 0x636F_6C64).shuffle(&mut persons); // "cold"
    std::sync::Arc::new(persons)
}

impl ColdCursor {
    pub fn new(
        seed: u64,
        connection: usize,
        connections: usize,
        persons: std::sync::Arc<Vec<u32>>,
    ) -> Self {
        ColdCursor {
            schedule: Schedule::new(seed, connection),
            connection,
            connections,
            asked: [0; 4],
            persons,
        }
    }

    /// The next request: its class, its text, and what it asks.
    pub fn next(&mut self, graph: &PeopleGraph) -> (Class, String, ColdAsk) {
        let (class, template) = self.schedule.next();
        let turn = self.asked[class.index()];
        self.asked[class.index()] += 1;
        let k = turn * self.connections + self.connection;
        let people = self.persons.len();
        let person = self.persons[k % people];
        let i = person as usize;
        let lap = (k / people).to_string();
        match class {
            Class::Adjacency => {
                let ask = if template == 0 {
                    ColdAsk::Out(person)
                } else {
                    ColdAsk::In(person)
                };
                (class, render(class, template, &lap, i, 0, 0, 0), ask)
            }
            Class::Reachability => {
                // A target two hops out, so the expected answer (1) is
                // known without a search. Persons have ~10 neighbours
                // each; one that is not `i` itself always exists.
                let j = graph.out[i]
                    .iter()
                    .flat_map(|&a| graph.out[a as usize].iter())
                    .find(|&&j| j != person)
                    .copied()
                    .expect("a 2-hop neighbour");
                (
                    class,
                    render(class, 1, &lap, i, j as usize, 0, 0),
                    ColdAsk::Reach,
                )
            }
            Class::Pattern => (
                class,
                render(class, 0, &lap, i, 0, 0, 0),
                ColdAsk::Triangle(person),
            ),
            Class::Summarization => {
                let communities = graph.communities();
                let c = k % communities;
                let tag = (k / communities).to_string();
                (
                    class,
                    render(class, 0, &tag, 0, 0, c, 0),
                    ColdAsk::Summary(c as u32),
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn graph_is_seeded_and_near_regular() {
        let a = people_graph(1000, 3);
        assert_eq!(a.edges, people_graph(1000, 3).edges);
        assert_ne!(a.edges, people_graph(1000, 4).edges);
        for (i, out) in a.out.iter().enumerate() {
            assert!(!out.contains(&(i as u32)), "self loop at {i}");
            assert!(
                (INTRA + INTER - 4..=INTRA + INTER).contains(&out.len()),
                "person {i} has out-degree {}",
                out.len()
            );
        }
    }

    #[test]
    fn pooled_walk_repeats_per_seed_and_keeps_the_mix_per_block() {
        let p = pool(1000, 5);
        assert_eq!(p.texts, pool(1000, 5).texts);
        assert_ne!(p.texts, pool(1000, 6).texts);
        assert_eq!(p.texts.iter().collect::<HashSet<_>>().len(), 48);

        let walk = |seed, conn| {
            let mut c = PooledCursor::new(seed, conn);
            (0..10 * BLOCK).map(|_| c.next_text()).collect::<Vec<_>>()
        };
        assert_eq!(walk(5, 0), walk(5, 0));
        assert_ne!(walk(5, 0), walk(5, 1));
        assert_ne!(walk(5, 0), walk(6, 0));
        let w = walk(5, 0);
        for block in w.chunks(BLOCK) {
            for class in Class::ALL {
                for (template, &count) in class.templates_per_block().iter().enumerate() {
                    let n = block
                        .iter()
                        .filter(|&&t| {
                            Pool::class_of(t) == class
                                && template_of(class, t % POOL_PER_CLASS) == template
                        })
                        .count();
                    assert_eq!(n, count, "{class:?} template {template}");
                }
            }
        }
        // Zipf(1.0) weights among a template's texts, to within one
        // request: of 300 outgoing-adjacency requests, rank 0 gets
        // 300 · 1 / (1 + 1/2 + 1/4 + 1/5 + 1/7 + 1/8 + 1/10 + 1/11) ≈ 124.3.
        let rank0 = w.iter().filter(|&&t| t == 0).count();
        assert!((123..=126).contains(&rank0), "rank-0 count {rank0}");
    }

    #[test]
    fn cold_texts_are_unique_across_connections_and_laps() {
        let g = people_graph(200, 1);
        let persons = cold_persons(200, 9);
        let mut seen = HashSet::new();
        for conn in 0..2 {
            let mut c = ColdCursor::new(9, conn, 2, persons.clone());
            for _ in 0..20 * BLOCK {
                let (_, text, _) = c.next(&g);
                assert!(seen.insert(text.clone()), "repeated cold text: {text}");
            }
        }
    }
}
