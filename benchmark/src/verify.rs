//! Reply verification: every reply is reduced to a row count and an
//! order-insensitive checksum and compared with an answer that did not
//! come over the serving path.
//!
//! - Pooled texts: the answer comes from the engine's own live-graph
//!   query path (`GraphEngine::execute_query`), which bypasses
//!   `FrozenGraph`, the plan cache and the wire.
//! - Cold texts (each asked once): the answer is computed from the
//!   generator's data alone, without the engine.

use crate::gen::{ColdAsk, PeopleGraph, COMMUNITY};
use gdm_core::Value;

/// What a reply must reduce to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub rows: u32,
    /// Wrapping sum of per-row hashes: independent of row order.
    pub sum: u64,
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn hash_value(h: &mut u64, v: &Value) {
    match v {
        Value::Null => fnv(h, &[0]),
        Value::Bool(b) => fnv(h, &[1, u8::from(*b)]),
        Value::Int(i) => {
            fnv(h, &[2]);
            fnv(h, &i.to_le_bytes());
        }
        Value::Float(f) => {
            fnv(h, &[3]);
            fnv(h, &f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            fnv(h, &[4]);
            fnv(h, &(s.len() as u64).to_le_bytes());
            fnv(h, s.as_bytes());
        }
        Value::List(items) => {
            fnv(h, &[5]);
            fnv(h, &(items.len() as u64).to_le_bytes());
            for item in items {
                hash_value(h, item);
            }
        }
    }
}

fn hash_row(row: &[Value]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325;
    for v in row {
        hash_value(&mut h, v);
    }
    h
}

/// Reduces result rows to their [`Answer`].
pub fn answer_of(rows: &[Vec<Value>]) -> Answer {
    Answer {
        rows: rows.len() as u32,
        sum: rows
            .iter()
            .fold(0u64, |acc, r| acc.wrapping_add(hash_row(r))),
    }
}

fn name(i: u32) -> Value {
    Value::Str(format!("person{i}"))
}

/// Expected answers of every cold request, from the generator's data.
#[derive(Debug)]
pub struct ColdAnswers {
    out: Vec<Answer>,
    inn: Vec<Answer>,
    triangle: Vec<Answer>,
    summary: Vec<Answer>,
    reach: Answer,
}

impl ColdAnswers {
    pub fn new(g: &PeopleGraph) -> Self {
        let people = g.people();
        let mut inn_rows: Vec<Vec<Vec<Value>>> = vec![Vec::new(); people];
        for &(a, b) in &g.edges {
            inn_rows[b as usize].push(vec![name(a), Value::Int(g.ages[a as usize])]);
        }
        let out = g
            .out
            .iter()
            .map(|nbrs| answer_of(&nbrs.iter().map(|&b| vec![name(b)]).collect::<Vec<_>>()))
            .collect();
        let triangle = (0..people as u32)
            .map(|a| {
                let mut rows = Vec::new();
                for &b in &g.out[a as usize] {
                    for &c in &g.out[b as usize] {
                        // Pattern matching is injective: a, b, c differ
                        // (b ≠ a and c ≠ b hold because there are no
                        // self loops).
                        if c != a && g.out[c as usize].contains(&a) {
                            rows.push(vec![name(b), name(c)]);
                        }
                    }
                }
                answer_of(&rows)
            })
            .collect();
        let summary = g
            .ages
            .chunks(COMMUNITY)
            .map(|ages| {
                let sum: i64 = ages.iter().sum();
                answer_of(&[vec![
                    Value::Int(ages.len() as i64),
                    Value::Float(sum as f64 / ages.len() as f64),
                    Value::Int(*ages.iter().max().expect("non-empty community")),
                ]])
            })
            .collect();
        ColdAnswers {
            out,
            inn: inn_rows.iter().map(|rows| answer_of(rows)).collect(),
            triangle,
            summary,
            reach: answer_of(&[vec![Value::Int(1)]]),
        }
    }

    pub fn expect(&self, ask: ColdAsk) -> Answer {
        match ask {
            ColdAsk::Out(p) => self.out[p as usize],
            ColdAsk::In(p) => self.inn[p as usize],
            ColdAsk::Reach => self.reach,
            ColdAsk::Triangle(p) => self.triangle[p as usize],
            ColdAsk::Summary(c) => self.summary[c as usize],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_ignores_row_order_but_not_content_or_type() {
        let a = vec![vec![Value::Int(1), Value::from("x")], vec![Value::Int(2)]];
        let b = vec![vec![Value::Int(2)], vec![Value::Int(1), Value::from("x")]];
        assert_eq!(answer_of(&a), answer_of(&b));
        let c = vec![vec![Value::Int(2)], vec![Value::Int(1), Value::from("y")]];
        assert_ne!(answer_of(&a), answer_of(&c));
        assert_ne!(
            answer_of(&[vec![Value::Int(1)]]),
            answer_of(&[vec![Value::Float(1.0)]])
        );
        assert_ne!(answer_of(&[vec![]]), answer_of(&[]));
    }
}
