//! A shared plan cache for repeated pattern queries.
//!
//! Planning is cheap but not free — conjunct splitting, index probes,
//! and candidate materialization all walk the query each time — and a
//! serving layer sees the same query texts over and over. The cache
//! maps a **canonical query text** to its [`PlannedSelect`] so repeat
//! executions skip planning entirely.
//!
//! Keying: the key is the canonical *query text*, not the rendered
//! [`ExplainPlan`](crate::plan::ExplainPlan). The render is a faithful
//! fingerprint of *how* a query executes, but it deliberately omits
//! *what* the query computes — projections, residual literal values,
//! order/skip/limit — so two different queries can render identically
//! and the render cannot be the key.
//!
//! Staleness: a cached plan embeds materialized candidate domains.
//! Executing one against a graph that has since gained nodes can miss
//! them, so every plan is tagged with the epoch of the **immutable
//! snapshot** it was planned against, and a lookup under any other
//! epoch evicts it ([`PlanCache::get_epoch`]). Deleted nodes are
//! caught anyway: execution re-probes domains and falls back to the
//! reference matcher on the first dangling id.
//!
//! Concurrency: lookups and inserts take a [`Mutex`] for the map;
//! hit/miss counters are lock-free atomics so `STATS` never contends
//! with query traffic.

use crate::plan::PlannedSelect;
use gdm_core::FxHashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A bounded, concurrency-safe cache of planned queries.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    epoch_evictions: AtomicU64,
}

#[derive(Debug, Default)]
struct Inner {
    /// Each plan is tagged with the snapshot epoch it was planned
    /// against; a lookup under a different epoch evicts the entry
    /// (see [`PlanCache::get_epoch`]).
    map: FxHashMap<String, (u64, Arc<PlannedSelect>)>,
    /// Keys in insertion order — FIFO eviction. Plans are small and
    /// per-snapshot, so recency tracking is not worth a second lock
    /// touch on the hit path.
    order: VecDeque<String>,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            epoch_evictions: AtomicU64::new(0),
        }
    }

    /// Looks `key` up for a snapshot with the given epoch. A plan
    /// cached against any *other* epoch is stale — its materialized
    /// candidate domains index a graph that no longer serves — so the
    /// entry is evicted on the spot (counted in
    /// [`PlanCache::epoch_evictions`]) and the lookup misses. This is
    /// what lets a live-refreshing server keep one shared cache across
    /// snapshot swaps without a stop-the-world clear.
    pub fn get_epoch(&self, key: &str, epoch: u64) -> Option<Arc<PlannedSelect>> {
        let mut inner = self.inner.lock().expect("plan cache lock");
        let found = match inner.map.get(key) {
            Some((e, plan)) if *e == epoch => Some(plan.clone()),
            Some(_) => {
                inner.map.remove(key);
                inner.order.retain(|k| k != key);
                self.epoch_evictions.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => None,
        };
        drop(inner);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts a plan under `key`, tagged with the epoch of the
    /// snapshot it was planned against, evicting the oldest entry at
    /// capacity. Re-inserting an existing key replaces its plan (and
    /// epoch tag) without growing the cache.
    pub fn insert_epoch(&self, key: &str, epoch: u64, plan: Arc<PlannedSelect>) {
        let mut inner = self.inner.lock().expect("plan cache lock");
        if inner.map.insert(key.to_owned(), (epoch, plan)).is_none() {
            inner.order.push_back(key.to_owned());
            while inner.map.len() > self.capacity {
                if let Some(old) = inner.order.pop_front() {
                    inner.map.remove(&old);
                }
            }
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("plan cache lock").map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of cached plans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lifetime entries evicted because a lookup arrived under a
    /// different snapshot epoch than the one the plan was made for.
    pub fn epoch_evictions(&self) -> u64 {
        self.epoch_evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::SelectQuery;
    use crate::cypher;
    use crate::plan::plan_select;
    use gdm_core::props;
    use gdm_graphs::PropertyGraph;

    fn graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        g.add_node("person", props! { "name" => "ada" });
        g.add_node("person", props! { "name" => "bob" });
        g
    }

    fn query(name: &str) -> SelectQuery {
        let text = format!("MATCH (p:person {{name: '{name}'}}) RETURN p.name");
        match cypher::parse(&text).unwrap() {
            cypher::CypherStatement::Select(q) => *q,
            other => panic!("expected select, got {other:?}"),
        }
    }

    fn planned(name: &str) -> Arc<PlannedSelect> {
        Arc::new(plan_select(&graph(), &query(name)).unwrap())
    }

    #[test]
    fn repeat_lookups_hit() {
        let cache = PlanCache::new(8);
        assert!(cache.get_epoch("q1", 0).is_none(), "first lookup misses");
        let plan = planned("ada");
        cache.insert_epoch("q1", 0, plan.clone());
        let again = cache.get_epoch("q1", 0).expect("second lookup hits");
        assert!(Arc::ptr_eq(&plan, &again), "the hit reuses the plan");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let cache = PlanCache::new(2);
        for (i, name) in ["ada", "bob", "cleo"].iter().enumerate() {
            cache.insert_epoch(&format!("q{i}"), 0, planned(name));
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.get_epoch("q0", 0).is_none(), "oldest evicted");
        assert!(cache.get_epoch("q2", 0).is_some());
    }

    #[test]
    fn epoch_mismatch_evicts_and_misses() {
        let cache = PlanCache::new(4);
        let planned = planned("ada");
        cache.insert_epoch("q", 7, planned.clone());
        assert!(cache.get_epoch("q", 7).is_some(), "same epoch hits");
        assert_eq!(cache.epoch_evictions(), 0);
        // The snapshot was swapped: the stale plan must not serve.
        assert!(cache.get_epoch("q", 8).is_none());
        assert_eq!(cache.epoch_evictions(), 1);
        assert_eq!(cache.len(), 0, "stale entry evicted eagerly");
        // Re-inserting under the new epoch works normally again.
        cache.insert_epoch("q", 8, planned);
        assert!(cache.get_epoch("q", 8).is_some());
    }
}
