//! Property tests for the storage substrates: the disk B-tree is
//! differentially tested against the in-memory oracle under random
//! operation sequences, with structural invariants checked after every
//! batch.

use graph_db_models::storage::{BufferPool, DiskBTree, KvStore, MemKv};
use proptest::prelude::*;

/// A random KV operation.
#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Get(Vec<u8>),
    Scan(Vec<u8>, Option<Vec<u8>>),
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Small keyspace so collisions (overwrites, real deletes) happen.
    prop::collection::vec(prop::num::u8::ANY, 1..12)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            key_strategy(),
            prop::collection::vec(prop::num::u8::ANY, 0..64)
        )
            .prop_map(|(k, v)| Op::Put(k, v)),
        key_strategy().prop_map(Op::Delete),
        key_strategy().prop_map(Op::Get),
        (key_strategy(), prop::option::of(key_strategy())).prop_map(|(a, b)| Op::Scan(a, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn disk_btree_matches_memkv(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut tree = DiskBTree::new(BufferPool::memory(8)).expect("tree");
        let mut oracle = MemKv::new();
        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    prop_assert_eq!(tree.put(k, v).expect("put"), oracle.put(k, v).expect("put"));
                }
                Op::Delete(k) => {
                    prop_assert_eq!(tree.delete(k).expect("del"), oracle.delete(k).expect("del"));
                }
                Op::Get(k) => {
                    prop_assert_eq!(tree.get(k).expect("get"), oracle.get(k).expect("get"));
                }
                Op::Scan(start, end) => {
                    prop_assert_eq!(
                        tree.scan_range(start, end.as_deref()).expect("scan"),
                        oracle.scan_range(start, end.as_deref()).expect("scan")
                    );
                }
            }
        }
        prop_assert_eq!(tree.len().expect("len"), oracle.len().expect("len"));
        tree.check_invariants().expect("invariants hold");
    }

    #[test]
    fn heavy_delete_keeps_tree_valid(keys in prop::collection::vec(key_strategy(), 1..300)) {
        let mut tree = DiskBTree::new(BufferPool::memory(8)).expect("tree");
        for k in &keys {
            tree.put(k, b"payload-of-some-size-to-force-splits").expect("put");
        }
        tree.check_invariants().expect("after inserts");
        // Delete every other distinct key.
        let mut distinct: Vec<&Vec<u8>> = keys.iter().collect();
        distinct.sort();
        distinct.dedup();
        for k in distinct.iter().step_by(2) {
            tree.delete(k).expect("delete");
        }
        tree.check_invariants().expect("after deletes");
        // The survivors must all be present.
        for (i, k) in distinct.iter().enumerate() {
            let got = tree.get(k).expect("get");
            prop_assert_eq!(got.is_some(), i % 2 == 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bitmap_matches_btreeset_oracle(
        ops in prop::collection::vec((0u8..4, 0u64..300), 1..300)
    ) {
        use graph_db_models::storage::Bitmap;
        use std::collections::BTreeSet;
        let mut bm = Bitmap::new();
        let mut oracle: BTreeSet<u64> = BTreeSet::new();
        for (op, id) in ops {
            match op {
                0 | 1 => {
                    prop_assert_eq!(bm.insert(id), oracle.insert(id));
                }
                2 => {
                    prop_assert_eq!(bm.remove(id), oracle.remove(&id));
                }
                _ => {
                    prop_assert_eq!(bm.contains(id), oracle.contains(&id));
                }
            }
        }
        prop_assert_eq!(bm.len(), oracle.len());
        let from_bm: Vec<u64> = bm.iter().collect();
        let from_oracle: Vec<u64> = oracle.iter().copied().collect();
        prop_assert_eq!(from_bm, from_oracle);
    }

    #[test]
    fn bitmap_set_algebra_matches_btreeset(
        a in prop::collection::btree_set(0u64..200, 0..80),
        b in prop::collection::btree_set(0u64..200, 0..80),
    ) {
        use graph_db_models::storage::Bitmap;
        let bma: Bitmap = a.iter().copied().collect();
        let bmb: Bitmap = b.iter().copied().collect();
        let union: Vec<u64> = bma.union(&bmb).iter().collect();
        let inter: Vec<u64> = bma.intersection(&bmb).iter().collect();
        let diff: Vec<u64> = bma.difference(&bmb).iter().collect();
        prop_assert_eq!(union, a.union(&b).copied().collect::<Vec<_>>());
        prop_assert_eq!(inter, a.intersection(&b).copied().collect::<Vec<_>>());
        prop_assert_eq!(diff, a.difference(&b).copied().collect::<Vec<_>>());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pager_round_trips_through_flush_and_reopen(
        writes in prop::collection::vec((0usize..12, prop::num::u8::ANY), 1..60)
    ) {
        use graph_db_models::storage::{BufferPool, PageId, PAGE_SIZE};
        let dir = std::env::temp_dir().join(format!(
            "gdm-pager-prop-{}-{:x}",
            std::process::id(),
            writes.len() * 31 + writes.first().map(|w| w.0).unwrap_or(0)
        ));
        std::fs::create_dir_all(&dir).expect("dir");
        let path = dir.join("pool.pages");
        let _ = std::fs::remove_file(&path);
        let mut expected: std::collections::HashMap<u32, u8> = std::collections::HashMap::new();
        {
            // Tiny pool: every write evicts.
            let mut pool = BufferPool::file(&path, 2).expect("pool");
            let pages: Vec<PageId> =
                (0..12).map(|_| pool.allocate_page().expect("alloc")).collect();
            for (slot, byte) in &writes {
                let pid = pages[*slot];
                pool.update_page(pid, |data| {
                    data[0] = *byte;
                    data[PAGE_SIZE - 1] = byte.wrapping_add(1);
                })
                .expect("write");
                expected.insert(pid.raw(), *byte);
            }
            pool.flush().expect("flush");
        }
        {
            let mut pool = BufferPool::file(&path, 2).expect("reopen");
            for (raw, byte) in &expected {
                let (first, last) = pool
                    .with_page(PageId(*raw), |d| (d[0], d[PAGE_SIZE - 1]))
                    .expect("read");
                prop_assert_eq!(first, *byte);
                prop_assert_eq!(last, byte.wrapping_add(1));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn btree_survives_reopen_with_mixed_history() {
    let dir = std::env::temp_dir().join(format!("gdm-it-btree-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.db");
    {
        let mut tree = DiskBTree::file(&path, 8).unwrap();
        for i in 0..500u32 {
            tree.put(format!("k{i:05}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        for i in (0..500).step_by(3) {
            tree.delete(format!("k{i:05}").as_bytes()).unwrap();
        }
        tree.flush().unwrap();
    }
    {
        let mut tree = DiskBTree::file(&path, 8).unwrap();
        tree.check_invariants().unwrap();
        for i in 0..500u32 {
            let present = tree.get(format!("k{i:05}").as_bytes()).unwrap().is_some();
            assert_eq!(present, i % 3 != 0, "i={i}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
