//! The key/value abstraction and its in-memory implementation.
//!
//! Several surveyed systems are "graph stores on a key/value backend"
//! (the paper: VertexDB on TokyoCabinet; HyperGraphDB on a key/value
//! store; Filament over JDB). [`KvStore`] is that backend seam: the
//! disk B-tree and [`MemKv`] implement it, and engines build graph
//! layouts on top.
//!
//! Methods take `&mut self` because disk-backed implementations mutate
//! their buffer pool even on reads.

use gdm_core::Result;
use std::collections::BTreeMap;
use std::ops::Bound;

/// An ordered, persistent-capable key/value store.
pub trait KvStore {
    /// Returns the value stored at `key`.
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>>;

    /// Stores `value` at `key`, returning the previous value if any.
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>>;

    /// Removes `key`, returning the previous value if any.
    fn delete(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>>;

    /// Returns all `(key, value)` pairs with `start ≤ key < end` in key
    /// order; `end = None` means unbounded.
    fn scan_range(&mut self, start: &[u8], end: Option<&[u8]>) -> Result<Vec<(Vec<u8>, Vec<u8>)>>;

    /// Number of stored pairs.
    fn len(&mut self) -> Result<usize>;

    /// Flushes buffered state to durable storage (no-op for memory).
    fn flush(&mut self) -> Result<()>;

    /// True when the store holds nothing.
    fn is_empty(&mut self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// All pairs whose key starts with `prefix`, in key order.
    fn scan_prefix(&mut self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        match prefix_end(prefix) {
            Some(end) => self.scan_range(prefix, Some(&end)),
            None => self.scan_range(prefix, None),
        }
    }

    /// True when `key` is present.
    fn contains(&mut self, key: &[u8]) -> Result<bool> {
        Ok(self.get(key)?.is_some())
    }
}

/// Smallest byte string greater than every string with this prefix, or
/// `None` when the prefix is all `0xff` (unbounded).
pub fn prefix_end(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut end = prefix.to_vec();
    while let Some(last) = end.last_mut() {
        if *last < 0xff {
            *last += 1;
            return Some(end);
        }
        end.pop();
    }
    None
}

/// An in-memory ordered store — the main-memory storage schema of
/// Table I, and the differential-testing oracle for [`crate::DiskBTree`].
#[derive(Debug, Default, Clone)]
pub struct MemKv {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
}

impl MemKv {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl KvStore for MemKv {
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.map.get(key).cloned())
    }

    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.map.insert(key.to_vec(), value.to_vec()))
    }

    fn delete(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.map.remove(key))
    }

    fn scan_range(&mut self, start: &[u8], end: Option<&[u8]>) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        // An empty range (end ≤ start) yields nothing; `BTreeMap::range`
        // panics on inverted bounds, so guard explicitly.
        if end.is_some_and(|e| e <= start) {
            return Ok(Vec::new());
        }
        let upper = match end {
            Some(e) => Bound::Excluded(e.to_vec()),
            None => Bound::Unbounded,
        };
        Ok(self
            .map
            .range((Bound::Included(start.to_vec()), upper))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect())
    }

    fn len(&mut self) -> Result<usize> {
        Ok(self.map.len())
    }

    fn flush(&mut self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let mut kv = MemKv::new();
        assert_eq!(kv.put(b"a", b"1").unwrap(), None);
        assert_eq!(kv.put(b"a", b"2").unwrap(), Some(b"1".to_vec()));
        assert_eq!(kv.get(b"a").unwrap(), Some(b"2".to_vec()));
        assert_eq!(kv.delete(b"a").unwrap(), Some(b"2".to_vec()));
        assert_eq!(kv.delete(b"a").unwrap(), None);
        assert!(kv.is_empty().unwrap());
    }

    #[test]
    fn range_scan_is_half_open() {
        let mut kv = MemKv::new();
        for k in [b"a", b"b", b"c", b"d"] {
            kv.put(k, b"v").unwrap();
        }
        let got: Vec<_> = kv
            .scan_range(b"b", Some(b"d"))
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(got, vec![b"b".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn unbounded_scan() {
        let mut kv = MemKv::new();
        kv.put(b"x", b"1").unwrap();
        kv.put(b"y", b"2").unwrap();
        assert_eq!(kv.scan_range(b"", None).unwrap().len(), 2);
    }

    #[test]
    fn prefix_scan() {
        let mut kv = MemKv::new();
        for k in [&b"n/1"[..], b"n/2", b"e/1", b"n"] {
            kv.put(k, b"v").unwrap();
        }
        let got = kv.scan_prefix(b"n/").unwrap();
        assert_eq!(got.len(), 2);
        let all_n = kv.scan_prefix(b"n").unwrap();
        assert_eq!(all_n.len(), 3);
    }

    #[test]
    fn prefix_end_handles_ff() {
        assert_eq!(prefix_end(b"ab"), Some(b"ac".to_vec()));
        assert_eq!(prefix_end(&[0x61, 0xff]), Some(vec![0x62]));
        assert_eq!(prefix_end(&[0xff, 0xff]), None);
        assert_eq!(prefix_end(b""), None);
    }

    #[test]
    fn contains_via_default_method() {
        let mut kv = MemKv::new();
        kv.put(b"k", b"v").unwrap();
        assert!(kv.contains(b"k").unwrap());
        assert!(!kv.contains(b"nope").unwrap());
    }
}
