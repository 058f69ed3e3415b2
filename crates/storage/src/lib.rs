//! # gdm-storage
//!
//! Storage substrates for the graph-database-model reproduction. Each of
//! the nine surveyed databases sat on a recognizable storage design; the
//! paper's Table I (main memory / external memory / backend storage /
//! indexes) compares exactly these. This crate builds each design:
//!
//! * [`pager`] — a 4 KiB page file with a pinned, LRU-evicting buffer
//!   pool and observable I/O statistics (page-fault counting drives the
//!   G-Store placement ablation bench),
//! * [`btree`] — an on-disk B-tree key/value store over the pager: the
//!   stand-in for TokyoCabinet (VertexDB's backend) and BerkeleyDB-style
//!   backends (HyperGraphDB, Filament),
//! * [`memkv`] — an in-memory store implementing the same [`KvStore`]
//!   trait, used both standalone (main-memory engines) and as the
//!   differential-testing oracle for the B-tree,
//! * [`heap`] — a slotted-page heap file with RID addressing and
//!   placement hints (G-Store's external-memory design),
//! * [`records`] — fixed-size node/relationship records with per-node
//!   relationship linked lists (Neo4j's native store, at the logical
//!   level),
//! * [`bitmap`] — dynamic bitsets and a value→bitmap index (DEX's
//!   bitmap-based design),
//! * [`index`] — hash, B-tree, and bitmap secondary indexes over
//!   attribute values behind one [`index::ValueIndex`] trait,
//! * [`codec`] — order-preserving byte encodings for
//!   [`gdm_core::Value`] keys and varint record encoding.

pub mod bitmap;
pub mod btree;
pub mod codec;
pub mod heap;
pub mod index;
pub mod memkv;
pub mod pager;
pub mod records;

pub use bitmap::Bitmap;
pub use btree::DiskBTree;
pub use heap::{HeapFile, Rid};
pub use index::{BTreeIndex, BitmapIndex, HashIndex, ValueIndex};
pub use memkv::{KvStore, MemKv};
pub use pager::{BufferPool, PageId, PoolStats, PAGE_SIZE};
pub use records::RecordStore;
