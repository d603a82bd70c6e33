//! The NewsLink framework (the paper's primary contribution, §III–§VI).
//!
//! Wires the NLP component (`newslink-nlp`), the NE component
//! (`newslink-embed`) and the NS component (BOW/BON blending over
//! `newslink-text`) into one engine:
//!
//! - [`config`] — β, embedding model, threading, segment sizing;
//! - [`indexer`] — corpus embedding + parallel segment building;
//! - [`segment`] — immutable index segments, tombstones, compaction and
//!   the global-stats scoring overlay;
//! - [`searcher`] — Equation 3 blended scoring, per-segment fan-out,
//!   top-k merge, explanations;
//! - [`directory`] — the storage seam: named-blob directories
//!   (file-system or in-memory) and the heap-or-mmap
//!   [`StorageBackend`] choice;
//! - [`pipeline`] — the [`NewsLink`] facade.

#![deny(unsafe_code)]

pub mod alerts;
pub mod api;
mod cache;
pub mod config;
pub mod directory;
pub mod indexer;
pub mod persist;
pub mod pipeline;
pub mod score_explain;
pub mod searcher;
pub mod segment;
pub mod store;
pub mod wal;

pub use alerts::{AlertMatch, AlertRegistry};
pub use api::{
    BatchResponse, ExplainOptions, Explanation, QueryCacheInfo, SearchRequest, SearchResponse,
};
pub use cache::EngineCacheStats;
pub use config::{CacheConfig, EmbeddingModel, NewsLinkConfig};
pub use indexer::{doc_ids, index_corpus, index_corpus_sharded, index_corpus_with, NewsLinkIndex};
pub use pipeline::{NewsLink, QueryAnalysis};
pub use score_explain::{explain_score, ScoreExplanation, SideExplanation, TermContribution};
pub use searcher::{explain, search, QueryOutcome, SearchResult};
pub use segment::{IndexSegment, IndexStats, Side, SideOverlay};
pub use directory::{Directory, FsDirectory, RamDirectory, StorageBackend};
pub use persist::{
    atomic_write_file, load_newslink_index, read_newslink_index_bytes, save_newslink_index,
    segment_byte_spans, write_newslink_index, write_newslink_index_v3, LoadReport, PersistError,
};
pub use store::DurableStore;
pub use wal::{Wal, WalRecord};

/// Document ids are minted by the index; re-exported so downstream
/// crates (serve, cli) can name them without depending on the text crate.
pub use newslink_text::{CollectionStats, DocId, ParallelStats, PruneStats};
