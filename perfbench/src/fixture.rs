//! The benchmark's inputs. Three seeds make them:
//!
//! - the world seed fixes the served world and index corpus;
//! - the held-out seed fixes a second corpus the index never saw, whose
//!   sentences are the queries and whose documents are the inserts, and
//!   which of its sentences are the popular ones;
//! - the request seed (`--seed`) draws the streams from that pool: the
//!   order fresh queries are asked in, the Zipf draws over the popular
//!   queries, and the order documents are inserted in.
//!
//! The program receives only the generated text.

use std::collections::HashSet;

use newslink_core::NewsLinkConfig;
use newslink_corpus::{generate_corpus, CorpusConfig, CorpusFlavor};
use newslink_kg::{synth, LabelIndex, SynthConfig, SynthWorld};
use newslink_nlp::split_sentences;
use newslink_serve::ServeConfig;
use newslink_util::DetRng;
use serde::Value;

use crate::loadgen::{parse_ranking, Kept, Source};

/// World size: about three times the `medium` preset, so the query-side
/// NE working set overflows the engine's 4096-entry distance cache and
/// 8192-entry group memo.
pub const WORLD_NODES: usize = 15_000;
/// Documents in the served index.
pub const INDEX_DOCS: usize = 1_000;
/// Held-out documents the request streams are cut from.
pub const HELD_OUT_DOCS: usize = 6_000;
/// Popular queries of the `*_hot` streams: they fit the engine's
/// 1024-entry query memo.
pub const HOT_QUERIES: usize = 256;
/// Zipf exponent of the `*_hot` streams.
pub const ZIPF_S: f64 = 1.0;
/// Results per search.
pub const K: usize = 10;

/// The engine configuration `newslink serve` ships with.
pub fn shipped_config() -> NewsLinkConfig {
    NewsLinkConfig::default().with_beta(0.2).with_auto_threads()
}

/// The server configuration `newslink serve` ships with.
pub fn serve_config() -> ServeConfig {
    ServeConfig::default()
}

/// The served side: world, label index and index corpus.
pub struct World {
    /// The synthetic knowledge graph and its registers.
    pub world: SynthWorld,
    /// Label → node resolution over `world.graph`.
    pub labels: LabelIndex,
    /// Texts of the indexed documents.
    pub docs: Vec<String>,
}

impl World {
    /// Generate the world and the CNN-flavor index corpus for
    /// `world_seed`.
    pub fn build(world_seed: u64) -> Self {
        let world = synth::generate(&SynthConfig::scaled(world_seed, WORLD_NODES));
        let labels = LabelIndex::build(&world.graph);
        let corpus = generate_corpus(
            &world,
            &CorpusConfig::new(
                world_seed.wrapping_add(1),
                INDEX_DOCS,
                CorpusFlavor::CnnLike,
            ),
        );
        let docs = corpus.docs.into_iter().map(|d| d.text).collect();
        Self {
            world,
            labels,
            docs,
        }
    }
}

/// The client side: held-out sentences (queries) and documents
/// (inserts), both from a corpus generated with the held-out seed.
pub struct HeldOut {
    /// Distinct held-out sentences in an order shuffled by the held-out
    /// seed; the first [`HOT_QUERIES`] are the popular ones, by rank.
    pub sentences: Vec<String>,
    /// Held-out documents, in generation order.
    pub docs: Vec<String>,
}

impl HeldOut {
    /// Cut the held-out inputs for `held_out_seed` from a corpus over
    /// `world`.
    pub fn build(world: &SynthWorld, held_out_seed: u64) -> Self {
        let corpus = generate_corpus(
            world,
            &CorpusConfig::new(held_out_seed, HELD_OUT_DOCS, CorpusFlavor::CnnLike),
        );
        let docs: Vec<String> = corpus.docs.into_iter().map(|d| d.text).collect();
        let sentences = distinct_sentences(&docs, held_out_seed);
        Self { sentences, docs }
    }
}

/// A permutation of `0..n` drawn from `seed`.
pub fn permutation(seed: u64, n: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    DetRng::new(seed).fork(0x0DE5).shuffle(&mut order);
    order
}

/// Every distinct sentence of `docs` with at least three words, in an
/// order shuffled by `seed`.
pub fn distinct_sentences(docs: &[String], seed: u64) -> Vec<String> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for doc in docs {
        for s in split_sentences(doc) {
            let text = s.text(doc).trim();
            if text.split_whitespace().count() >= 3 && seen.insert(text) {
                out.push(text.to_string());
            }
        }
    }
    DetRng::new(seed).fork(0x5E47).shuffle(&mut out);
    out
}

/// `len` Zipf(s = [`ZIPF_S`]) ranks over the first [`HOT_QUERIES`]
/// sentences, drawn from `seed`.
pub fn hot_order(seed: u64, len: usize) -> Vec<u16> {
    let mut rng = DetRng::new(seed).fork(0x2195);
    (0..len)
        .map(|_| rng.zipf(HOT_QUERIES, ZIPF_S) as u16)
        .collect()
}

fn json_string(s: &str) -> Value {
    Value::String(s.to_string())
}

/// `POST /v1/search` body for `query`.
pub fn search_body(query: &str, explain: bool) -> String {
    let num = |n: usize| Value::Number(serde::Number::from_i128(n as i128));
    let mut pairs = vec![
        ("query".to_string(), json_string(query)),
        ("k".to_string(), num(K)),
    ];
    if explain {
        pairs.push(("explain".to_string(), Value::Bool(true)));
    }
    Value::Object(pairs).to_compact_string()
}

/// `POST /v1/docs` body for `text`.
pub fn insert_body(text: &str) -> String {
    Value::Object(vec![("text".to_string(), json_string(text))]).to_compact_string()
}

/// A search stream: position `seq` asks `bodies[order[seq]]` (or
/// `bodies[seq]` when there is no order, i.e. every query once).
pub struct SearchStream {
    /// Query texts, aligned with `bodies`.
    pub queries: Vec<String>,
    /// Request bodies.
    pub bodies: Vec<String>,
    /// Draw order over `bodies`; `None` walks them once each.
    pub order: Option<Vec<u16>>,
}

impl SearchStream {
    /// Every held-out sentence once, in an order drawn from `seed`,
    /// without explanations.
    pub fn fresh(held: &HeldOut, seed: u64) -> Self {
        let queries: Vec<String> = permutation(seed, held.sentences.len())
            .iter()
            .map(|&i| held.sentences[i as usize].clone())
            .collect();
        Self {
            bodies: queries.iter().map(|q| search_body(q, false)).collect(),
            queries,
            order: None,
        }
    }

    /// `len` Zipf draws from `seed` over the popular sentences, with
    /// explanations.
    pub fn hot(held: &HeldOut, seed: u64, len: usize) -> Self {
        let queries = held.sentences[..HOT_QUERIES].to_vec();
        Self {
            bodies: queries.iter().map(|q| search_body(q, true)).collect(),
            queries,
            order: Some(hot_order(seed, len)),
        }
    }

    /// Index into `bodies` of stream position `seq`.
    pub fn body_index(&self, seq: usize) -> Option<usize> {
        match &self.order {
            Some(order) => order.get(seq).map(|&i| i as usize),
            None => (seq < self.bodies.len()).then_some(seq),
        }
    }
}

impl Source for SearchStream {
    fn request(&self, seq: usize) -> Option<(&'static str, &'static str, &str)> {
        let i = self.body_index(seq)?;
        Some(("POST", "/v1/search", &self.bodies[i]))
    }

    fn keep(&self, body: &str) -> Option<Kept> {
        parse_ranking(body).map(Kept::Ranking)
    }
}

/// An insert stream: every held-out document once, in an order drawn
/// from the request seed.
pub struct InsertStream<'h> {
    texts: Vec<&'h str>,
    bodies: Vec<String>,
}

impl<'h> InsertStream<'h> {
    /// The held-out documents in the order `seed` draws.
    pub fn new(held: &'h HeldOut, seed: u64) -> Self {
        let texts: Vec<&str> = permutation(seed, held.docs.len())
            .iter()
            .map(|&i| held.docs[i as usize].as_str())
            .collect();
        let bodies = texts.iter().map(|d| insert_body(d)).collect();
        Self { texts, bodies }
    }

    /// The document inserted at stream position `seq`.
    pub fn text(&self, seq: usize) -> Option<&'h str> {
        self.texts.get(seq).copied()
    }
}

impl Source for InsertStream<'_> {
    fn request(&self, seq: usize) -> Option<(&'static str, &'static str, &str)> {
        self.bodies
            .get(seq)
            .map(|b| ("POST", "/v1/docs", b.as_str()))
    }

    fn keep(&self, body: &str) -> Option<Kept> {
        let v: Value = serde_json::from_str(body).ok()?;
        let id = v.get("id")?.as_i64()?;
        u32::try_from(id).ok().map(Kept::DocId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world() -> SynthWorld {
        synth::generate(&SynthConfig::small(3))
    }

    #[test]
    fn same_seed_same_sentence_pool() {
        let world = small_world();
        let docs: Vec<String> =
            generate_corpus(&world, &CorpusConfig::new(9, 40, CorpusFlavor::CnnLike))
                .docs
                .into_iter()
                .map(|d| d.text)
                .collect();
        let a = distinct_sentences(&docs, 17);
        assert_eq!(a, distinct_sentences(&docs, 17));
        assert_ne!(
            a,
            distinct_sentences(&docs, 18),
            "the seed reorders the pool"
        );
        let unique: HashSet<&String> = a.iter().collect();
        assert_eq!(unique.len(), a.len(), "no sentence repeats");
    }

    #[test]
    fn same_seed_same_zipf_stream() {
        let a = hot_order(5, 5_000);
        assert_eq!(a, hot_order(5, 5_000));
        assert_ne!(a, hot_order(6, 5_000));
        assert!(a.iter().all(|&r| (r as usize) < HOT_QUERIES));
        // Rank 0 is the most popular: under s = 1 it takes about a sixth
        // of the draws over 256 ranks (1 / H_256 ≈ 0.16).
        let top = a.iter().filter(|&&r| r == 0).count() as f64 / a.len() as f64;
        assert!((0.12..0.21).contains(&top), "rank-0 share {top}");
    }

    #[test]
    fn search_body_escapes_and_parses() {
        let body = search_body("say \"hi\" to Kabul", true);
        let req = newslink_serve::parse_search_request(&body).unwrap();
        assert_eq!(req.query, "say \"hi\" to Kabul");
        assert_eq!(req.k, K);
        assert!(req.explain.is_some());
        assert!(
            newslink_serve::parse_search_request(&search_body("q", false))
                .unwrap()
                .explain
                .is_none()
        );
    }
}
