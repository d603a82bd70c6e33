//! Full-pipeline news search on a generated world and corpus — the
//! workload the paper's evaluation runs, end to end.
//!
//! Generates a synthetic Wikidata-like KG, generates a CNN-like corpus
//! over its events, indexes it with NewsLink(0.2), then answers a batch of
//! partial queries drawn from test documents, comparing NewsLink's blended
//! ranking against pure BM25.
//!
//! Run with: `cargo run --release --example news_search [-- <num-docs>]`

use newslink::core::{NewsLink, NewsLinkConfig, SearchRequest};
use newslink::corpus::{generate_corpus, CorpusConfig, CorpusFlavor, Split};
use newslink::kg::{synth, GraphStats, LabelIndex, SynthConfig};

fn main() {
    let n_docs: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(400);

    // 1. World + corpus.
    let world = synth::generate(&SynthConfig::medium(42));
    println!("world: {}", GraphStats::compute(&world.graph));
    let labels = LabelIndex::build(&world.graph);
    let corpus = generate_corpus(
        &world,
        &CorpusConfig::new(7, n_docs, CorpusFlavor::CnnLike),
    );
    let texts: Vec<String> = corpus.docs.iter().map(|d| d.text.clone()).collect();
    let split = Split::new(texts.len(), 7);

    // 2. Index with NewsLink(0.2).
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let engine = NewsLink::new(
        &world.graph,
        &labels,
        NewsLinkConfig::default().with_threads(threads),
    );
    let t = std::time::Instant::now();
    let index = engine.index_corpus(&texts);
    println!(
        "indexed {} docs in {:.2}s ({:.1}% with embeddings)\n",
        index.doc_count(),
        t.elapsed().as_secs_f64(),
        index.embedded_ratio() * 100.0
    );

    // 3. Query with partial texts (headlines of test docs).
    let mut newslink_hits = 0usize;
    let mut bm25_hits = 0usize;
    let n_queries = split.test.len().min(20);
    for &doc in split.test.iter().take(n_queries) {
        let query = &corpus.docs[doc].title;
        let response = engine.execute(&index, &SearchRequest::new(query).with_k(5));
        if response.results.iter().any(|r| r.doc.index() == doc) {
            newslink_hits += 1;
        }
        // Equation 3 at β = 0 is plain BM25, the paper's Lucene baseline.
        let bm25 = engine.execute(&index, &SearchRequest::new(query).with_k(5).with_beta(0.0));
        if bm25.results.iter().any(|r| r.doc.index() == doc) {
            bm25_hits += 1;
        }
    }
    println!(
        "HIT@5 on {n_queries} headline queries: NewsLink(0.2) {}/{n_queries}, BM25 {}/{n_queries}",
        newslink_hits, bm25_hits
    );

    // 4. Show one query in detail.
    if let Some(&doc) = split.test.first() {
        let query = &corpus.docs[doc].title;
        println!("\nexample query (from doc {doc}): {query:?}");
        let request = SearchRequest::new(query).with_k(3).explained();
        let response = engine.execute(&index, &request);
        for hit in &response.results {
            let text = &texts[hit.doc.index()];
            println!(
                "  doc {:<4} score={:.3}  {}",
                hit.doc.0,
                hit.score,
                &text[..80.min(text.len())]
            );
        }
        if let Some(top) = response.explanations.first() {
            println!("  explanations:");
            for p in top.paths.iter().take(3) {
                println!("    {}", p.render(&world.graph));
            }
        }
    }
}
