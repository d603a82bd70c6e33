//! Criterion micro-benchmarks for the core operations: the `G*` search,
//! the TreeEmb search, inverted-index queries, NER throughput, and
//! whole-document embedding.

use criterion::{criterion_group, criterion_main, Criterion};

use newslink_core::{EmbeddingModel, NewsLinkConfig};
use newslink_corpus::{generate_corpus, CorpusConfig, CorpusFlavor};
use newslink_embed::{find_lcag, find_tree_embedding, SearchConfig};
use newslink_kg::{synth, LabelIndex, SynthConfig};
use newslink_nlp::{analyze, tokenize, NlpPipeline, Recognizer};
use newslink_text::{Bm25, IndexBuilder, Searcher};

fn bench_embedding_search(c: &mut Criterion) {
    let world = synth::generate(&SynthConfig::medium(5));
    let labels_idx = LabelIndex::build(&world.graph);
    let g = &world.graph;
    // A realistic entity group: an event, its country, a participant.
    let ev = &world.events[0];
    let group: Vec<String> = [ev.node, ev.places[0]]
        .iter()
        .chain(ev.participants.first())
        .map(|&n| g.label(n).to_lowercase())
        .collect();
    let cfg = SearchConfig::default();

    let mut group_bench = c.benchmark_group("ne_search");
    group_bench.bench_function("lcag", |b| {
        b.iter(|| find_lcag(g, &labels_idx, &group, &cfg).unwrap())
    });
    group_bench.bench_function("tree", |b| {
        b.iter(|| find_tree_embedding(g, &labels_idx, &group, &cfg).unwrap())
    });
    group_bench.finish();
}

fn bench_text_search(c: &mut Criterion) {
    let world = synth::generate(&SynthConfig::medium(5));
    let corpus = generate_corpus(&world, &CorpusConfig::new(3, 500, CorpusFlavor::CnnLike));
    let mut ib = IndexBuilder::new();
    let terms: Vec<Vec<String>> = corpus.docs.iter().map(|d| analyze(&d.text)).collect();
    for t in &terms {
        ib.add_document(t);
    }
    let index = ib.build();
    let query = analyze(&corpus.docs[0].title);
    c.bench_function("bm25_top20", |b| {
        let s = Searcher::new(&index, Bm25::default());
        b.iter(|| s.search(&query, 20))
    });
}

fn bench_nlp(c: &mut Criterion) {
    let world = synth::generate(&SynthConfig::medium(5));
    let labels_idx = LabelIndex::build(&world.graph);
    let corpus = generate_corpus(&world, &CorpusConfig::new(3, 10, CorpusFlavor::CnnLike));
    let text = corpus.docs[0].text.clone();
    let recognizer = Recognizer::new(&world.graph, &labels_idx);
    let tokens = tokenize(&text);
    c.bench_function("ner_document", |b| {
        b.iter(|| recognizer.recognize(&text, &tokens))
    });
    let nlp = NlpPipeline::new(&world.graph, &labels_idx);
    c.bench_function("nlp_analyze_document", |b| {
        b.iter(|| nlp.analyze_document(&text))
    });
}

fn bench_document_embedding(c: &mut Criterion) {
    let world = synth::generate(&SynthConfig::medium(5));
    let labels_idx = LabelIndex::build(&world.graph);
    let corpus = generate_corpus(&world, &CorpusConfig::new(3, 10, CorpusFlavor::CnnLike));
    let texts: Vec<String> = corpus.docs.iter().map(|d| d.text.clone()).collect();
    let cfg = NewsLinkConfig::default().with_model(EmbeddingModel::Lcag);
    c.bench_function("embed_10_documents", |b| {
        b.iter(|| newslink_core::index_corpus(&world.graph, &labels_idx, &cfg, &texts))
    });
}

fn bench_blended_ranking(c: &mut Criterion) {
    let world = synth::generate(&SynthConfig::medium(5));
    let labels_idx = LabelIndex::build(&world.graph);
    let corpus = generate_corpus(&world, &CorpusConfig::new(3, 400, CorpusFlavor::CnnLike));
    let texts: Vec<String> = corpus.docs.iter().map(|d| d.text.clone()).collect();
    let pruned_cfg = NewsLinkConfig::default();
    let exhaustive_cfg = NewsLinkConfig::default().with_prune_topk(false);
    let index = newslink_core::index_corpus(&world.graph, &labels_idx, &pruned_cfg, &texts);
    let query = corpus.docs[0].title.clone();
    let mut group = c.benchmark_group("blended_rank");
    group.bench_function("pruned", |b| {
        b.iter(|| newslink_core::search(&world.graph, &labels_idx, &pruned_cfg, &index, &query, 10))
    });
    group.bench_function("exhaustive", |b| {
        b.iter(|| {
            newslink_core::search(&world.graph, &labels_idx, &exhaustive_cfg, &index, &query, 10)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_embedding_search,
    bench_text_search,
    bench_nlp,
    bench_document_embedding,
    bench_blended_ranking
);
criterion_main!(benches);
