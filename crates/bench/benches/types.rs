//! §4.4 / §5.3 benches: Table 10 (top types), CWE rectification, the
//! description k-NN classifier (with the encoder-dimension ablation), and
//! Fig. 5.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nvd_analysis::typeclf::{train_type_classifier, TypeClassifierOptions};
use nvd_analysis::{pca_study, types_study};
use nvd_bench::{bench_corpus, bench_experiments};
use nvd_clean::rectify_cwe;
use nvd_model::cwe::CweCatalog;
use nvd_model::prelude::Severity;

fn table10_top_types(c: &mut Criterion) {
    let exps = bench_experiments();
    c.bench_function("table10_top_types_all_views", |b| {
        b.iter(|| {
            (
                types_study::top_types(
                    black_box(&exps),
                    types_study::ScoreView::V2,
                    Severity::High,
                    10,
                ),
                types_study::top_types(
                    &exps,
                    types_study::ScoreView::LabelledV3,
                    Severity::Critical,
                    10,
                ),
                types_study::top_types(
                    &exps,
                    types_study::ScoreView::RectifiedV3,
                    Severity::Critical,
                    10,
                ),
            )
        })
    });
    c.bench_function("fig5_pca_study", |b| {
        b.iter(|| pca_study::pca_study(black_box(&exps.cleaned)))
    });
}

fn cwe_rectification(c: &mut Criterion) {
    let corpus = bench_corpus();
    let catalog = CweCatalog::builtin();
    c.bench_function("cwe_rectification_pass", |b| {
        b.iter(|| {
            let mut db = corpus.database.clone();
            rectify_cwe(&mut db, &catalog).stats.total_corrected()
        })
    });
}

fn knn_type_classifier(c: &mut Criterion) {
    let corpus = bench_corpus();
    // Ablation 5 (DESIGN.md): encoder dimensionality.
    let mut group = c.benchmark_group("knn_type_classifier");
    group.sample_size(10);
    for dim in [128usize, 256, 512] {
        group.bench_function(format!("encoder_{dim}d"), |b| {
            b.iter(|| {
                train_type_classifier(
                    black_box(&corpus.database),
                    &TypeClassifierOptions {
                        dim,
                        max_samples: 800,
                        ..TypeClassifierOptions::default()
                    },
                )
                .map(|(_, r)| r.accuracy)
            })
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = table10_top_types, cwe_rectification, knn_type_classifier
);
criterion_main!(benches);
