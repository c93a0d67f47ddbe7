//! §4.2 / §5.4 benches: Table 2 (candidate detection + pattern tabulation,
//! with the LCS-threshold ablation), Table 3 (cross-database mapping), and
//! Tables 11, 12 and 16.
//!
//! The sweeps' end-to-end cost inside a clean is perfbench's
//! `names.vendor_sweep_ms` and `names.product_sweep_ms`; their parity with
//! the pre-blocking serial sweeps is pinned in `tests/determinism.rs`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nvd_analysis::vendor_study;
use nvd_bench::{bench_corpus, bench_experiments};
use nvd_clean::names::{
    find_vendor_candidates, NameMapping, OracleVerifier, PatternBreakdown, Verifier,
};

fn table2_vendor_patterns(c: &mut Criterion) {
    let corpus = bench_corpus();
    c.bench_function("table2_find_vendor_candidates", |b| {
        b.iter(|| find_vendor_candidates(black_box(&corpus.database)))
    });

    let candidates = find_vendor_candidates(&corpus.database);
    let oracle = OracleVerifier::new(corpus.truth.vendor_alias_map());
    let confirmed: Vec<bool> = candidates.iter().map(|x| oracle.confirm(x)).collect();
    c.bench_function("table2_tabulate_patterns", |b| {
        b.iter(|| PatternBreakdown::tabulate(black_box(&candidates), &confirmed))
    });

    // Ablation 3 (DESIGN.md): the LCS ≥ 3 split threshold.
    let mut group = c.benchmark_group("table2_lcs_threshold_ablation");
    for threshold in [2usize, 3, 4] {
        group.bench_function(format!("lcs_ge_{threshold}"), |b| {
            b.iter(|| {
                candidates
                    .iter()
                    .filter(|cand| cand.lcs_len >= threshold)
                    .count()
            })
        });
    }
    group.finish();
}

fn table3_name_scale(c: &mut Criterion) {
    let corpus = bench_corpus();
    let candidates = find_vendor_candidates(&corpus.database);
    let oracle = OracleVerifier::new(corpus.truth.vendor_alias_map());
    let confirmed: Vec<_> = candidates
        .iter()
        .filter(|x| oracle.confirm(x))
        .cloned()
        .collect();
    c.bench_function("table3_build_and_apply_mapping", |b| {
        b.iter(|| {
            let mapping = NameMapping::build_vendor(black_box(&confirmed), &corpus.database);
            let mut db = corpus.database.clone();
            mapping.apply(&mut db)
        })
    });
    let mapping = NameMapping::build_vendor(&confirmed, &corpus.database);
    c.bench_function("table3_cross_database_mapping", |b| {
        b.iter(|| {
            mapping.count_mappable(black_box(corpus.security_focus.vendors.iter()))
                + mapping.count_mappable(corpus.security_tracker.vendors.iter())
        })
    });
}

fn tables_11_12_16(c: &mut Criterion) {
    let exps = bench_experiments();
    c.bench_function("table11_top_vendors", |b| {
        b.iter(|| {
            (
                vendor_study::top_vendors_by_cves(black_box(&exps.cleaned), 10),
                vendor_study::top_vendors_by_products(&exps.cleaned, 10),
            )
        })
    });
    c.bench_function("table12_mislabeled_breakdown", |b| {
        b.iter(|| vendor_study::mislabeled_breakdown(black_box(&exps)))
    });
    c.bench_function("table16_case_samples", |b| {
        b.iter(|| vendor_study::case_samples(black_box(&exps), 10))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = table2_vendor_patterns, table3_name_scale, tables_11_12_16
);
criterion_main!(benches);
