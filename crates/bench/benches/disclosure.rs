//! §4.1 / §5.1 benches: Fig. 1 (lag CDF, with the aggregation-rule and
//! crawler-coverage ablations), Table 8, Fig. 2 and Fig. 4.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nvd_analysis::disclosure_study;
use nvd_bench::{bench_corpus, bench_experiments};
use nvd_clean::disclosure::{AggregationRule, DisclosureEstimator};
use nvd_clean::LagSummary;
use webarchive::CrawlerSet;

fn fig1_lag_cdf(c: &mut Criterion) {
    let corpus = bench_corpus();
    c.bench_function("fig1_lag_cdf", |b| {
        b.iter(|| {
            let estimator = DisclosureEstimator::new(&corpus.archive);
            let estimates = estimator.estimate_all(black_box(&corpus.database));
            LagSummary::compute(&corpus.database, &estimates).zero_fraction
        })
    });

    // Ablation: aggregation rule.
    let mut group = c.benchmark_group("fig1_aggregation_ablation");
    for (name, rule) in [
        ("minimum", AggregationRule::Minimum),
        ("median", AggregationRule::Median),
        ("mean", AggregationRule::Mean),
    ] {
        group.bench_function(name, |b| {
            let estimator = DisclosureEstimator::new(&corpus.archive).with_rule(rule);
            b.iter(|| estimator.estimate_all(black_box(&corpus.database)))
        });
    }
    group.finish();

    // Ablation 2: crawler coverage (the paper's "top 50 of 5,997 domains").
    let mut group = c.benchmark_group("fig1_coverage_ablation");
    for n in [5, 15, 50] {
        group.bench_function(format!("top_{n}_domains"), |b| {
            let estimator =
                DisclosureEstimator::new(&corpus.archive).with_crawlers(CrawlerSet::top_n(n));
            b.iter(|| estimator.estimate_all(black_box(&corpus.database)))
        });
    }
    group.finish();
}

fn table8_and_figures(c: &mut Criterion) {
    let exps = bench_experiments();
    c.bench_function("table8_top_dates", |b| {
        b.iter(|| {
            (
                disclosure_study::top_publication_dates(black_box(&exps.cleaned), 10),
                disclosure_study::top_disclosure_dates(&exps.cleaned, &exps.report.disclosure, 10),
            )
        })
    });
    c.bench_function("fig2_day_of_week", |b| {
        b.iter(|| disclosure_study::day_of_week(black_box(&exps)))
    });
    c.bench_function("fig4_lag_by_severity", |b| {
        b.iter(|| disclosure_study::average_lag_by_severity(black_box(&exps)))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = fig1_lag_cdf, table8_and_figures
);
criterion_main!(benches);
