//! Substrate throughput: CVSS scoring (Table 1 banding), text encoding,
//! the §4.2 string distances, and PCA (the machinery under Fig. 5).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mlkit::matrix::Matrix;
use mlkit::pca::Pca;
use nvd_clean::names::text::{levenshtein_at_most, longest_common_substring_len};
use nvd_model::metrics::Severity;
use textkit::encoder::SentenceEncoder;
use textkit::preprocess::preprocess;

fn bench_cvss(c: &mut Criterion) {
    let v2s = cvss::all_v2_vectors();
    let v3s = cvss::all_v3_vectors();
    c.bench_function("table1_score_all_v2_vectors", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for v in &v2s {
                let (s, band) = cvss::score_v2(black_box(v));
                acc += s + band as u8 as f64;
            }
            acc
        })
    });
    c.bench_function("table1_score_all_v3_vectors", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for v in &v3s {
                let (s, _) = cvss::score_v3(black_box(v));
                acc += s;
            }
            acc
        })
    });
    c.bench_function("table1_severity_banding", |b| {
        b.iter(|| {
            let mut crit = 0usize;
            for i in 0..1000 {
                let score = (i % 101) as f64 / 10.0;
                if Severity::from_v3_score(black_box(score)) == Severity::Critical {
                    crit += 1;
                }
            }
            crit
        })
    });
}

fn bench_text(c: &mut Criterion) {
    let desc = "SQL injection vulnerability in index.php in ExampleCMS 2.1 allows \
                remote attackers to execute arbitrary SQL commands via the id parameter.";
    let encoder = SentenceEncoder::default();
    c.bench_function("encoder_512d_description", |b| {
        b.iter(|| encoder.encode(black_box(desc)))
    });
    c.bench_function("preprocess_description", |b| {
        b.iter(|| preprocess(black_box(desc)))
    });
    // The vendor sweep's edit-distance budget.
    c.bench_function("levenshtein_at_most_2_vendor_pair", |b| {
        b.iter(|| {
            levenshtein_at_most(
                black_box("schneider_electric"),
                black_box("chneider_electric"),
                2,
            )
        })
    });
    c.bench_function("lcs_vendor_pair", |b| {
        b.iter(|| {
            longest_common_substring_len(
                black_box("lan_management_system"),
                black_box("lms_manager"),
            )
        })
    });
}

fn bench_pca(c: &mut Criterion) {
    // Fig. 5 machinery: 13-d → 3-d over 2 000 samples.
    let n = 2000;
    let d = 13;
    let data: Vec<f64> = (0..n * d)
        .map(|i| ((i * 2_654_435_761usize) % 1000) as f64 / 1000.0)
        .collect();
    let x = Matrix::from_vec(n, d, data);
    c.bench_function("fig5_pca_fit_project", |b| {
        b.iter(|| {
            let pca = Pca::fit(black_box(&x), 3).expect("fits");
            pca.transform(&x)
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_cvss, bench_text, bench_pca
);
criterion_main!(benches);
