//! Golden digests: the committed fingerprints of what the pipeline
//! produces, recomputed in-process and compared against
//! `tests/golden/digests.txt`.
//!
//! Covered, at scale 0.01 with the §4.3 backport on:
//!
//! - for seeds 7 and 4242, the `CleanOutcome` — the cleaned database
//!   serialized as an NVD JSON feed, the `Debug` rendering of the report,
//!   and the `Debug` rendering of the quality ledger;
//! - for seed 7, the `ServeIndex` digest over the cleaned corpus with its
//!   ledger attached, and the checksum of a fixed query sample (mixed
//!   traffic plus quality lookups and histograms);
//! - for seed 7, the §4.4 description classifier trained with its default
//!   options on the cleaned corpus — the `Debug` rendering of its report
//!   followed by its batch predictions over every typed description.
//!
//! A change that moves any of these on purpose (a float-stream change in a
//! model, say) updates the file in the same change and says why. The
//! failure message prints the recomputed file, ready to paste.

use nvd_analysis::typeclf::{train_type_classifier, TypeClassifierOptions};
use nvd_clean::cleaner::{CleanOutcome, Cleaner};
use nvd_clean::names::OracleVerifier;
use nvd_model::feed::to_feed;
use nvd_serve::{generate_workload, run_workload, Query, ScoreAxis, ServeIndex, WorkloadProfile};
use nvd_synth::{generate, SynthConfig};

const GOLDEN: &str = include_str!("../golden/digests.txt");

/// 64-bit FNV-1a: a stable, dependency-free fingerprint of a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn clean(seed: u64) -> CleanOutcome {
    let corpus = generate(&SynthConfig::with_scale(0.01, seed));
    let oracle = OracleVerifier::new(corpus.truth.vendor_alias_map());
    Cleaner::default().clean(&corpus.database, &corpus.archive, &oracle)
}

fn recompute() -> Vec<(String, u64)> {
    let mut digests = Vec::new();
    for seed in [7u64, 4242] {
        let out = clean(seed);
        let feed = serde_json::to_string(&to_feed(&out.database, "2021-06-01T00:00Z"))
            .expect("cleaned feed serializes");
        digests.push((format!("clean.seed{seed}.feed"), fnv1a(feed.as_bytes())));
        let report = format!("{:?}", out.report);
        digests.push((format!("clean.seed{seed}.report"), fnv1a(report.as_bytes())));
        let ledger = format!("{:?}", out.ledger);
        digests.push((format!("clean.seed{seed}.ledger"), fnv1a(ledger.as_bytes())));

        if seed == 7 {
            let index = ServeIndex::build(&out.database).with_quality(&out.ledger);
            digests.push(("serve.seed7.index".to_string(), index.digest()));
            let mut queries =
                generate_workload(&out.database, &WorkloadProfile::mixed(2_000), 0x901d);
            queries.extend(
                out.database
                    .iter()
                    .take(50)
                    .map(|e| Query::QualityLookup(e.id)),
            );
            queries.extend(
                [
                    ScoreAxis::Completeness,
                    ScoreAxis::Consistency,
                    ScoreAxis::Accuracy,
                    ScoreAxis::Overall,
                ]
                .map(|axis| Query::QualityHistogram { axis }),
            );
            let summary = run_workload(&index, &queries);
            digests.push(("serve.seed7.workload".to_string(), summary.checksum));

            let (classifier, report) =
                train_type_classifier(&out.database, &TypeClassifierOptions::default())
                    .expect("enough typed entries at scale 0.01");
            let typed: Vec<&str> = out
                .database
                .iter()
                .filter_map(|e| e.effective_cwe().specific().and(e.primary_description()))
                .collect();
            let predictions = classifier.classify_batch(&typed);
            let rendered = format!("{report:?}{predictions:?}");
            digests.push(("typeclf.seed7".to_string(), fnv1a(rendered.as_bytes())));
        }
    }
    digests
}

#[test]
fn outputs_match_the_committed_golden_digests() {
    let expected: Vec<(String, u64)> = GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, hex) = l.split_once(' ').expect("`key digest` line");
            let value = u64::from_str_radix(hex.trim(), 16).expect("hex digest");
            (key.to_string(), value)
        })
        .collect();
    let actual = recompute();
    let rendered: String = actual
        .iter()
        .map(|(k, v)| format!("{k} {v:016x}\n"))
        .collect();
    assert_eq!(
        actual, expected,
        "golden digests moved; if that is intended, the recomputed file is:\n{rendered}"
    );
}
