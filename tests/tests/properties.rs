//! Property-based invariants spanning the workspace crates.

use std::sync::OnceLock;

use nvd_clean::extract_cwe_ids;
use nvd_clean::names::text::{levenshtein_at_most, name_components};
use nvd_clean::quality::{IssueKind, QualityIssue, QualityLedger, Resolution, ScoreAxis};
use nvd_model::prelude::*;
use nvd_serve::{LinearScan, Query, QueryEngine, QueryResult, ServeIndex};
use nvd_tests::levenshtein;
use proptest::prelude::*;
use webarchive::dates::{format_date, parse_date, DateStyle};

fn arb_date() -> impl Strategy<Value = Date> {
    (1988i32..=2030, 1u32..=12, 1u32..=28)
        .prop_map(|(y, m, d)| Date::from_ymd(y, m, d).expect("valid"))
}

fn arb_style() -> impl Strategy<Value = DateStyle> {
    prop_oneof![
        Just(DateStyle::Iso),
        Just(DateStyle::UsLong),
        Just(DateStyle::UsSlash),
        Just(DateStyle::Rfc2822),
        Just(DateStyle::BugzillaTs),
        Just(DateStyle::JapaneseYmd),
    ]
}

proptest! {
    #[test]
    fn date_format_parse_round_trip(date in arb_date(), style in arb_style()) {
        let rendered = format_date(date, style);
        prop_assert_eq!(parse_date(&rendered, style), Some(date));
    }

    #[test]
    fn date_day_number_round_trip(date in arb_date()) {
        prop_assert_eq!(Date::from_day_number(date.day_number()), date);
    }

    #[test]
    fn date_ordering_matches_day_numbers(a in arb_date(), b in arb_date()) {
        prop_assert_eq!(a.cmp(&b), a.day_number().cmp(&b.day_number()));
    }

    #[test]
    fn plus_days_is_additive(date in arb_date(), n in -3000i32..3000, m in -3000i32..3000) {
        prop_assert_eq!(date.plus_days(n).plus_days(m), date.plus_days(n + m));
    }

    #[test]
    fn levenshtein_triangle_inequality(
        a in "[a-z_]{0,12}",
        b in "[a-z_]{0,12}",
        c in "[a-z_]{0,12}",
    ) {
        let ab = levenshtein(&a, &b);
        let bc = levenshtein(&b, &c);
        let ac = levenshtein(&a, &c);
        prop_assert!(ac <= ab + bc, "d(a,c)={ac} > d(a,b)+d(b,c)={}", ab + bc);
    }

    #[test]
    fn levenshtein_identity_and_symmetry(a in "[a-z_]{0,12}", b in "[a-z_]{0,12}") {
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
    }

    #[test]
    fn banded_levenshtein_agrees_with_full_distance(
        a in "[a-c0-1_!é]{0,12}",
        b in "[a-c0-1_!é]{0,12}",
        k in 0usize..5,
    ) {
        // The banded early-exit variant must be exact within its budget
        // and must refuse (not truncate) anything beyond it — including on
        // multi-byte text, where the band runs over chars, not bytes.
        let full = levenshtein(&a, &b);
        prop_assert_eq!(
            levenshtein_at_most(&a, &b, k),
            (full <= k).then_some(full),
            "full distance {} at k={}", full, k
        );
    }

    #[test]
    fn name_components_equal_the_description_tokeniser(name in "[a-cA-C0-1 _.!éÉİ脆-]{0,16}") {
        // The §4.2 sweeps split names with their own copy of the
        // tokenisation rule textkit applies to descriptions; both must
        // split and case-fold identically, multi-byte text included.
        prop_assert_eq!(name_components(&name), textkit::tokenize(&name));
    }

    #[test]
    fn cve_id_parse_display_round_trip(year in 1999u16..=2030, seq in 1u32..=9_999_999) {
        let id = CveId::new(year, seq);
        let parsed: CveId = id.to_string().parse().expect("round trip");
        prop_assert_eq!(parsed, id);
    }

    #[test]
    fn extract_cwe_never_panics_and_ids_match_source(text in ".{0,200}") {
        // Arbitrary text must not break the scanner, and every extracted id
        // must literally appear in the input.
        for id in extract_cwe_ids(&text) {
            prop_assert!(text.contains(&id.to_string()));
        }
    }

    #[test]
    fn extract_cwe_finds_planted_id(num in 1u32..10_000, prefix in "[a-z ]{0,20}") {
        let text = format!("{prefix}CWE-{num}: something");
        let found = extract_cwe_ids(&text);
        prop_assert!(found.iter().any(|i| i.number() == num), "{text}: {found:?}");
    }

    #[test]
    fn v2_vector_parse_round_trip(idx in 0usize..729) {
        let v = cvss::all_v2_vectors()[idx];
        let parsed: CvssV2Vector = v.to_string().parse().expect("round trip");
        prop_assert_eq!(parsed, v);
    }

    #[test]
    fn v3_scores_stay_in_range(idx in 0usize..2592) {
        let v = cvss::all_v3_vectors()[idx];
        let (score, _) = cvss::score_v3(&v);
        prop_assert!((0.0..=10.0).contains(&score));
        let parsed: CvssV3Vector = v.to_string().parse().expect("round trip");
        prop_assert_eq!(parsed, v);
    }

    #[test]
    fn severity_banding_is_monotone(a in 0.0f64..=10.0, b in 0.0f64..=10.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(Severity::from_v3_score(lo) <= Severity::from_v3_score(hi));
        prop_assert!(Severity::from_v2_score(lo) <= Severity::from_v2_score(hi));
    }

    #[test]
    fn vendor_name_normalisation_is_idempotent(raw in "[A-Za-z0-9 _!.-]{1,24}") {
        let once = VendorName::new(&raw);
        let twice = VendorName::new(once.as_str());
        prop_assert_eq!(once, twice);
    }
}

#[test]
fn generator_calibration_is_stable_across_seeds() {
    // Not a proptest (generation is expensive): three seeds, the zero-lag
    // calibration band must hold for all of them.
    for seed in [5, 6, 7] {
        let corpus = nvd_synth::generate(&nvd_synth::SynthConfig::with_scale(0.01, seed));
        let zero = corpus
            .database
            .iter()
            .filter(|e| e.published == corpus.truth.disclosure[&e.id])
            .count() as f64
            / corpus.database.len() as f64;
        assert!((0.25..0.50).contains(&zero), "seed {seed}: zero-lag {zero}");
    }
}

/// The corpus the quality-histogram property serves prefixes of.
fn quality_fixture() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| nvd_synth::generate(&nvd_synth::SynthConfig::with_scale(0.002, 19)).database)
}

/// SplitMix64: a small seeded stream for building a random ledger, which
/// the proptest strategies cannot express directly.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

proptest! {
    #[test]
    fn quality_histograms_agree_across_index_scan_and_ledger(
        served in 0usize..=48,
        records in 0usize..=96,
        shards in 1usize..=8,
        seed in 0u64..u64::MAX,
    ) {
        // Serve a prefix of the fixture. The ledger also names up to six
        // fixture ids past the prefix and one id outside the fixture, none
        // of them served. Four in nine keyed records land on four hot ids,
        // so their per-axis deductions saturate at zero.
        let fixture = quality_fixture();
        let mut db = Database::new();
        for entry in fixture.iter().take(served) {
            db.push(entry.clone());
        }
        let mut pool: Vec<CveId> = fixture.iter().take(served + 6).map(|e| e.id).collect();
        pool.push("CVE-1999-9999999".parse().expect("valid id"));
        let mut rng = SplitMix(seed);
        let mut ledger = QualityLedger::default();
        for k in 0..records {
            let kind = IssueKind::ALL[rng.below(IssueKind::ALL.len())];
            let resolution = if rng.below(2) == 0 {
                Resolution::NeedsReview
            } else {
                Resolution::AutoFixed { fix: format!("fix{k}") }
            };
            let issue = QualityIssue::new(kind, format!("e{k}"), resolution);
            match rng.below(10) {
                0 => ledger.emit_unkeyed(&format!("raw-{k}"), issue),
                1..=4 => ledger.emit(pool[rng.below(pool.len().min(4))], issue),
                _ => ledger.emit(pool[rng.below(pool.len())], issue),
            }
        }

        let index = ServeIndex::with_shards(&db, shards).with_quality(&ledger);
        let scan = LinearScan::with_ledger(&db, &ledger);
        for axis in [
            ScoreAxis::Completeness,
            ScoreAxis::Consistency,
            ScoreAxis::Accuracy,
            ScoreAxis::Overall,
        ] {
            let q = Query::QualityHistogram { axis };
            let answer = index.execute(&q);
            prop_assert_eq!(&answer, &scan.execute(&q), "index vs scan on {:?}", axis);
            let deciles = ledger.histogram(&db, axis);
            let from_ledger: Vec<(u8, usize)> = (0u8..=10)
                .zip(deciles)
                .filter(|&(_, c)| c > 0)
                .collect();
            prop_assert_eq!(
                &answer,
                &QueryResult::QualityHistogram(from_ledger),
                "index vs ledger on {:?}",
                axis
            );
            prop_assert_eq!(deciles.iter().sum::<usize>(), db.len());
        }
    }
}
