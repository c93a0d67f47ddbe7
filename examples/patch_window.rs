//! Patch-window analysis: the §4.1 motivation made concrete.
//!
//! A security team prioritising patches needs to know how long each
//! vulnerability has been *public* — the NVD publication date understates
//! that window (Fig. 1: 28% of CVEs enter the NVD more than a week after
//! disclosure). This example drives the analysis through the
//! `nvd_serve::ServeIndex` read path: a `PatchWindow` range scan selects
//! the most recent quarter of publications, point lookups fetch each
//! entry, and a windowed `SeverityHistogram` shows what the team is
//! triaging — then the disclosure estimator measures the exposure error an
//! analyst would make by trusting the raw NVD date, split by severity.
//!
//! ```text
//! cargo run --release -p nvd-examples --example patch_window [-- --scale 0.02 --seed 11]
//! ```

use std::collections::BTreeMap;

use nvd_clean::DisclosureEstimator;
use nvd_examples::scale_and_seed;
use nvd_model::prelude::{Date, Severity};
use nvd_serve::{Query, QueryEngine, QueryResult, ServeIndex};
use nvd_synth::{generate, SynthConfig};

/// Days of publications the triage sweep covers.
const WINDOW_DAYS: i32 = 90;

fn main() {
    let (scale, seed) = scale_and_seed(0.02, 11);
    let corpus = generate(&SynthConfig::with_scale(scale, seed));
    let estimator = DisclosureEstimator::new(&corpus.archive);
    let index = ServeIndex::build(&corpus.database);

    let until = corpus
        .database
        .iter()
        .map(|entry| entry.published)
        .max()
        .expect("non-empty corpus");
    let since = Date::from_day_number(until.day_number() - WINDOW_DAYS);

    let QueryResult::Ids(recent) = index.execute(&Query::PatchWindow { since, until }) else {
        unreachable!("patch windows answer with id lists");
    };
    let QueryResult::SeverityHistogram(bands) = index.execute(&Query::SeverityHistogram {
        window: Some((since, until)),
    }) else {
        unreachable!("severity histograms answer with band buckets");
    };

    println!(
        "triage window {since}..={until}: {} CVEs published, by effective severity:",
        recent.len()
    );
    for (band, count) in &bands {
        println!("  {band:?}: {count}");
    }

    let mut by_band: BTreeMap<Severity, (u64, u64, usize)> = BTreeMap::new();
    let mut worst: Vec<(i32, String)> = Vec::new();
    for id in recent.iter() {
        let entry = index.get(*id).expect("window ids resolve via point lookup");
        let Some(band) = entry.severity_v2() else {
            continue;
        };
        let estimate = estimator.estimate(entry);
        let lag = estimate.lag_days(entry.published).max(0);
        let slot = by_band.entry(band).or_insert((0, 0, 0));
        slot.0 += lag as u64;
        slot.2 += 1;
        if lag > 7 {
            slot.1 += 1;
        }
        worst.push((lag, entry.id.to_string()));
    }

    println!("\nwindow-of-exposure error when trusting the raw NVD publication date\n");
    println!("severity  mean error (days)  >1 week");
    println!("-------------------------------------");
    for (band, (sum, over_week, n)) in &by_band {
        println!(
            "{:<9} {:<18.1} {:.1}%",
            format!("{band:?}"),
            *sum as f64 / *n as f64,
            100.0 * *over_week as f64 / *n as f64
        );
    }

    worst.sort_by_key(|(lag, _)| std::cmp::Reverse(*lag));
    println!("\nmost underestimated exposure windows:");
    for (lag, id) in worst.iter().take(5) {
        println!("  {id}: public {lag} days before its NVD date");
    }
    println!(
        "\nlesson: high-severity CVEs lag the most — exactly the entries a\n\
         patch-prioritisation pipeline cares about (paper §4.1)."
    );
}
