//! Feature extraction for severity prediction (§4.3 "Features").
//!
//! The paper uses "the following v2 parameters as features to extrapolate
//! v3 scores: access vector and complexity, authentication, integrity,
//! availability, all privilege, user privilege, and other privilege flags",
//! plus the CWE-ID (after Holm & Afridi's finding that CVSS reliability
//! depends on the vulnerability type).
//!
//! The 13 features, in order:
//!
//! | # | feature |
//! |---|---------|
//! | 0 | access vector (L/A/N → 0/0.5/1) |
//! | 1 | access complexity (H/M/L → 0/0.5/1) |
//! | 2 | authentication (M/S/N → 0/0.5/1) |
//! | 3 | confidentiality impact (N/P/C → 0/0.5/1) |
//! | 4 | integrity impact |
//! | 5 | availability impact |
//! | 6 | all-privilege flag (all impacts Complete) |
//! | 7 | user-privilege flag (some Partial, none Complete) |
//! | 8 | other-privilege flag (otherwise) |
//! | 9 | v2 base score / 10 |
//! | 10 | v2 impact subscore / 10.01 |
//! | 11 | v2 exploitability subscore / 20 |
//! | 12 | CWE target encoding (mean training v3 score of the type / 10) |
//!
//! The CWE feature is a *target encoding* learned from the training split
//! only — the standard way to hand a high-cardinality categorical to the
//! paper's regression models without inflating the input dimension.

use std::collections::BTreeMap;

use nvd_model::cwe::CweLabel;
use nvd_model::metrics::{
    AccessComplexityV2, AccessVectorV2, AuthenticationV2, CvssV2Vector, ImpactV2,
};
use nvd_model::prelude::CveEntry;

/// Number of features per sample.
pub const FEATURE_DIM: usize = 13;

/// Learned feature extractor (holds the CWE target encoding).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureExtractor {
    cwe_mean_v3: BTreeMap<u32, f64>,
    global_mean_v3: f64,
}

impl FeatureExtractor {
    /// Learns the CWE target encoding from training entries that carry
    /// both CVSS versions.
    pub fn fit<'a, I: IntoIterator<Item = &'a CveEntry>>(train: I) -> Self {
        let mut sums: BTreeMap<u32, (f64, usize)> = BTreeMap::new();
        let mut total = 0.0;
        let mut count = 0usize;
        for entry in train {
            let Some(v3) = &entry.cvss_v3 else { continue };
            total += v3.base_score;
            count += 1;
            if let Some(id) = entry.effective_cwe().specific() {
                let slot = sums.entry(id.number()).or_insert((0.0, 0));
                slot.0 += v3.base_score;
                slot.1 += 1;
            }
        }
        let global = if count > 0 { total / count as f64 } else { 5.0 };
        Self {
            cwe_mean_v3: sums
                .into_iter()
                .map(|(id, (s, n))| (id, s / n as f64))
                .collect(),
            global_mean_v3: global,
        }
    }

    /// Extracts the 13-feature vector for an entry.
    ///
    /// Returns `None` for entries without a v2 vector (nothing to
    /// extrapolate from).
    pub fn extract(&self, entry: &CveEntry) -> Option<[f64; FEATURE_DIM]> {
        let record = entry.cvss_v2.as_ref()?;
        let v = &record.vector;
        let cwe_feature = match entry.effective_cwe() {
            CweLabel::Specific(id) => self
                .cwe_mean_v3
                .get(&id.number())
                .copied()
                .unwrap_or(self.global_mean_v3),
            _ => self.global_mean_v3,
        } / 10.0;
        let (all_priv, user_priv, other_priv) = privilege_flags(v);
        Some([
            av_level(v.access_vector),
            ac_level(v.access_complexity),
            au_level(v.authentication),
            impact_level(v.confidentiality),
            impact_level(v.integrity),
            impact_level(v.availability),
            all_priv,
            user_priv,
            other_priv,
            record.base_score / 10.0,
            cvss::v2::impact_subscore(v) / 10.01,
            cvss::v2::exploitability_subscore(v) / 20.0,
            cwe_feature,
        ])
    }
}

fn av_level(av: AccessVectorV2) -> f64 {
    match av {
        AccessVectorV2::Local => 0.0,
        AccessVectorV2::AdjacentNetwork => 0.5,
        AccessVectorV2::Network => 1.0,
    }
}

fn ac_level(ac: AccessComplexityV2) -> f64 {
    match ac {
        AccessComplexityV2::High => 0.0,
        AccessComplexityV2::Medium => 0.5,
        AccessComplexityV2::Low => 1.0,
    }
}

fn au_level(au: AuthenticationV2) -> f64 {
    match au {
        AuthenticationV2::Multiple => 0.0,
        AuthenticationV2::Single => 0.5,
        AuthenticationV2::None => 1.0,
    }
}

fn impact_level(i: ImpactV2) -> f64 {
    match i {
        ImpactV2::None => 0.0,
        ImpactV2::Partial => 0.5,
        ImpactV2::Complete => 1.0,
    }
}

/// The paper's "all privilege, user privilege, and other privilege flags":
/// complete compromise of all three impact dimensions, partial compromise,
/// or anything else.
fn privilege_flags(v: &CvssV2Vector) -> (f64, f64, f64) {
    let impacts = v.impacts();
    if impacts.iter().all(|i| *i == ImpactV2::Complete) {
        (1.0, 0.0, 0.0)
    } else if impacts.contains(&ImpactV2::Partial)
        && impacts.iter().all(|i| *i != ImpactV2::Complete)
    {
        (0.0, 1.0, 0.0)
    } else {
        (0.0, 0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvd_model::cwe::CweId;
    use nvd_model::prelude::*;

    fn entry(v2: &str, score: f64, cwe: Option<u32>, v3_score: Option<f64>) -> CveEntry {
        let mut e = CveEntry::new(
            "CVE-2017-0001".parse().unwrap(),
            "2017-01-01".parse().unwrap(),
        );
        e.cvss_v2 = Some(CvssV2Record {
            vector: v2.parse().unwrap(),
            base_score: score,
        });
        if let Some(c) = cwe {
            e.cwes = vec![CweLabel::Specific(CweId::new(c))];
        }
        if let Some(s) = v3_score {
            e.cvss_v3 = Some(CvssV3Record {
                vector: "CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"
                    .parse()
                    .unwrap(),
                base_score: s,
            });
        }
        e
    }

    #[test]
    fn features_are_in_unit_range() {
        let train = [entry(
            "AV:N/AC:L/Au:N/C:P/I:P/A:P",
            7.5,
            Some(89),
            Some(9.8),
        )];
        let fx = FeatureExtractor::fit(train.iter());
        let f = fx.extract(&train[0]).unwrap();
        for (i, v) in f.iter().enumerate() {
            assert!((0.0..=1.0).contains(v), "feature {i} = {v}");
        }
    }

    #[test]
    fn privilege_flags_partition() {
        let complete: CvssV2Vector = "AV:N/AC:L/Au:N/C:C/I:C/A:C".parse().unwrap();
        assert_eq!(privilege_flags(&complete), (1.0, 0.0, 0.0));
        let partial: CvssV2Vector = "AV:N/AC:L/Au:N/C:P/I:P/A:N".parse().unwrap();
        assert_eq!(privilege_flags(&partial), (0.0, 1.0, 0.0));
        let mixed: CvssV2Vector = "AV:N/AC:L/Au:N/C:C/I:P/A:N".parse().unwrap();
        assert_eq!(privilege_flags(&mixed), (0.0, 0.0, 1.0));
    }

    #[test]
    fn cwe_target_encoding_reflects_training_means() {
        let train = [
            entry("AV:N/AC:L/Au:N/C:P/I:P/A:P", 7.5, Some(89), Some(9.8)),
            entry("AV:N/AC:L/Au:N/C:P/I:P/A:P", 7.5, Some(89), Some(9.4)),
            entry("AV:N/AC:M/Au:N/C:N/I:P/A:N", 4.3, Some(79), Some(6.1)),
        ];
        let fx = FeatureExtractor::fit(train.iter());
        let f_sqli = fx.extract(&train[0]).unwrap();
        let f_xss = fx.extract(&train[2]).unwrap();
        assert!((f_sqli[12] - 0.96).abs() < 1e-9);
        assert!((f_xss[12] - 0.61).abs() < 1e-9);
    }

    #[test]
    fn unseen_cwe_falls_back_to_global_mean() {
        let train = [entry(
            "AV:N/AC:L/Au:N/C:P/I:P/A:P",
            7.5,
            Some(89),
            Some(8.0),
        )];
        let fx = FeatureExtractor::fit(train.iter());
        let probe = entry("AV:N/AC:L/Au:N/C:P/I:P/A:P", 7.5, Some(999), None);
        let f = fx.extract(&probe).unwrap();
        assert!((f[12] - 0.8).abs() < 1e-9);
    }

    #[test]
    fn entries_without_v2_yield_none() {
        let fx = FeatureExtractor::fit([].iter());
        let e = CveEntry::new(
            "CVE-2017-0002".parse().unwrap(),
            "2017-01-01".parse().unwrap(),
        );
        assert!(fx.extract(&e).is_none());
    }
}
