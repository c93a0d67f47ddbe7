//! Appendix A.1 / Fig. 5: PCA of the 13-dimensional severity features.
//!
//! The paper projects the feature vectors of ground-truth CVEs to three
//! dimensions and observes that vulnerabilities with Low v2 severity are
//! "scattered in the space, \[while\] High and Medium in v2 have followed
//! specific and clear patterns". A figure is reproduced here as its
//! numeric skeleton: per (v2 band, v3 band) group sizes, 3-D centroids,
//! and within-group spread, plus a per-v2-band *scatter index* (mean
//! within-group spread over between-group separation).

use std::collections::BTreeMap;

use mlkit::matrix::Matrix;
use mlkit::pca::Pca;
use nvd_clean::severity::FeatureExtractor;
use nvd_model::prelude::{Database, Severity};

use crate::render;

/// One (v2 band, v3 band) group in the projected space.
#[derive(Debug, Clone, PartialEq)]
pub struct PcaGroup {
    /// The input (v2) band.
    pub v2: Severity,
    /// The true v3 band.
    pub v3: Severity,
    /// Group size.
    pub count: usize,
    /// Centroid in the 3-D projection.
    pub centroid: [f64; 3],
    /// Mean Euclidean distance of members to the centroid.
    pub spread: f64,
}

/// The Fig. 5 reproduction output.
#[derive(Debug, Clone, PartialEq)]
pub struct PcaStudy {
    /// Variance captured by the three components.
    pub explained_variance: [f64; 3],
    /// Per-group statistics.
    pub groups: Vec<PcaGroup>,
    /// Scatter index per v2 band: the band's mean member distance to its
    /// own centroid, normalised by the global mean distance to the global
    /// centroid (higher = more scattered in the projected space, the
    /// paper's observation for Low).
    pub scatter_index: BTreeMap<Severity, f64>,
}

/// Runs the PCA study over every dual-scored CVE in the database.
///
/// Returns `None` when fewer than 10 ground-truth CVEs exist.
pub fn pca_study(db: &Database) -> Option<PcaStudy> {
    let ground: Vec<_> = db
        .iter()
        .filter(|e| e.cvss_v2.is_some() && e.cvss_v3.is_some())
        .collect();
    if ground.len() < 10 {
        return None;
    }
    let extractor = FeatureExtractor::fit(ground.iter().copied());
    let mut rows = Vec::with_capacity(ground.len());
    for e in &ground {
        rows.extend_from_slice(&extractor.extract(e).expect("has v2"));
    }
    let x = Matrix::from_vec(ground.len(), nvd_clean::severity::FEATURE_DIM, rows);
    let pca = Pca::fit(&x, 3).ok()?;
    let projected = pca.transform(&x);

    // Group members by (v2, v3) band.
    let mut members: BTreeMap<(Severity, Severity), Vec<usize>> = BTreeMap::new();
    for (i, e) in ground.iter().enumerate() {
        let v2 = e.severity_v2().expect("filtered");
        let v3 = e.severity_v3().expect("filtered");
        members.entry((v2, v3)).or_default().push(i);
    }

    let mut groups = Vec::new();
    for ((v2, v3), idx) in &members {
        let (centroid, spread) = group_stats(&projected, idx);
        groups.push(PcaGroup {
            v2: *v2,
            v3: *v3,
            count: idx.len(),
            centroid,
            spread,
        });
    }

    // Scatter index per v2 band: band spread over global spread.
    let all_indices: Vec<usize> = (0..ground.len()).collect();
    let global_spread = group_stats(&projected, &all_indices).1.max(1e-12);
    let mut scatter_index = BTreeMap::new();
    for v2 in [Severity::Low, Severity::Medium, Severity::High] {
        let idx: Vec<usize> = ground
            .iter()
            .enumerate()
            .filter(|(_, e)| e.severity_v2() == Some(v2))
            .map(|(i, _)| i)
            .collect();
        if idx.len() >= 3 {
            scatter_index.insert(v2, group_stats(&projected, &idx).1 / global_spread);
        }
    }

    let ev = pca.explained_variance();
    Some(PcaStudy {
        explained_variance: [ev[0], ev[1], ev[2]],
        groups,
        scatter_index,
    })
}

/// Centroid and mean member distance of the selected rows of a 3-column
/// projection: one gather into a member sub-matrix, a batched
/// `column_means`, and a single distance pass. Empty selections yield
/// zeros.
fn group_stats(projected: &Matrix, idx: &[usize]) -> ([f64; 3], f64) {
    if idx.is_empty() {
        return ([0.0; 3], 0.0);
    }
    let mut data = Vec::with_capacity(idx.len() * 3);
    for &i in idx {
        data.extend_from_slice(projected.row(i));
    }
    let sub = Matrix::from_vec(idx.len(), 3, data);
    let means = sub.column_means();
    let centroid = [means[0], means[1], means[2]];
    let spread = (0..sub.rows())
        .map(|r| {
            sub.row(r)
                .iter()
                .zip(&centroid)
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f64>()
                .sqrt()
        })
        .sum::<f64>()
        / idx.len() as f64;
    (centroid, spread)
}

/// Renders the Fig. 5 skeleton.
pub fn render_pca(study: &PcaStudy) -> String {
    let body: Vec<Vec<String>> = study
        .groups
        .iter()
        .map(|g| {
            vec![
                format!("{:?}", g.v2),
                format!("{:?}", g.v3),
                g.count.to_string(),
                format!(
                    "({:.2}, {:.2}, {:.2})",
                    g.centroid[0], g.centroid[1], g.centroid[2]
                ),
                render::f2(g.spread),
            ]
        })
        .collect();
    let mut out = render::table(&["v2", "v3", "n", "centroid (PC1..3)", "spread"], &body);
    out.push('\n');
    for (band, idx) in &study.scatter_index {
        out.push_str(&format!("scatter index {band:?}: {idx:.3}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Experiments;

    #[test]
    fn scatter_indices_are_sane_and_components_ordered() {
        // These assertions are corpus-invariant; all three tests share the
        // disclosure fixture key so the cache computes nothing extra.
        let e = Experiments::shared(0.02, 77);
        let study = pca_study(&e.cleaned).expect("enough ground truth");
        // Fig. 5's qualitative ordering (Low most scattered) stems from the
        // real NVD's feature geometry and is not guaranteed at reduced
        // synthetic scale; the reproducible invariants are that every band
        // yields a finite positive index and PCA orders its components.
        for (band, idx) in &study.scatter_index {
            assert!(
                idx.is_finite() && (0.05..5.0).contains(idx),
                "{band:?}: scatter index {idx}"
            );
        }
        assert!(study.scatter_index.len() >= 2, "{:?}", study.scatter_index);
        assert!(study.explained_variance[0] >= study.explained_variance[1]);
        assert!(study.explained_variance[1] >= study.explained_variance[2]);
    }

    #[test]
    fn groups_cover_all_observed_transitions() {
        let e = Experiments::shared(0.02, 77);
        let study = pca_study(&e.cleaned).expect("enough ground truth");
        let total: usize = study.groups.iter().map(|g| g.count).sum();
        let ground = e
            .cleaned
            .iter()
            .filter(|x| x.cvss_v2.is_some() && x.cvss_v3.is_some())
            .count();
        assert_eq!(total, ground);
    }

    #[test]
    fn tiny_database_returns_none() {
        let db = Database::new();
        assert!(pca_study(&db).is_none());
    }

    #[test]
    fn renderer_does_not_panic() {
        let e = Experiments::shared(0.02, 77);
        let study = pca_study(&e.cleaned).unwrap();
        let s = render_pca(&study);
        assert!(s.contains("scatter index"));
    }
}
