//! Single-linkage clustering on the real line.
//!
//! The histogram-change detector (paper Section IV-D) clusters the rating
//! values in a window into two groups — the paper used MATLAB's
//! `clusterdata()` with the simple-linkage method. Single linkage on the
//! real line is exactly "cut the k−1 largest gaps in sorted order", which
//! is what [`single_linkage_1d`] does; the tests hold it to the general
//! agglomerative procedure.

/// Clusters 1-D `values` into `k` groups by single linkage.
///
/// Returns one cluster label per input element; labels are `0..k'` where
/// `k' = min(k, number of distinct positions)` and are assigned in
/// ascending order of cluster minimum.
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
pub fn single_linkage_1d(values: &[f64], k: usize) -> Vec<usize> {
    assert!(k > 0, "cannot form zero clusters");
    let n = values.len();
    if n == 0 {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));

    // Gaps between consecutive sorted values; cut the k-1 largest.
    let mut gaps: Vec<(f64, usize)> = order
        .windows(2)
        .enumerate()
        .map(|(i, w)| (values[w[1]] - values[w[0]], i))
        .collect();
    gaps.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let cuts: std::collections::BTreeSet<usize> = gaps
        .iter()
        .take(k.saturating_sub(1))
        .filter(|(gap, _)| *gap > 0.0)
        .map(|&(_, i)| i)
        .collect();

    let mut labels = vec![0usize; n];
    let mut cluster = 0usize;
    for (pos, &idx) in order.iter().enumerate() {
        if pos > 0 && cuts.contains(&(pos - 1)) {
            cluster += 1;
        }
        labels[idx] = cluster;
    }
    labels
}

/// Returns the sizes of the clusters identified by `labels`.
#[must_use]
pub fn cluster_sizes(labels: &[usize]) -> Vec<usize> {
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut sizes = vec![0usize; k];
    for &l in labels {
        sizes[l] += 1;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::check::vec_of;
    use rrs_core::{prop_assert, prop_assert_eq, props};

    /// General agglomerative single-linkage clustering of 1-D `values` into
    /// `k` groups, the reference [`single_linkage_1d`] is checked against.
    ///
    /// Starts from singletons and repeatedly merges the two clusters with the
    /// smallest single-link (minimum pairwise) distance until `k` clusters
    /// remain. Quadratic in the input size. Label conventions match
    /// [`single_linkage_1d`].
    fn single_linkage(values: &[f64], k: usize) -> Vec<usize> {
        assert!(k > 0, "cannot form zero clusters");
        let n = values.len();
        if n == 0 {
            return Vec::new();
        }
        // Cluster membership lists.
        let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();

        while clusters.len() > k {
            // Find the pair with the smallest single-link distance.
            let mut best = (f64::INFINITY, 0usize, 1usize);
            for i in 0..clusters.len() {
                for j in (i + 1)..clusters.len() {
                    let mut d = f64::INFINITY;
                    for &a in &clusters[i] {
                        for &b in &clusters[j] {
                            d = d.min((values[a] - values[b]).abs());
                        }
                    }
                    if d < best.0 {
                        best = (d, i, j);
                    }
                }
            }
            if !best.0.is_finite() {
                break;
            }
            let (_, i, j) = best;
            let merged = clusters.swap_remove(j);
            clusters[i].extend(merged);
        }

        // Order clusters by their minimum value so labels are deterministic.
        clusters.sort_by(|a, b| {
            let ma = a.iter().map(|&i| values[i]).fold(f64::INFINITY, f64::min);
            let mb = b.iter().map(|&i| values[i]).fold(f64::INFINITY, f64::min);
            ma.total_cmp(&mb)
        });
        let mut labels = vec![0usize; n];
        for (label, members) in clusters.iter().enumerate() {
            for &i in members {
                labels[i] = label;
            }
        }
        labels
    }

    fn partition_sets(labels: &[usize]) -> Vec<std::collections::BTreeSet<usize>> {
        let k = labels.iter().copied().max().map_or(0, |m| m + 1);
        let mut sets = vec![std::collections::BTreeSet::new(); k];
        for (i, &l) in labels.iter().enumerate() {
            sets[l].insert(i);
        }
        sets.sort();
        sets
    }

    #[test]
    fn two_obvious_groups() {
        let values = [1.0, 1.1, 0.9, 5.0, 5.2, 4.9];
        let labels = single_linkage_1d(&values, 2);
        assert_eq!(labels, vec![0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn identical_values_form_one_cluster() {
        let values = [2.0; 6];
        let labels = single_linkage_1d(&values, 2);
        // No positive gap exists, so everything stays in cluster 0.
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn empty_input() {
        assert!(single_linkage_1d(&[], 2).is_empty());
        assert!(single_linkage(&[], 2).is_empty());
    }

    #[test]
    fn singleton_input() {
        assert_eq!(single_linkage_1d(&[3.0], 2), vec![0]);
        assert_eq!(single_linkage(&[3.0], 2), vec![0]);
    }

    #[test]
    #[should_panic(expected = "zero clusters")]
    fn zero_k_panics() {
        let _ = single_linkage_1d(&[1.0], 0);
    }

    #[test]
    fn agglomerative_matches_gap_cutting() {
        let values = [0.0, 0.2, 0.1, 3.0, 3.3, 9.0, 9.1, 8.9];
        let a = partition_sets(&single_linkage_1d(&values, 3));
        let b = partition_sets(&single_linkage(&values, 3));
        assert_eq!(a, b);
    }

    #[test]
    fn labels_ordered_by_value() {
        let values = [10.0, 1.0, 20.0];
        let labels = single_linkage_1d(&values, 3);
        assert_eq!(labels, vec![1, 0, 2]);
    }

    #[test]
    fn sizes_counts() {
        assert_eq!(cluster_sizes(&[0, 1, 0, 0]), vec![3, 1]);
        assert!(cluster_sizes(&[]).is_empty());
    }

    props! {
        #[test]
        fn both_methods_agree(values in vec_of(-10.0f64..10.0, 1..25), k in 1usize..4) {
            let a = partition_sets(&single_linkage_1d(&values, k));
            let b = partition_sets(&single_linkage(&values, k));
            prop_assert_eq!(a, b);
        }

        #[test]
        fn label_count_bounded(values in vec_of(-10.0f64..10.0, 1..40), k in 1usize..5) {
            let labels = single_linkage_1d(&values, k);
            let distinct = labels.iter().collect::<std::collections::BTreeSet<_>>().len();
            prop_assert!(distinct <= k);
            prop_assert_eq!(labels.len(), values.len());
        }

        #[test]
        fn clusters_are_intervals_in_value_order(values in vec_of(-10.0f64..10.0, 2..30)) {
            // Single linkage in 1-D always produces clusters that are
            // contiguous in sorted value order.
            let labels = single_linkage_1d(&values, 2);
            let mut order: Vec<usize> = (0..values.len()).collect();
            order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
            let seq: Vec<usize> = order.iter().map(|&i| labels[i]).collect();
            // seq must be a run of 0s followed by a run of 1s (or all 0).
            let mut switched = false;
            for pair in seq.windows(2) {
                if pair[0] != pair[1] {
                    prop_assert!(!switched, "labels interleave: {:?}", seq);
                    switched = true;
                }
            }
        }
    }
}
