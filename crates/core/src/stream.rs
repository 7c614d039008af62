//! Segmenting rating streams at the peaks of an indicator curve.

use std::ops::Range;

/// Splits `0..len` into maximal segments separated by `peaks`.
///
/// Each peak index starts a new segment; peaks outside `0..len`, duplicate
/// peaks, and unsorted input are tolerated. Used by detectors to cut a
/// rating stream at the peaks of an indicator curve and then judge each
/// segment (paper Sections IV-B.3 and IV-C.3).
#[must_use]
pub fn split_at_peaks(len: usize, peaks: &[usize]) -> Vec<Range<usize>> {
    let mut cuts: Vec<usize> = peaks
        .iter()
        .copied()
        .filter(|&p| p > 0 && p < len)
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut out = Vec::with_capacity(cuts.len() + 1);
    let mut start = 0;
    for cut in cuts {
        out.push(start..cut);
        start = cut;
    }
    if start < len {
        out.push(start..len);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::vec_of;
    use crate::{prop_assert, prop_assert_eq, props};

    #[test]
    fn split_no_peaks_is_whole_range() {
        assert_eq!(split_at_peaks(10, &[]), vec![0..10]);
    }

    #[test]
    fn split_at_two_peaks() {
        assert_eq!(split_at_peaks(10, &[3, 7]), vec![0..3, 3..7, 7..10]);
    }

    #[test]
    fn split_ignores_out_of_range_and_duplicates() {
        assert_eq!(split_at_peaks(10, &[0, 3, 3, 10, 99]), vec![0..3, 3..10]);
    }

    #[test]
    fn split_tolerates_unsorted() {
        assert_eq!(split_at_peaks(10, &[7, 3]), vec![0..3, 3..7, 7..10]);
    }

    props! {
        #[test]
        fn segments_partition_range(len in 1usize..100, peaks in vec_of(0usize..120, 0..10)) {
            let segs = split_at_peaks(len, &peaks);
            prop_assert_eq!(segs.first().unwrap().start, 0);
            prop_assert_eq!(segs.last().unwrap().end, len);
            for pair in segs.windows(2) {
                prop_assert_eq!(pair[0].end, pair[1].start);
                prop_assert!(!pair[0].is_empty());
            }
        }
    }
}
