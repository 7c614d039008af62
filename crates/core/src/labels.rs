//! Ground-truth bookkeeping and detection-quality scoring.
//!
//! The Rating Challenge gives the simulation something commercial rating
//! data never has: exact knowledge of which ratings are unfair. This module
//! turns a defense scheme's suspicion marks into standard detection-quality
//! numbers against that truth.

use crate::{RatingDataset, RatingId};
use std::collections::BTreeSet;
use std::fmt;

/// The set of ratings known to be unfair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroundTruth {
    unfair: BTreeSet<RatingId>,
    total: usize,
}

impl GroundTruth {
    /// Extracts the ground truth from a labeled dataset.
    #[must_use]
    pub fn from_dataset(dataset: &RatingDataset) -> Self {
        GroundTruth {
            unfair: dataset.unfair_ids().into_iter().collect(),
            total: dataset.len(),
        }
    }

    /// Returns `true` if the rating is unfair.
    #[must_use]
    pub fn is_unfair(&self, id: RatingId) -> bool {
        self.unfair.contains(&id)
    }

    /// Returns the number of unfair ratings.
    #[must_use]
    pub fn unfair_count(&self) -> usize {
        self.unfair.len()
    }

    /// Scores a set of suspicion marks against this truth.
    #[must_use]
    pub fn score(&self, marked: &BTreeSet<RatingId>) -> ConfusionCounts {
        let tp = marked.iter().filter(|id| self.unfair.contains(id)).count();
        let fp = marked.len() - tp;
        let fn_ = self.unfair.len() - tp;
        let tn = self
            .total
            .saturating_sub(self.unfair.len())
            .saturating_sub(fp);
        ConfusionCounts { tp, fp, fn_, tn }
    }
}

/// Standard binary-detection confusion counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionCounts {
    /// Unfair ratings correctly marked suspicious.
    pub tp: usize,
    /// Fair ratings wrongly marked suspicious (false alarms).
    pub fp: usize,
    /// Unfair ratings that escaped detection.
    pub fn_: usize,
    /// Fair ratings correctly left unmarked.
    pub tn: usize,
}

impl ConfusionCounts {
    /// Precision: fraction of marks that were actually unfair.
    ///
    /// Returns 1.0 when nothing was marked (vacuously precise).
    #[must_use]
    pub fn precision(&self) -> f64 {
        let marked = self.tp + self.fp;
        if marked == 0 {
            1.0
        } else {
            self.tp as f64 / marked as f64
        }
    }

    /// Recall (detection rate): fraction of unfair ratings marked.
    ///
    /// Returns 1.0 when there was nothing to detect.
    #[must_use]
    pub fn recall(&self) -> f64 {
        let unfair = self.tp + self.fn_;
        if unfair == 0 {
            1.0
        } else {
            self.tp as f64 / unfair as f64
        }
    }

    /// False-alarm rate: fraction of fair ratings marked suspicious.
    #[must_use]
    pub fn false_alarm_rate(&self) -> f64 {
        let fair = self.fp + self.tn;
        if fair == 0 {
            0.0
        } else {
            self.fp as f64 / fair as f64
        }
    }
}

impl fmt::Display for ConfusionCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tp={} fp={} fn={} tn={} (precision {:.3}, recall {:.3}, false alarm {:.3})",
            self.tp,
            self.fp,
            self.fn_,
            self.tn,
            self.precision(),
            self.recall(),
            self.false_alarm_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProductId, RaterId, Rating, RatingSource, RatingValue, Timestamp};

    fn build() -> (RatingDataset, Vec<RatingId>, Vec<RatingId>) {
        let mut d = RatingDataset::new();
        let mut fair = Vec::new();
        let mut unfair = Vec::new();
        for i in 0..8u32 {
            let r = Rating::new(
                RaterId::new(i),
                ProductId::new(0),
                Timestamp::new(f64::from(i)).unwrap(),
                RatingValue::new(4.0).unwrap(),
            );
            fair.push(d.insert(r, RatingSource::Fair));
        }
        for i in 0..4u32 {
            let r = Rating::new(
                RaterId::new(100 + i),
                ProductId::new(0),
                Timestamp::new(f64::from(i)).unwrap(),
                RatingValue::new(0.0).unwrap(),
            );
            unfair.push(d.insert(r, RatingSource::Unfair));
        }
        (d, fair, unfair)
    }

    #[test]
    fn perfect_detection() {
        let (d, _, unfair) = build();
        let truth = GroundTruth::from_dataset(&d);
        let marks: BTreeSet<_> = unfair.into_iter().collect();
        let c = truth.score(&marks);
        assert_eq!(c.tp, 4);
        assert_eq!(c.fp, 0);
        assert_eq!(c.fn_, 0);
        assert_eq!(c.tn, 8);
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.recall(), 1.0);
        assert_eq!(c.false_alarm_rate(), 0.0);
    }

    #[test]
    fn no_marks_is_vacuously_precise() {
        let (d, _, _) = build();
        let truth = GroundTruth::from_dataset(&d);
        let c = truth.score(&BTreeSet::new());
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.false_alarm_rate(), 0.0);
    }

    #[test]
    fn mixed_marks() {
        let (d, fair, unfair) = build();
        let truth = GroundTruth::from_dataset(&d);
        // Mark 2 unfair and 2 fair.
        let marks: BTreeSet<_> = unfair[..2]
            .iter()
            .chain(fair[..2].iter())
            .copied()
            .collect();
        let c = truth.score(&marks);
        assert_eq!(c.tp, 2);
        assert_eq!(c.fp, 2);
        assert_eq!(c.fn_, 2);
        assert_eq!(c.tn, 6);
        assert!((c.precision() - 0.5).abs() < 1e-12);
        assert!((c.recall() - 0.5).abs() < 1e-12);
        assert!((c.false_alarm_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn truth_counts() {
        let (d, _, _) = build();
        let truth = GroundTruth::from_dataset(&d);
        assert_eq!(truth.unfair_count(), 4);
        assert_eq!(truth.total, 12);
    }

    #[test]
    fn display_is_informative() {
        let c = ConfusionCounts {
            tp: 1,
            fp: 2,
            fn_: 3,
            tn: 4,
        };
        let s = c.to_string();
        assert!(s.contains("tp=1"));
        assert!(s.contains("precision"));
    }
}
