/// What a caller varies of the joint detector: which one detector, if
/// any, is ablated.
///
/// Everything else is the paper's Rating Challenge setting. The windows
/// are constants of their detector modules, as the paper fixes them: MC
/// and H-ARC/L-ARC windows of 30 days, HC and ME windows of 40 ratings.
/// Both detection paths run each detector at its config's `Default`
/// decision threshold (`McConfig`, `ArcConfig`, `HcConfig`, `MeConfig`);
/// the ROC sweep moves those thresholds by calling the detectors
/// directly. An ablated detector is removed from both detection paths.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DetectorConfig {
    /// The detector removed for the ablation experiments (none by
    /// default).
    pub ablated: Option<AblatedDetector>,
}

impl DetectorConfig {
    /// The paper's Rating Challenge configuration (same as `Default`).
    #[must_use]
    pub fn paper() -> Self {
        DetectorConfig::default()
    }

    /// Whether `detector` takes part in detection.
    pub(crate) fn runs(&self, detector: AblatedDetector) -> bool {
        self.ablated != Some(detector)
    }
}

/// Which detector to ablate in [`DetectorConfig::ablated`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AblatedDetector {
    /// Disable the MC detector.
    MeanChange,
    /// Disable H-ARC/L-ARC.
    ArrivalRate,
    /// Disable the HC detector.
    Histogram,
    /// Disable the ME detector.
    ModelError,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{arc, hc, mc, me};

    #[test]
    fn defaults_match_paper_windows() {
        assert_eq!(mc::HALF_WINDOW_DAYS, 15.0); // 30-day window
        assert_eq!(arc::HALF_WINDOW_DAYS, 15); // 30-day window
        assert_eq!(hc::WINDOW_RATINGS, 40);
        assert_eq!(me::WINDOW_RATINGS, 40);
        assert_eq!(DetectorConfig::paper().ablated, None);
    }

    #[test]
    fn ablation_disables_one_detector() {
        let c = DetectorConfig {
            ablated: Some(AblatedDetector::Histogram),
        };
        assert!(!c.runs(AblatedDetector::Histogram));
        assert!(c.runs(AblatedDetector::MeanChange));
        assert!(c.runs(AblatedDetector::ArrivalRate));
        assert!(c.runs(AblatedDetector::ModelError));
    }
}
