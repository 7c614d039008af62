//! The serving engine: the P-scheme epoch loop made durable.
//!
//! [`Engine`] owns the live rating dataset, the trust manager, the
//! online detector state, and the current suspicion set, and mirrors
//! exactly the epoch loop `rrs_aggregation::PScheme::evaluate` runs in
//! batch: detect with last epoch's trust → update trust (Procedure 1)
//! → filter and weight scores (Eq. 7). Batch evaluation and this
//! engine therefore agree bit-for-bit on any shared prefix of events.
//!
//! Durability is write-ahead: every accepted submission and every
//! epoch boundary hits the fsynced WAL **before** the in-memory state
//! changes, and [`Engine::open`] recovers by loading the newest
//! checkpoint and replaying the WAL suffix. Because rating ids are
//! assigned in insertion order and the epoch computation is
//! deterministic at any thread count, a recovered engine is
//! bit-identical to one that never crashed — the crash-replay suite in
//! `tests/` holds this at `RRS_THREADS=1` and `8`.

use crate::checkpoint::{read_checkpoint, write_checkpoint, Checkpoint};
use crate::dto::RatingSubmission;
use crate::wal::{read_wal, truncate_wal, WalEvent, WalWriter};
use rrs_aggregation::filter::filter_ratings;
use rrs_aggregation::weighted_aggregate;
use rrs_core::{ProductId, RaterId, RatingDataset, RatingId, TimeWindow, Timestamp};
use rrs_detectors::{DetectorConfig, JointDetector, OnlineState};
use rrs_obs::rrs_warn;
use rrs_trust::{BetaTrust, TrustManager};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Engine configuration (the serving analogue of `PSchemeConfig`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Epoch length in days.
    pub period_days: f64,
    /// Joint-detector configuration.
    pub detectors: DetectorConfig,
    /// Trust threshold below which marked ratings are filtered out.
    pub filter_trust_threshold: f64,
    /// Optional per-epoch trust discount factor.
    pub trust_discount: Option<f64>,
}

impl EngineConfig {
    /// The paper's configuration with a given epoch length.
    #[must_use]
    pub fn paper(period_days: f64) -> Self {
        EngineConfig {
            period_days,
            detectors: DetectorConfig::paper(),
            filter_trust_threshold: 0.5,
            trust_discount: None,
        }
    }

    fn validate(&self) -> Result<(), String> {
        if !(self.period_days.is_finite() && self.period_days > 0.0) {
            return Err(format!(
                "period must be a positive number of days, got {}",
                self.period_days
            ));
        }
        if !(self.filter_trust_threshold.is_finite()
            && (0.0..=1.0).contains(&self.filter_trust_threshold))
        {
            return Err(format!(
                "filter trust threshold must lie in [0, 1], got {}",
                self.filter_trust_threshold
            ));
        }
        if let Some(factor) = self.trust_discount {
            if !(factor.is_finite() && (0.0..=1.0).contains(&factor)) {
                return Err(format!("trust discount must lie in [0, 1], got {factor}"));
            }
        }
        Ok(())
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::paper(30.0)
    }
}

/// One rater's trust record, as the API reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrustView {
    /// The rater.
    pub rater: RaterId,
    /// Beta-expectation trust value.
    pub trust: f64,
    /// Accumulated successes `S`.
    pub successes: f64,
    /// Accumulated failures `F`.
    pub failures: f64,
}

/// One product's current aggregate score, as the API reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProductScore {
    /// The product.
    pub product: ProductId,
    /// The filtered, trust-weighted aggregate over the scoring window,
    /// or `None` before the first epoch / when no rating carries
    /// positive weight even unfiltered.
    pub score: Option<f64>,
    /// Ratings inside the scoring window.
    pub ratings_scored: usize,
    /// All ratings ever accepted for the product.
    pub ratings_total: usize,
}

/// One suspicious rating, resolved against the dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuspiciousRating {
    /// The rating id.
    pub id: RatingId,
    /// Who submitted it.
    pub rater: RaterId,
    /// The product it rated.
    pub product: ProductId,
    /// When it was submitted.
    pub day: Timestamp,
    /// Its value.
    pub value: f64,
}

/// The durable serving engine.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    detector: JointDetector,
    dataset: RatingDataset,
    trust: TrustManager,
    online: OnlineState,
    marks: BTreeSet<RatingId>,
    epochs: u64,
    wal: WalWriter,
    dir: PathBuf,
}

fn invalid(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

impl Engine {
    /// Opens (or creates) the serving directory and recovers state:
    /// newest checkpoint first, then WAL-suffix replay.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; invalid configuration surfaces as
    /// [`std::io::ErrorKind::InvalidInput`], corrupt durable state as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn open(dir: &Path, config: EngineConfig) -> std::io::Result<Engine> {
        config
            .validate()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        std::fs::create_dir_all(dir)?;
        let checkpoint = read_checkpoint(dir)?;
        let (trust, online, epochs, checkpointed_events, raw_marks) = match &checkpoint {
            Some(c) => {
                let mut records = Vec::with_capacity(c.trust.len());
                for &(rater, s_bits, f_bits) in &c.trust {
                    let (s, f) = (f64::from_bits(s_bits), f64::from_bits(f_bits));
                    if !(s.is_finite() && f.is_finite() && s >= 0.0 && f >= 0.0) {
                        return Err(invalid(format!(
                            "corrupt checkpoint: trust counts for rater {rater} are ({s}, {f})"
                        )));
                    }
                    records.push((RaterId::new(rater), BetaTrust::with_counts(s, f)));
                }
                (
                    TrustManager::from_records(records),
                    OnlineState::restore(&c.online),
                    c.epochs,
                    c.wal_events,
                    c.marks.iter().copied().collect::<BTreeSet<u64>>(),
                )
            }
            None => (
                TrustManager::new(),
                OnlineState::new(),
                0,
                0,
                BTreeSet::new(),
            ),
        };

        let replay = read_wal(dir)?;
        if replay.torn_tail {
            rrs_warn!(
                "dropped a torn (unacknowledged) trailing WAL line in {}",
                dir.display()
            );
            // Cut the fragment off the file too: the next append would
            // otherwise complete it into a corrupt line.
            truncate_wal(dir, replay.complete_len)?;
        }
        let total_events = replay.events.len() as u64;
        if checkpointed_events > total_events {
            return Err(invalid(format!(
                "checkpoint reflects {checkpointed_events} WAL events but the log holds only {total_events}"
            )));
        }

        let mut engine = Engine {
            config,
            detector: JointDetector::new(config.detectors),
            dataset: RatingDataset::new(),
            trust,
            online,
            marks: BTreeSet::new(),
            epochs,
            wal: WalWriter::open(dir, total_events)?,
            dir: dir.to_path_buf(),
        };

        // Rating events are always re-inserted (the dataset is never
        // checkpointed; insertion order reproduces the original ids).
        // Epoch events inside the checkpointed prefix are already
        // reflected in the restored trust/online state and are only
        // counted; those after it re-run the deterministic epoch.
        let mut skipped_epochs = 0u64;
        let mut replayed_epochs = 0u64;
        for (index, event) in replay.events.iter().enumerate() {
            match event {
                WalEvent::Rating(submission) => {
                    engine
                        .dataset
                        .insert(submission.rating(), submission.source);
                }
                WalEvent::Epoch => {
                    if (index as u64) < checkpointed_events {
                        skipped_epochs += 1;
                    } else {
                        engine.apply_epoch();
                        replayed_epochs += 1;
                    }
                }
            }
        }
        if skipped_epochs != epochs {
            return Err(invalid(format!(
                "checkpoint claims {epochs} epochs but the covered WAL prefix holds {skipped_epochs} epoch events"
            )));
        }

        if replayed_epochs == 0 {
            // No epoch ran after the checkpoint, so the suspicion set is
            // the checkpointed one; resolve its raw id values against
            // the rebuilt dataset (ids are insertion-ordered, so every
            // checkpointed mark must resolve — a miss is corruption).
            let mut resolved = BTreeSet::new();
            for (_, timeline) in engine.dataset.products() {
                for entry in timeline.iter() {
                    if raw_marks.contains(&entry.id().value()) {
                        resolved.insert(entry.id());
                    }
                }
            }
            if resolved.len() != raw_marks.len() {
                return Err(invalid(format!(
                    "checkpoint marks {} ratings but only {} exist in the replayed WAL",
                    raw_marks.len(),
                    resolved.len()
                )));
            }
            engine.marks = resolved;
        }
        Ok(engine)
    }

    /// The serving directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Completed epochs.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Total accepted ratings.
    #[must_use]
    pub fn ratings(&self) -> usize {
        self.dataset.len()
    }

    /// Durable WAL events so far.
    #[must_use]
    pub fn wal_events(&self) -> u64 {
        self.wal.events()
    }

    /// Accepts a batch of validated submissions: WAL-append + fsync
    /// first, then the in-memory insert — an acknowledged batch
    /// survives any crash.
    ///
    /// # Errors
    ///
    /// Propagates WAL write failures; on error nothing was applied.
    pub fn submit(&mut self, batch: &[RatingSubmission]) -> std::io::Result<Vec<RatingId>> {
        let events: Vec<WalEvent> = batch.iter().map(|s| WalEvent::Rating(*s)).collect();
        self.wal.append_batch(&events)?;
        let mut ids = Vec::with_capacity(batch.len());
        for submission in batch {
            ids.push(self.dataset.insert(submission.rating(), submission.source));
        }
        Ok(ids)
    }

    /// Runs one epoch of the P-scheme loop (durably: the epoch boundary
    /// is WAL-logged before it executes).
    ///
    /// # Errors
    ///
    /// Propagates WAL write failures; on error the epoch did not run.
    pub fn advance_epoch(&mut self) -> std::io::Result<()> {
        self.wal.append_batch(&[WalEvent::Epoch])?;
        self.apply_epoch();
        Ok(())
    }

    /// The in-memory epoch step, shared by the live path and WAL
    /// replay. Mirrors `PScheme::evaluate` exactly: detect with the
    /// previous epoch's trust over the full prefix, then update trust
    /// over this period's ratings with the fresh marks, and declare the
    /// raters whose trust that update wrote (none under a discount, which
    /// rewrites every record) so the next detection re-reads only those.
    fn apply_epoch(&mut self) {
        let index = self.epochs as f64;
        let period = TimeWindow::ordered(
            Timestamp::saturating(index * self.config.period_days),
            Timestamp::saturating((index + 1.0) * self.config.period_days),
        );
        let prefix_window = TimeWindow::ordered(Timestamp::ZERO, period.end());
        let prefix = self.dataset.prefix_view(prefix_window);
        // Detection reads the previous epoch's trust straight from the
        // manager: nothing updates it until detection has returned.
        let trust = &self.trust;
        let (marks, _per_product) = self.detector.detect_all_online(
            &prefix,
            prefix_window,
            |r: RaterId| trust.trust_of(r),
            &mut self.online,
        );
        if let Some(factor) = self.config.trust_discount {
            self.trust.discount_all(factor);
        }
        let update = self.trust.update_epoch(&prefix, period, &marks);
        // Procedure 1 wrote only the touched records, so the next
        // detection re-reads only their trust. A discount rewrote every
        // record: declare nothing and let it resolve them all.
        if self.config.trust_discount.is_none() {
            self.online
                .declare_trust_changes(update.touched.iter().copied());
        }
        self.marks = marks;
        self.epochs += 1;
    }

    /// Writes a checkpoint of the current derived state.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the previous checkpoint survives
    /// a failed attempt.
    pub fn checkpoint(&self) -> std::io::Result<()> {
        let image = Checkpoint {
            epochs: self.epochs,
            wal_events: self.wal.events(),
            trust: self
                .trust
                .records()
                .map(|(rater, record)| {
                    (
                        rater.value(),
                        record.successes().to_bits(),
                        record.failures().to_bits(),
                    )
                })
                .collect(),
            marks: self.marks.iter().map(|id| id.value()).collect(),
            online: self.online.snapshot(),
        };
        write_checkpoint(&self.dir, &image)
    }

    /// Sets the trust-mass gauges from the current trust records (see
    /// `TrustManager::publish_gauges`). An epoch does not set them, so a
    /// server calls this when it renders its metrics; the values are the
    /// same after a restart as in a process that never stopped.
    pub fn publish_trust_gauges(&self) {
        self.trust.publish_gauges();
    }

    /// Trust value of one rater (0.5 if never observed).
    #[must_use]
    pub fn trust_of(&self, rater: RaterId) -> f64 {
        self.trust.trust_of(rater)
    }

    /// Full trust record of one rater, if observed.
    #[must_use]
    pub fn trust_record(&self, rater: RaterId) -> Option<TrustView> {
        self.trust.record(rater).map(|record| TrustView {
            rater,
            trust: record.trust(),
            successes: record.successes(),
            failures: record.failures(),
        })
    }

    /// The full trust table, sorted by rater.
    #[must_use]
    pub fn trust_table(&self) -> Vec<TrustView> {
        self.trust
            .records()
            .map(|(rater, record)| TrustView {
                rater,
                trust: record.trust(),
                successes: record.successes(),
                failures: record.failures(),
            })
            .collect()
    }

    /// The current suspicion set.
    #[must_use]
    pub fn suspicious(&self) -> &BTreeSet<RatingId> {
        &self.marks
    }

    /// The suspicion set resolved against the dataset, sorted by id.
    #[must_use]
    pub fn suspicious_details(&self) -> Vec<SuspiciousRating> {
        let mut out = Vec::with_capacity(self.marks.len());
        for (product, timeline) in self.dataset.products() {
            for entry in timeline.iter() {
                if self.marks.contains(&entry.id()) {
                    out.push(SuspiciousRating {
                        id: entry.id(),
                        rater: entry.rater(),
                        product,
                        day: entry.time(),
                        value: entry.value(),
                    });
                }
            }
        }
        out.sort_by_key(|s| s.id);
        out
    }

    /// The scoring window: cumulative, up to the last completed epoch.
    fn scoring_window(&self) -> TimeWindow {
        TimeWindow::ordered(
            Timestamp::ZERO,
            Timestamp::saturating(self.epochs as f64 * self.config.period_days),
        )
    }

    /// The current aggregate score of a product, or `None` if the
    /// product has no ratings at all.
    #[must_use]
    pub fn score_of(&self, product: ProductId) -> Option<ProductScore> {
        let timeline = self.dataset.product(product)?;
        let slice = timeline.in_window(self.scoring_window());
        let score = if self.epochs == 0 || slice.is_empty() {
            None
        } else {
            let kept = filter_ratings(
                slice,
                &self.marks,
                |r| self.trust.trust_of(r),
                self.config.filter_trust_threshold,
            );
            let pairs: Vec<(f64, f64)> = kept
                .iter()
                .map(|e| (e.value(), self.trust.trust_of(e.rater())))
                .collect();
            // Same fallback as the batch P-scheme: if the filter removed
            // everything, score the raw slice — a deployed system never
            // shows "no rating" for a rated product.
            weighted_aggregate(&pairs).or_else(|| {
                let pairs: Vec<(f64, f64)> = slice
                    .iter()
                    .map(|e| (e.value(), self.trust.trust_of(e.rater())))
                    .collect();
                weighted_aggregate(&pairs)
            })
        };
        Some(ProductScore {
            product,
            score,
            ratings_scored: slice.len(),
            ratings_total: timeline.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dto::parse_submission;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rrs-engine-{}-{name}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clean scratch dir");
        }
        dir
    }

    fn sub(rater: u32, product: u16, day: f64, value: f64) -> RatingSubmission {
        parse_submission(&format!(
            "{{\"rater\":{rater},\"product\":{product},\"day\":{day},\"value\":{value}}}"
        ))
        .expect("valid submission")
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let dir = scratch("config");
        for bad in [
            EngineConfig {
                period_days: 0.0,
                ..EngineConfig::default()
            },
            EngineConfig {
                period_days: f64::NAN,
                ..EngineConfig::default()
            },
            EngineConfig {
                filter_trust_threshold: 1.5,
                ..EngineConfig::default()
            },
            EngineConfig {
                trust_discount: Some(-0.1),
                ..EngineConfig::default()
            },
        ] {
            let err = Engine::open(&dir, bad).expect_err("must reject");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        }
        assert!(!dir.exists(), "rejected configs must not create the dir");
    }

    #[test]
    fn fresh_engine_serves_submissions_and_epochs() {
        let dir = scratch("fresh");
        let mut engine = Engine::open(&dir, EngineConfig::paper(30.0)).expect("open");
        assert_eq!(engine.epochs(), 0);
        assert_eq!(engine.ratings(), 0);
        assert!(engine.score_of(ProductId::new(0)).is_none());

        let batch: Vec<RatingSubmission> =
            (0..8).map(|i| sub(i, 0, f64::from(i) * 2.0, 4.0)).collect();
        let ids = engine.submit(&batch).expect("submit");
        assert_eq!(ids.len(), 8);
        assert_eq!(engine.ratings(), 8);

        // Before an epoch: the product is known but unscored.
        let report = engine.score_of(ProductId::new(0)).expect("known product");
        assert_eq!(report.score, None);
        assert_eq!(report.ratings_total, 8);

        engine.advance_epoch().expect("epoch");
        assert_eq!(engine.epochs(), 1);
        let report = engine.score_of(ProductId::new(0)).expect("known product");
        assert!(report.score.is_some());
        assert_eq!(report.ratings_scored, 8);
        // All-fair uniform input: nobody marked, trust table populated.
        assert!(engine.suspicious().is_empty());
        assert_eq!(engine.trust_table().len(), 8);
        assert!(engine.trust_of(RaterId::new(0)) > 0.5);
        assert_eq!(engine.trust_of(RaterId::new(99)), 0.5);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn reopen_without_checkpoint_replays_the_full_wal() {
        let dir = scratch("replay");
        let config = EngineConfig::paper(30.0);
        let batch: Vec<RatingSubmission> =
            (0..6).map(|i| sub(i, 0, f64::from(i) * 4.0, 3.5)).collect();
        {
            let mut engine = Engine::open(&dir, config).expect("open");
            engine.submit(&batch).expect("submit");
            engine.advance_epoch().expect("epoch");
            // Dropped without checkpoint: recovery is WAL-only.
        }
        let engine = Engine::open(&dir, config).expect("reopen");
        assert_eq!(engine.epochs(), 1);
        assert_eq!(engine.ratings(), 6);
        assert_eq!(engine.trust_table().len(), 6);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn checkpoint_claiming_too_many_events_is_corruption() {
        let dir = scratch("overclaim");
        let config = EngineConfig::paper(30.0);
        {
            let mut engine = Engine::open(&dir, config).expect("open");
            engine.submit(&[sub(1, 0, 0.0, 3.0)]).expect("submit");
            engine.checkpoint().expect("checkpoint");
        }
        // Truncate the WAL behind the checkpoint's back.
        std::fs::write(dir.join(crate::wal::WAL_FILE), b"").expect("truncate");
        let err = Engine::open(&dir, config).expect_err("must refuse");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
