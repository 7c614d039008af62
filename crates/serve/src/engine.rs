//! The serving engine: the P-scheme epoch loop made durable.
//!
//! [`Engine`] owns the live rating dataset and a
//! [`PSchemeState`], the epoch stepper `rrs_aggregation::PScheme::evaluate`
//! runs in batch: each epoch is one `step` (detect with last epoch's
//! trust → update trust, Procedure 1) and each score read one `score`
//! (filter → Eq. 7). Epoch `i` covers `[i × period, (i + 1) × period)`,
//! the boundaries `TimeWindow::periods` computes, so batch evaluation
//! and this engine agree bit-for-bit on any shared prefix of events.
//!
//! Durability is write-ahead: every accepted submission and every
//! epoch boundary hits the fsynced WAL **before** the in-memory state
//! changes, and [`Engine::open`] recovers by re-inserting every rating
//! of the WAL, loading the newest checkpoint (trust records and
//! suspicion set) and re-running the epochs of the WAL suffix. The
//! detector cache is not checkpointed: the first epoch after a restart,
//! replayed or live, rebuilds it from the dataset in one full pass.
//! Because rating ids are assigned in insertion order and the epoch
//! computation is deterministic at any thread count, a recovered engine
//! is bit-identical to one that never crashed — the crash-replay suite
//! in `tests/` holds this at `RRS_THREADS=1` and `8`.

use crate::checkpoint::{read_checkpoint, write_checkpoint, Checkpoint};
use crate::dto::RatingSubmission;
use crate::wal::{read_wal, truncate_wal, WalEvent, WalWriter};
use rrs_aggregation::{PSchemeConfig, PSchemeState};
use rrs_core::{Days, ProductId, RaterId, RatingDataset, RatingId, TimeWindow, Timestamp};
use rrs_detectors::DetectorConfig;
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

    fn scheme(&self) -> PSchemeConfig {
        PSchemeConfig {
            detectors: self.detectors,
            filter_trust_threshold: self.filter_trust_threshold,
            trust_discount: self.trust_discount,
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
    dataset: RatingDataset,
    state: PSchemeState,
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
        // No checkpoint restores like an empty one: nothing is covered.
        let checkpoint = read_checkpoint(dir)?.unwrap_or_default();
        let mut records = Vec::with_capacity(checkpoint.trust.len());
        for &(rater, s_bits, f_bits) in &checkpoint.trust {
            let (s, f) = (f64::from_bits(s_bits), f64::from_bits(f_bits));
            if !(s.is_finite() && f.is_finite() && s >= 0.0 && f >= 0.0) {
                return Err(invalid(format!(
                    "corrupt checkpoint: trust counts for rater {rater} are ({s}, {f})"
                )));
            }
            records.push((RaterId::new(rater), BetaTrust::with_counts(s, f)));
        }
        let (epochs, checkpointed_events) = (checkpoint.epochs, checkpoint.wal_events);
        let raw_marks: BTreeSet<u64> = checkpoint.marks.iter().copied().collect();

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

        // The dataset is never checkpointed: every rating is re-inserted,
        // and insertion order reproduces the original ids. The covered
        // prefix's epochs are already in the restored state, so they are
        // only counted, and every checkpointed mark must name one of the
        // prefix's ratings.
        let (covered, suffix) = replay.events.split_at(checkpointed_events as usize);
        let mut dataset = RatingDataset::new();
        let mut marks = BTreeSet::new();
        let mut covered_epochs = 0u64;
        for event in covered {
            match event {
                WalEvent::Rating(submission) => {
                    let id = dataset.insert(submission.rating(), submission.source);
                    if raw_marks.contains(&id.value()) {
                        marks.insert(id);
                    }
                }
                WalEvent::Epoch => covered_epochs += 1,
            }
        }
        if covered_epochs != epochs {
            return Err(invalid(format!(
                "checkpoint claims {epochs} epochs but the covered WAL prefix holds {covered_epochs} epoch events"
            )));
        }
        if marks.len() != raw_marks.len() {
            return Err(invalid(format!(
                "checkpoint marks {} ratings but only {} exist in the WAL prefix it covers",
                raw_marks.len(),
                marks.len()
            )));
        }

        let mut engine = Engine {
            config,
            dataset,
            state: PSchemeState::restore(
                config.scheme(),
                TrustManager::from_records(records),
                marks,
            ),
            epochs,
            wal: WalWriter::open(dir, total_events)?,
            dir: dir.to_path_buf(),
        };
        // The events after the checkpoint re-run as they ran live.
        for event in suffix {
            match event {
                WalEvent::Rating(submission) => {
                    engine
                        .dataset
                        .insert(submission.rating(), submission.source);
                }
                WalEvent::Epoch => engine.apply_epoch(),
            }
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

    /// Boundary `index` of the epochs: `index × period` days.
    fn boundary(&self, index: u64) -> Timestamp {
        let period = Days::new_saturating(self.config.period_days);
        Timestamp::period_boundary(Timestamp::ZERO, period, index)
    }

    /// The in-memory epoch step, shared by the live path and WAL
    /// replay: one `PSchemeState::step` over the next period.
    fn apply_epoch(&mut self) {
        let period =
            TimeWindow::ordered(self.boundary(self.epochs), self.boundary(self.epochs + 1));
        self.state.step(&self.dataset, Timestamp::ZERO, period);
        self.epochs += 1;
    }

    /// Writes a checkpoint of the trust records and the suspicion set.
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
                .state
                .trust()
                .records()
                .map(|(rater, record)| {
                    (
                        rater.value(),
                        record.successes().to_bits(),
                        record.failures().to_bits(),
                    )
                })
                .collect(),
            marks: self.suspicious().iter().map(|id| id.value()).collect(),
        };
        write_checkpoint(&self.dir, &image)
    }

    /// Sets the trust-mass gauges from the current trust records (see
    /// `TrustManager::publish_gauges`). An epoch does not set them, so a
    /// server calls this when it renders its metrics; the values are the
    /// same after a restart as in a process that never stopped.
    pub fn publish_trust_gauges(&self) {
        self.state.trust().publish_gauges();
    }

    /// Trust value of one rater (0.5 if never observed).
    #[must_use]
    pub fn trust_of(&self, rater: RaterId) -> f64 {
        self.state.trust().trust_of(rater)
    }

    /// Full trust record of one rater, if observed.
    #[must_use]
    pub fn trust_record(&self, rater: RaterId) -> Option<TrustView> {
        self.state.trust().record(rater).map(|record| TrustView {
            rater,
            trust: record.trust(),
            successes: record.successes(),
            failures: record.failures(),
        })
    }

    /// The full trust table, sorted by rater.
    #[must_use]
    pub fn trust_table(&self) -> Vec<TrustView> {
        self.state
            .trust()
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
        self.state.suspicious()
    }

    /// The suspicion set resolved against the dataset, sorted by id.
    #[must_use]
    pub fn suspicious_details(&self) -> Vec<SuspiciousRating> {
        let marks = self.suspicious();
        let mut out = Vec::with_capacity(marks.len());
        for (product, timeline) in self.dataset.products() {
            for entry in timeline.iter() {
                if marks.contains(&entry.id()) {
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

    /// The current aggregate score of a product, or `None` if the
    /// product has no ratings at all. The scoring window is cumulative,
    /// up to the end of the last completed epoch.
    #[must_use]
    pub fn score_of(&self, product: ProductId) -> Option<ProductScore> {
        let timeline = self.dataset.product(product)?;
        let slice = timeline.in_window(TimeWindow::ordered(
            Timestamp::ZERO,
            self.boundary(self.epochs),
        ));
        Some(ProductScore {
            product,
            score: self.state.score(slice),
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
