//! The append-only JSONL write-ahead log.
//!
//! Every state-changing request is appended (and fsynced) here *before*
//! the in-memory engine mutates, so a crash at any instant loses at
//! most the requests that were never acknowledged. The log holds two
//! event kinds:
//!
//! - `{"event":"rating", ...}` — one accepted submission, in the same
//!   field layout as [`crate::dto::RatingSubmission::to_jsonl`];
//! - `{"event":"epoch"}` — one completed trust/detection epoch.
//!
//! Replaying the log from the start reproduces the engine bit-for-bit:
//! rating ids are assigned in insertion order, day/value floats round
//! trip through [`rrs_core::io::json_number`]'s shortest-roundtrip
//! encoding, and epoch events re-run the same deterministic detection
//! the live process ran.
//!
//! A torn final line (no trailing `\n` — the classic power-cut artifact
//! of an append that never completed) is detected and dropped: it was
//! never acknowledged, so dropping it is correct. Recovery also cuts it
//! off the file ([`truncate_wal`]) before the next append, which would
//! otherwise complete the fragment into a corrupt line. A *complete*
//! line that fails to parse is corruption and refuses to load.

use crate::dto::{submission_from_fields, RatingSubmission};
use rrs_core::io::{jsonl_field, parse_jsonl_object, JsonScalar};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// The WAL file name inside a serving directory.
pub const WAL_FILE: &str = "wal.jsonl";

/// One durable event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalEvent {
    /// An accepted rating submission.
    Rating(RatingSubmission),
    /// A completed epoch boundary.
    Epoch,
}

impl WalEvent {
    /// Serializes the event as one JSONL line (without the newline).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        match self {
            WalEvent::Rating(s) => {
                let body = s.to_jsonl();
                // Splice the event tag in as the first field.
                format!("{{\"event\":\"rating\",{}", &body[1..])
            }
            WalEvent::Epoch => "{\"event\":\"epoch\"}".to_string(),
        }
    }

    /// Parses one complete WAL line.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed field.
    pub fn from_jsonl(line: &str) -> Result<WalEvent, String> {
        let fields = parse_jsonl_object(line)?;
        match jsonl_field(&fields, "event") {
            Some(JsonScalar::Text(kind)) if kind == "epoch" => {
                if fields.len() != 1 {
                    return Err("epoch event carries no other fields".to_string());
                }
                Ok(WalEvent::Epoch)
            }
            // The submission DTO's own validator, so WAL replay
            // enforces exactly the domains ingestion enforced.
            Some(JsonScalar::Text(kind)) if kind == "rating" => {
                submission_from_fields(&fields, Some("event")).map(WalEvent::Rating)
            }
            Some(JsonScalar::Text(kind)) => Err(format!("unknown event kind {kind:?}")),
            Some(_) => Err("field \"event\" must be a string".to_string()),
            None => Err("missing field \"event\"".to_string()),
        }
    }
}

/// The append half of the log: an open file handle plus the count of
/// events it holds.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    events: u64,
}

impl WalWriter {
    /// Opens (creating if absent) the WAL for appending, positioned
    /// after `existing_events` already-replayed events.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open(dir: &Path, existing_events: u64) -> std::io::Result<WalWriter> {
        let path = dir.join(WAL_FILE);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(WalWriter {
            file,
            path,
            events: existing_events,
        })
    }

    /// The number of events durably in the log.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The log's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends a batch of events as one write and fsyncs before
    /// returning — after this returns `Ok`, the events survive a crash.
    ///
    /// # Errors
    ///
    /// Propagates write/sync failures; on error the in-memory event
    /// count is unchanged and the caller must not apply the batch.
    pub fn append_batch(&mut self, events: &[WalEvent]) -> std::io::Result<()> {
        if events.is_empty() {
            return Ok(());
        }
        let mut buf = String::new();
        for event in events {
            buf.push_str(&event.to_jsonl());
            buf.push('\n');
        }
        self.file.write_all(buf.as_bytes())?;
        self.file.sync_data()?;
        self.events += events.len() as u64;
        Ok(())
    }
}

/// The result of loading a WAL from disk.
#[derive(Debug)]
pub struct WalReplay {
    /// Every complete event, in append order.
    pub events: Vec<WalEvent>,
    /// Whether a torn (unterminated) final line was dropped.
    pub torn_tail: bool,
    /// Byte length of the log's complete lines: the end of the last
    /// `\n`, where a torn tail begins.
    pub complete_len: u64,
}

/// Loads the WAL, tolerating exactly one torn final line.
///
/// A missing file is an empty log (a fresh serving directory).
///
/// # Errors
///
/// Propagates filesystem errors; returns a corruption error (as
/// [`std::io::ErrorKind::InvalidData`]) when any *complete* line fails
/// to parse — that is real damage, not a crash artifact, and replaying
/// past it would silently diverge from the acknowledged history.
pub fn read_wal(dir: &Path) -> std::io::Result<WalReplay> {
    let path = dir.join(WAL_FILE);
    let mut raw = Vec::new();
    match File::open(&path) {
        Ok(mut f) => {
            f.read_to_end(&mut raw)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalReplay {
                events: Vec::new(),
                torn_tail: false,
                complete_len: 0,
            })
        }
        Err(e) => return Err(e),
    }
    let mut events = Vec::new();
    let mut rest: &[u8] = &raw;
    let mut line_no = 0usize;
    let torn_tail = loop {
        match rest.iter().position(|&b| b == b'\n') {
            Some(at) => {
                line_no += 1;
                let line = std::str::from_utf8(&rest[..at])
                    .map_err(|_| corrupt(&path, line_no, "non-UTF-8 bytes".to_string()))?;
                let event = WalEvent::from_jsonl(line).map_err(|e| corrupt(&path, line_no, e))?;
                events.push(event);
                rest = &rest[at + 1..];
            }
            None => break !rest.is_empty(),
        }
    };
    let complete_len = (raw.len() - rest.len()) as u64;
    Ok(WalReplay {
        events,
        torn_tail,
        complete_len,
    })
}

/// Truncates the log to `len` bytes and syncs — recovery's cut of a torn
/// tail, at the [`WalReplay::complete_len`] [`read_wal`] reported, so the
/// next append starts a fresh line.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn truncate_wal(dir: &Path, len: u64) -> std::io::Result<()> {
    let file = OpenOptions::new().write(true).open(dir.join(WAL_FILE))?;
    file.set_len(len)?;
    file.sync_all()
}

fn corrupt(path: &Path, line: usize, message: String) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("corrupt WAL {}:{line}: {message}", path.display()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rrs-wal-{}-{name}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clean scratch dir");
        }
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn submission(line: &str) -> RatingSubmission {
        crate::dto::parse_submission(line).expect("valid submission")
    }

    #[test]
    fn events_round_trip_through_jsonl() {
        let s = submission(r#"{"rater":9,"product":3,"day":1.75,"value":2.5,"source":"unfair"}"#);
        let line = WalEvent::Rating(s).to_jsonl();
        assert!(line.starts_with("{\"event\":\"rating\","), "got {line}");
        assert_eq!(WalEvent::from_jsonl(&line), Ok(WalEvent::Rating(s)));
        assert_eq!(
            WalEvent::from_jsonl("{\"event\":\"epoch\"}"),
            Ok(WalEvent::Epoch)
        );
    }

    #[test]
    fn replay_enforces_exactly_the_submission_domains() {
        let tagged = |line: &str| format!("{{\"event\":\"rating\",{}", &line[1..]);
        for line in crate::dto::tests::rejected() {
            assert!(
                WalEvent::from_jsonl(&tagged(line)).is_err(),
                "replayed {line}"
            );
        }
        for line in crate::dto::tests::ACCEPTED {
            let event = WalEvent::from_jsonl(&tagged(line)).expect("accepted line replays");
            assert_eq!(event, WalEvent::Rating(submission(line)));
            assert_eq!(WalEvent::from_jsonl(&event.to_jsonl()), Ok(event));
        }
    }

    #[test]
    fn replay_returns_events_in_append_order() {
        let dir = tmp_dir("order");
        let a = submission(r#"{"rater":1,"product":0,"day":0,"value":3}"#);
        let b = submission(r#"{"rater":2,"product":0,"day":0.5,"value":4}"#);
        let mut wal = WalWriter::open(&dir, 0).expect("open");
        wal.append_batch(&[WalEvent::Rating(a), WalEvent::Epoch])
            .expect("append");
        wal.append_batch(&[WalEvent::Rating(b)]).expect("append");
        assert_eq!(wal.events(), 3);
        let replay = read_wal(&dir).expect("replay");
        assert!(!replay.torn_tail);
        assert_eq!(
            replay.events,
            vec![WalEvent::Rating(a), WalEvent::Epoch, WalEvent::Rating(b)]
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn missing_file_is_an_empty_log() {
        let dir = tmp_dir("missing");
        let replay = read_wal(&dir).expect("replay");
        assert!(replay.events.is_empty());
        assert!(!replay.torn_tail);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let dir = tmp_dir("torn");
        let a = submission(r#"{"rater":1,"product":0,"day":0,"value":3}"#);
        let mut wal = WalWriter::open(&dir, 0).expect("open");
        wal.append_batch(&[WalEvent::Rating(a)]).expect("append");
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(WAL_FILE))
            .expect("reopen");
        f.write_all(b"{\"event\":\"rating\",\"rater\":2,")
            .expect("tear");
        drop(f);
        let replay = read_wal(&dir).expect("replay");
        assert!(replay.torn_tail);
        assert_eq!(replay.events, vec![WalEvent::Rating(a)]);
        let complete = WalEvent::Rating(a).to_jsonl().len() as u64 + 1;
        assert_eq!(replay.complete_len, complete);

        // Cutting the tail leaves a log that appends cleanly.
        truncate_wal(&dir, replay.complete_len).expect("truncate");
        let mut wal = WalWriter::open(&dir, 1).expect("reopen");
        wal.append_batch(&[WalEvent::Epoch]).expect("append");
        let replay = read_wal(&dir).expect("replay");
        assert!(!replay.torn_tail);
        assert_eq!(replay.events, vec![WalEvent::Rating(a), WalEvent::Epoch]);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn complete_corrupt_line_refuses_to_load() {
        let dir = tmp_dir("corrupt");
        let mut f = File::create(dir.join(WAL_FILE)).expect("create");
        f.write_all(b"{\"event\":\"rating\",\"rater\":-1,\"product\":0,\"day\":0,\"value\":3}\n")
            .expect("write");
        drop(f);
        let err = read_wal(&dir).expect_err("must refuse");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn unknown_event_kinds_refuse_to_load() {
        let dir = tmp_dir("unknown");
        std::fs::write(dir.join(WAL_FILE), b"{\"event\":\"compact\"}\n").expect("write");
        let err = read_wal(&dir).expect_err("must refuse");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
