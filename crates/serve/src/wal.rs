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

use crate::dto::{submission_from_slots, RatingSubmission, LINE_CAPACITY};
use rrs_core::io::{scan_jsonl_fields, JsonToken};
use rrs_obs::rrs_warn;
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
        let mut line = String::with_capacity(LINE_CAPACITY);
        self.push_jsonl(&mut line);
        line
    }

    /// Appends the event's JSONL line (without the newline) to `buf`.
    pub fn push_jsonl(&self, buf: &mut String) {
        match self {
            WalEvent::Rating(s) => s.push_jsonl(buf, true),
            WalEvent::Epoch => buf.push_str("{\"event\":\"epoch\"}"),
        }
    }

    /// Parses one complete WAL line.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed field.
    pub fn from_jsonl(line: &str) -> Result<WalEvent, String> {
        let slots = scan_jsonl_fields(
            line,
            ["rater", "product", "day", "value", "source", "event"],
        )?;
        let [rater, product, day, value, source, event] = slots.values;
        match event {
            Some(JsonToken::Text(kind)) if kind == "epoch" => {
                if slots.fields != 1 {
                    return Err("epoch event carries no other fields".to_string());
                }
                Ok(WalEvent::Epoch)
            }
            // The submission DTO's own validator, so WAL replay
            // enforces exactly the domains ingestion enforced.
            Some(JsonToken::Text(kind)) if kind == "rating" => submission_from_slots(
                &[rater, product, day, value, source],
                slots.unknown.as_ref(),
            )
            .map(WalEvent::Rating),
            Some(JsonToken::Text(kind)) => Err(format!("unknown event kind {kind:?}")),
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
    /// Byte length of the acknowledged log: where a failed append is
    /// cut back to.
    len: u64,
    /// Set when a failed append could not be cut back off the file: the
    /// log's tail is unknown, so it takes no appends until reopened.
    broken: bool,
}

/// One-shot I/O failures the tests inject into the next append their
/// thread makes.
#[cfg(test)]
#[derive(Debug, Default)]
struct Faults {
    /// Fail the write after this many bytes reached the file.
    write_after: Option<usize>,
    /// Fail the sync after the whole batch was written.
    sync: bool,
    /// Fail the rollback of a failed append.
    rollback: bool,
}

#[cfg(test)]
thread_local! {
    static FAULTS: std::cell::RefCell<Faults> = std::cell::RefCell::new(Faults::default());
}

/// Takes the injected fault `pick` finds, as the error it raises.
#[cfg(test)]
fn injected<T>(
    pick: impl FnOnce(&mut Faults) -> Option<T>,
    what: &str,
) -> Option<(T, std::io::Error)> {
    let fault = FAULTS.with(|f| pick(&mut f.borrow_mut()))?;
    Some((
        fault,
        std::io::Error::other(format!("injected {what} failure")),
    ))
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
        let len = file.metadata()?.len();
        Ok(WalWriter {
            file,
            path,
            events: existing_events,
            len,
            broken: false,
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
    /// The lines are rendered straight into the one buffer written.
    ///
    /// # Errors
    ///
    /// Propagates write/sync failures. A failed append is cut back off
    /// the file, so the log holds exactly the acknowledged events and
    /// the in-memory event count is unchanged; the caller must not
    /// apply the batch. If the cut fails too, this and every later
    /// append fail until the log is reopened, since recovery then
    /// decides what the tail holds.
    pub fn append_batch(&mut self, events: &[WalEvent]) -> std::io::Result<()> {
        if self.broken {
            return Err(std::io::Error::other(format!(
                "{} has an unknown tail after a failed append; reopen it",
                self.path.display()
            )));
        }
        if events.is_empty() {
            return Ok(());
        }
        let mut buf = String::with_capacity(events.len() * LINE_CAPACITY);
        for event in events {
            event.push_jsonl(&mut buf);
            buf.push('\n');
        }
        if let Err(e) = self.write_and_sync(buf.as_bytes()) {
            if let Err(cut) = self.roll_back() {
                self.broken = true;
                rrs_warn!(
                    "could not cut a failed append off {} ({cut}); refusing appends until it is reopened",
                    self.path.display()
                );
            }
            return Err(e);
        }
        self.len += buf.len() as u64;
        self.events += events.len() as u64;
        Ok(())
    }

    fn write_and_sync(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        #[cfg(test)]
        if let Some((n, e)) = injected(|f| f.write_after.take(), "write") {
            self.file.write_all(&bytes[..n.min(bytes.len())])?;
            return Err(e);
        }
        self.file.write_all(bytes)?;
        #[cfg(test)]
        if let Some(((), e)) = injected(|f| std::mem::take(&mut f.sync).then_some(()), "sync") {
            return Err(e);
        }
        self.file.sync_data()
    }

    /// Cuts the file back to the acknowledged log and syncs the cut.
    fn roll_back(&mut self) -> std::io::Result<()> {
        #[cfg(test)]
        if let Some(((), e)) = injected(
            |f| std::mem::take(&mut f.rollback).then_some(()),
            "rollback",
        ) {
            return Err(e);
        }
        self.file.set_len(self.len)?;
        self.file.sync_all()
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

    #[test]
    fn fixture_lines_re_encode_to_their_own_bytes() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/detector-cache-checkpoint")
            .join(WAL_FILE);
        let text = std::fs::read_to_string(path).expect("fixture WAL");
        assert!(text.lines().count() > 10);
        for line in text.lines() {
            let event = WalEvent::from_jsonl(line).expect("fixture line parses");
            assert_eq!(event.to_jsonl(), line);
        }
    }

    rrs_core::props! {
        #[test]
        fn appended_bytes_equal_the_parent_renderer(seed in 0u64..u64::MAX) {
            use rrs_core::rng::{RrsRng, Xoshiro256pp};
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let events: Vec<WalEvent> = (0..rng.gen_range(1usize..20))
                .map(|_| {
                    if rng.gen_range(0u8..6) == 0 {
                        WalEvent::Epoch
                    } else {
                        WalEvent::Rating(crate::dto::tests::draw_submission(&mut rng))
                    }
                })
                .collect();
            let dir = tmp_dir(&format!("bytes-{seed}"));
            let mut wal = WalWriter::open(&dir, 0).expect("open");
            wal.append_batch(&events).expect("append");
            let expected: String = events
                .iter()
                .map(|e| crate::dto::tests::oracle::event_to_jsonl(e) + "\n")
                .collect();
            let written = std::fs::read_to_string(dir.join(WAL_FILE)).expect("read back");
            std::fs::remove_dir_all(&dir).expect("cleanup");
            rrs_core::prop_assert_eq!(written, expected);
        }
    }

    /// What a failed append must leave: the acknowledged bytes, the
    /// acknowledged count, and a writer whose next append lands cleanly.
    fn assert_rolled_back(fault: impl FnOnce(&mut Faults), name: &str) {
        let dir = tmp_dir(name);
        let a = submission(r#"{"rater":1,"product":0,"day":0,"value":3}"#);
        let b = submission(r#"{"rater":2,"product":0,"day":0.5,"value":4}"#);
        let c = submission(r#"{"rater":3,"product":1,"day":1,"value":2.5}"#);
        let mut wal = WalWriter::open(&dir, 0).expect("open");
        wal.append_batch(&[WalEvent::Rating(a)]).expect("append");
        let acknowledged = std::fs::read(dir.join(WAL_FILE)).expect("read");

        FAULTS.with(|f| fault(&mut f.borrow_mut()));
        wal.append_batch(&[WalEvent::Rating(b), WalEvent::Epoch, WalEvent::Rating(b)])
            .expect_err("the injected fault fails the append");
        assert_eq!(
            std::fs::read(dir.join(WAL_FILE)).expect("read"),
            acknowledged,
            "{name}: the failed batch must leave no bytes"
        );
        assert_eq!(wal.events(), 1);

        wal.append_batch(&[WalEvent::Rating(c)])
            .expect("the next append");
        assert_eq!(wal.events(), 2);
        let replay = read_wal(&dir).expect("the log still loads");
        assert!(!replay.torn_tail);
        assert_eq!(
            replay.events,
            vec![WalEvent::Rating(a), WalEvent::Rating(c)]
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_failed_write_is_cut_back_off_the_log() {
        // Nothing written, a torn first line, one whole line, and all
        // but the last byte.
        let line = WalEvent::Rating(submission(r#"{"rater":2,"product":0,"day":0.5,"value":4}"#))
            .to_jsonl()
            .len();
        for after in [0, 7, line + 1, 2 * line + 19] {
            assert_rolled_back(|f| f.write_after = Some(after), &format!("write-{after}"));
        }
    }

    #[test]
    fn a_failed_sync_is_cut_back_off_the_log() {
        assert_rolled_back(|f| f.sync = true, "sync");
    }

    #[test]
    fn a_log_that_cannot_be_cut_back_refuses_appends_until_reopened() {
        let dir = tmp_dir("unrecoverable");
        let a = submission(r#"{"rater":1,"product":0,"day":0,"value":3}"#);
        let mut wal = WalWriter::open(&dir, 0).expect("open");
        wal.append_batch(&[WalEvent::Rating(a)]).expect("append");
        FAULTS.with(|f| {
            let mut f = f.borrow_mut();
            f.write_after = Some(9);
            f.rollback = true;
        });
        wal.append_batch(&[WalEvent::Rating(a)])
            .expect_err("injected write fault");
        let torn = std::fs::read(dir.join(WAL_FILE)).expect("read");
        wal.append_batch(&[WalEvent::Epoch])
            .expect_err("a log with an unknown tail takes no appends");
        assert_eq!(wal.events(), 1);
        assert_eq!(std::fs::read(dir.join(WAL_FILE)).expect("read"), torn);

        // Reopening is recovery's job: it cuts the torn tail and the
        // new writer appends again.
        drop(wal);
        let replay = read_wal(&dir).expect("replay");
        assert!(replay.torn_tail);
        truncate_wal(&dir, replay.complete_len).expect("truncate");
        let mut wal = WalWriter::open(&dir, 1).expect("reopen");
        wal.append_batch(&[WalEvent::Epoch])
            .expect("append after reopen");
        let replay = read_wal(&dir).expect("replay");
        assert_eq!(replay.events, vec![WalEvent::Rating(a), WalEvent::Epoch]);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
