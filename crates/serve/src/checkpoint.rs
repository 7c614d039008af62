//! Atomic checkpoint/restore of what the WAL cannot rebuild.
//!
//! The P-scheme carries two things from one epoch to the next: each
//! rater's beta record (Procedure 1) and the suspicion set. A checkpoint
//! stores those, plus the epoch count and how many WAL events they
//! reflect, so recovery replays only the epochs of the WAL suffix
//! instead of re-running every epoch from the beginning of time.
//! Nothing else is stored:
//!
//! * The dataset is rebuilt from the full WAL, which keeps rating-id
//!   assignment (insertion order) trivially identical to the original
//!   run.
//! * The online detector state is a cache over that dataset. The first
//!   epoch after a restart rebuilds it in one full pass and detects
//!   exactly what the uninterrupted engine detects.
//!
//! Fidelity is bit-level: every trust count is stored as its
//! [`f64::to_bits`] pattern, so a restored engine's next epoch is
//! byte-identical to the epoch an uninterrupted engine would have run.
//! The crash-replay suite holds that equality at multiple thread counts.
//!
//! Writes are atomic: the record stream goes to a temp file, is
//! fsynced, renamed over the live checkpoint, and the directory is
//! fsynced — a crash mid-checkpoint leaves the previous checkpoint
//! intact, never a half-written one. A trailing `{"record":"end"}`
//! line, which counts the lines before it, guards the read side against
//! truncation anyway.
//!
//! Earlier writers also stored the detector cache, as `product`,
//! `cursor` and `band` records between the marks and the sentinel. The
//! format version is unchanged: the reader skips those records without
//! parsing them, so a directory written either way opens under both.

use rrs_core::io::{jsonl_field, parse_jsonl_object, JsonScalar};
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// The checkpoint file name inside a serving directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.jsonl";
/// The in-flight temp name the atomic rename publishes from.
const CHECKPOINT_TMP: &str = "checkpoint.jsonl.tmp";
/// Format version stamped in the header record.
pub const CHECKPOINT_VERSION: u64 = 1;

/// A loaded (or about-to-be-written) checkpoint. The default is the
/// state before any event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// Completed epochs at checkpoint time.
    pub epochs: u64,
    /// WAL events already reflected in this state; replay skips the
    /// epoch events among the first `wal_events` entries.
    pub wal_events: u64,
    /// Trust records as `(rater, successes_bits, failures_bits)`,
    /// sorted by rater.
    pub trust: Vec<(u32, u64, u64)>,
    /// The current suspicion set, as raw rating-id values.
    pub marks: Vec<u64>,
}

impl Checkpoint {
    /// Renders the checkpoint as its JSONL record stream.
    fn to_jsonl(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        lines.push(format!(
            "{{\"record\":\"checkpoint\",\"version\":{CHECKPOINT_VERSION},\"epochs\":{},\"wal_events\":{}}}",
            self.epochs, self.wal_events,
        ));
        for &(rater, s_bits, f_bits) in &self.trust {
            lines.push(format!(
                "{{\"record\":\"trust\",\"rater\":{rater},\"s_bits\":{s_bits},\"f_bits\":{f_bits}}}"
            ));
        }
        for &id in &self.marks {
            lines.push(format!("{{\"record\":\"mark\",\"id\":{id}}}"));
        }
        lines.push(format!("{{\"record\":\"end\",\"lines\":{}}}", lines.len()));
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }

    /// Parses a checkpoint record stream.
    ///
    /// Strict: records must arrive in write order, the `end` sentinel
    /// must match, and every field must parse — a checkpoint that fails
    /// here is corrupt and recovery must refuse rather than guess. The
    /// only records not parsed are an earlier writer's detector cache
    /// records, skipped between the marks and the sentinel.
    ///
    /// Errors are `(line_number, message)` (1-based).
    fn from_jsonl(text: &str) -> Result<Checkpoint, (usize, String)> {
        let mut reader = RecordReader {
            lines: text.lines().collect(),
            at: 0,
        };
        let header = reader.next_record("checkpoint")?;
        let version = header.u64_field("version")?;
        if version != CHECKPOINT_VERSION {
            return Err(header.err(format!(
                "unsupported checkpoint version {version} (supported: {CHECKPOINT_VERSION})"
            )));
        }
        let epochs = header.u64_field("epochs")?;
        let wal_events = header.u64_field("wal_events")?;

        let mut trust = Vec::new();
        while reader.peek_kind() == Some("trust") {
            let r = reader.next_record("trust")?;
            let rater = r.u64_field("rater")?;
            if rater > u64::from(u32::MAX) {
                return Err(r.err(format!("rater {rater} exceeds the id range")));
            }
            trust.push((rater as u32, r.u64_field("s_bits")?, r.u64_field("f_bits")?));
        }
        let mut marks = Vec::new();
        while reader.peek_kind() == Some("mark") {
            let r = reader.next_record("mark")?;
            marks.push(r.u64_field("id")?);
        }
        // An earlier writer's detector cache records: skipped unparsed.
        while matches!(reader.peek_kind(), Some("product" | "cursor" | "band")) {
            reader.at += 1;
        }
        let end = reader.next_record("end")?;
        let expected = end.u64_field("lines")?;
        let actual = reader.at as u64 - 1;
        if expected != actual {
            return Err(end.err(format!(
                "end sentinel claims {expected} lines, stream has {actual}"
            )));
        }
        if reader.at != reader.lines.len() {
            return Err((
                reader.at + 1,
                "trailing data after end sentinel".to_string(),
            ));
        }
        Ok(Checkpoint {
            epochs,
            wal_events,
            trust,
            marks,
        })
    }
}

/// One parsed record plus its provenance for error messages.
struct Record {
    line_no: usize,
    fields: Vec<(String, JsonScalar)>,
}

impl Record {
    fn err(&self, message: String) -> (usize, String) {
        (self.line_no, message)
    }

    fn u64_field(&self, name: &str) -> Result<u64, (usize, String)> {
        match jsonl_field(&self.fields, name) {
            Some(scalar) => scalar
                .as_u64()
                .ok_or_else(|| self.err(format!("field {name:?} must be a u64 integer"))),
            None => Err(self.err(format!("missing field {name:?}"))),
        }
    }
}

/// Sequential reader over the record stream.
struct RecordReader<'a> {
    lines: Vec<&'a str>,
    at: usize,
}

impl<'a> RecordReader<'a> {
    /// The kind of the next record, read off its leading `record` field
    /// without parsing the line.
    fn peek_kind(&self) -> Option<&'a str> {
        let rest = self.lines.get(self.at)?.strip_prefix("{\"record\":\"")?;
        rest.split('"').next()
    }

    fn next_record(&mut self, expect: &str) -> Result<Record, (usize, String)> {
        let line_no = self.at + 1;
        let Some(line) = self.lines.get(self.at) else {
            return Err((
                line_no,
                format!("expected a {expect:?} record, found end of file"),
            ));
        };
        let fields = parse_jsonl_object(line).map_err(|e| (line_no, e))?;
        let kind = jsonl_field(&fields, "record")
            .and_then(JsonScalar::as_text)
            .map(str::to_string)
            .ok_or_else(|| (line_no, "missing field \"record\"".to_string()))?;
        if kind != expect {
            return Err((
                line_no,
                format!("expected a {expect:?} record, found {kind:?}"),
            ));
        }
        self.at += 1;
        Ok(Record { line_no, fields })
    }
}

/// Writes the checkpoint atomically into `dir`.
///
/// # Errors
///
/// Propagates filesystem errors; on error the previous checkpoint (if
/// any) is untouched.
pub fn write_checkpoint(dir: &Path, checkpoint: &Checkpoint) -> std::io::Result<()> {
    let tmp = dir.join(CHECKPOINT_TMP);
    let live = dir.join(CHECKPOINT_FILE);
    let mut file = File::create(&tmp)?;
    file.write_all(checkpoint.to_jsonl().as_bytes())?;
    file.sync_data()?;
    drop(file);
    std::fs::rename(&tmp, &live)?;
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Loads the checkpoint from `dir`, or `None` for a fresh directory.
///
/// # Errors
///
/// Propagates filesystem errors; corruption surfaces as
/// [`std::io::ErrorKind::InvalidData`].
pub fn read_checkpoint(dir: &Path) -> std::io::Result<Option<Checkpoint>> {
    let path = dir.join(CHECKPOINT_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    Checkpoint::from_jsonl(&text)
        .map(Some)
        .map_err(|(line, e)| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("corrupt checkpoint {}:{line}: {e}", path.display()),
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            epochs: 3,
            wal_events: 17,
            trust: vec![
                (1, 4.0f64.to_bits(), 1.0f64.to_bits()),
                (9, 0.25f64.to_bits(), 7.75f64.to_bits()),
            ],
            marks: vec![2, 5, 11],
        }
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let ckpt = sample();
        let text = ckpt.to_jsonl();
        let back = Checkpoint::from_jsonl(&text).expect("round trip");
        assert_eq!(ckpt, back);
        // And the serialization itself is stable.
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let ckpt = Checkpoint {
            epochs: 0,
            wal_events: 0,
            trust: vec![],
            marks: vec![],
        };
        let back = Checkpoint::from_jsonl(&ckpt.to_jsonl()).expect("round trip");
        assert_eq!(ckpt, back);
    }

    #[test]
    fn file_round_trip_is_atomic_and_exact() {
        let dir = std::env::temp_dir().join(format!("rrs-ckpt-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clean scratch dir");
        }
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        assert!(read_checkpoint(&dir).expect("fresh dir").is_none());
        let ckpt = sample();
        write_checkpoint(&dir, &ckpt).expect("write");
        assert!(
            !dir.join(CHECKPOINT_TMP).exists(),
            "tmp file must not linger"
        );
        let back = read_checkpoint(&dir).expect("read").expect("present");
        assert_eq!(ckpt, back);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn truncation_is_detected() {
        let text = sample().to_jsonl();
        // Drop the end sentinel.
        let cut = text.lines().count() - 1;
        let truncated: String = text.lines().take(cut).map(|l| format!("{l}\n")).collect();
        assert!(Checkpoint::from_jsonl(&truncated).is_err());
        // Drop a mid-stream record too.
        let holed: String = text
            .lines()
            .enumerate()
            .filter(|(i, _)| *i != 3)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        assert!(Checkpoint::from_jsonl(&holed).is_err());
    }

    #[test]
    fn version_and_garbage_are_rejected() {
        let mut text = sample().to_jsonl();
        text = text.replacen("\"version\":1", "\"version\":2", 1);
        assert!(Checkpoint::from_jsonl(&text).is_err());
        assert!(Checkpoint::from_jsonl("not json\n").is_err());
        let (_, message) =
            Checkpoint::from_jsonl("{\"record\":\"trust\",\"rater\":1}\n").expect_err("order");
        assert!(message.contains("checkpoint"), "got {message}");
    }

    #[test]
    fn earlier_detector_cache_records_are_skipped() {
        // Earlier writers put the detector cache between the marks and
        // the sentinel, which counts its lines too.
        let ckpt = sample();
        let mut lines: Vec<String> = ckpt.to_jsonl().lines().map(str::to_string).collect();
        lines.pop();
        for line in [
            "{\"record\":\"product\",\"product\":0,\"start_bits\":0,\"end_bits\":4629137466983448576,\"values\":\"400c000000000000\",\"times\":\"0000000000000000\"}",
            "{\"record\":\"cursor\",\"product\":0,\"which\":\"mc\",\"scan_from\":0,\"settled\":\"\"}",
            "{\"record\":\"band\",\"product\":0,\"which\":\"harc\",\"absorbed\":1,\"median_bits\":null,\"counts\":\"00000001\"}",
        ] {
            lines.push(line.to_string());
        }
        let stream = |lines: &[String], count: usize| {
            format!(
                "{}\n{{\"record\":\"end\",\"lines\":{count}}}\n",
                lines.join("\n")
            )
        };
        assert_eq!(
            Checkpoint::from_jsonl(&stream(&lines, lines.len())),
            Ok(ckpt)
        );
        assert!(Checkpoint::from_jsonl(&stream(&lines, lines.len() - 3)).is_err());
        // Only between the marks and the sentinel.
        let product = lines.remove(lines.len() - 3);
        lines.insert(1, product);
        assert!(Checkpoint::from_jsonl(&stream(&lines, lines.len())).is_err());
    }
}
