//! Atomic checkpoint/restore of the engine's derived state.
//!
//! A checkpoint captures everything the engine computed *from* the WAL
//! — the trust table, the current suspicion set, the online detector
//! state, and how many WAL events that state reflects — so recovery
//! replays only the WAL suffix instead of re-running every epoch from
//! the beginning of time. The dataset itself is never checkpointed: it
//! is always rebuilt from the full WAL, which keeps rating-id
//! assignment (insertion order) trivially identical to the original
//! run.
//!
//! Fidelity is bit-level. Every `f64` is stored as its
//! [`f64::to_bits`] pattern; arrays of bit patterns are hex-encoded in
//! fixed-width columns (16 nibbles per `u64`, 8 per `u32`) because the
//! flat-JSONL dialect the workspace shares has scalar fields only.
//! A restored engine's next epoch is byte-identical to the epoch an
//! uninterrupted engine would have run — the crash-replay suite holds
//! that equality at multiple thread counts.
//!
//! Writes are atomic: the record stream goes to a temp file, is
//! fsynced, renamed over the live checkpoint, and the directory is
//! fsynced — a crash mid-checkpoint leaves the previous checkpoint
//! intact, never a half-written one. A trailing `{"record":"end"}`
//! line guards the read side against truncation anyway.

use rrs_core::io::{jsonl_field, parse_jsonl_object, JsonScalar};
use rrs_core::ProductId;
use rrs_detectors::{
    ArcBandSnapshot, CurveCursorSnapshot, CurvePointSnapshot, OnlineSnapshot, ProductSnapshot,
};
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
    /// The online detector state.
    pub online: OnlineSnapshot,
}

/// Serializes `u64` values as fixed-width hex columns.
fn hex_u64s(values: impl IntoIterator<Item = u64>) -> String {
    let mut out = String::new();
    for v in values {
        out.push_str(&format!("{v:016x}"));
    }
    out
}

/// Serializes `u32` values as fixed-width hex columns.
fn hex_u32s(values: &[u32]) -> String {
    let mut out = String::new();
    for v in values {
        out.push_str(&format!("{v:08x}"));
    }
    out
}

fn parse_hex_column(s: &str, width: usize, what: &str) -> Result<Vec<u64>, String> {
    if !s.len().is_multiple_of(width) {
        return Err(format!(
            "{what}: length {} is not a multiple of {width}",
            s.len()
        ));
    }
    s.as_bytes()
        .chunks(width)
        .map(|chunk| {
            let text = std::str::from_utf8(chunk).map_err(|_| format!("{what}: non-ASCII"))?;
            u64::from_str_radix(text, 16).map_err(|e| format!("{what}: bad hex {text:?}: {e}"))
        })
        .collect()
}

fn parse_hex_u64s(s: &str, what: &str) -> Result<Vec<u64>, String> {
    parse_hex_column(s, 16, what)
}

fn parse_hex_u32s(s: &str, what: &str) -> Result<Vec<u32>, String> {
    parse_hex_column(s, 8, what).map(|v| v.into_iter().map(|x| x as u32).collect())
}

fn cursor_points_hex(cursor: &CurveCursorSnapshot) -> String {
    hex_u64s(
        cursor
            .settled
            .iter()
            .flat_map(|p| [p.index, p.time_bits, p.value_bits]),
    )
}

fn cursor_record(product: ProductId, which: &str, cursor: &CurveCursorSnapshot) -> String {
    format!(
        "{{\"record\":\"cursor\",\"product\":{},\"which\":\"{which}\",\"scan_from\":{},\"settled\":\"{}\"}}",
        product.value(),
        cursor.scan_from,
        cursor_points_hex(cursor),
    )
}

fn band_record(product: ProductId, which: &str, band: &ArcBandSnapshot) -> String {
    format!(
        "{{\"record\":\"band\",\"product\":{},\"which\":\"{which}\",\"absorbed\":{},\"median_bits\":{},\"counts\":\"{}\"}}",
        product.value(),
        band.absorbed,
        match band.median_bits {
            Some(bits) => bits.to_string(),
            None => "null".to_string(),
        },
        hex_u32s(&band.counts),
    )
}

impl Checkpoint {
    /// Renders the checkpoint as its JSONL record stream.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
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
        for p in &self.online.products {
            lines.push(format!(
                "{{\"record\":\"product\",\"product\":{},\"start_bits\":{},\"end_bits\":{},\"values\":\"{}\",\"times\":\"{}\"}}",
                p.product.value(),
                p.start_bits,
                p.end_bits,
                hex_u64s(p.values_bits.iter().copied()),
                hex_u64s(p.times_bits.iter().copied()),
            ));
            lines.push(cursor_record(p.product, "mc", &p.mc));
            lines.push(band_record(p.product, "harc", &p.harc));
            lines.push(cursor_record(p.product, "harc", &p.harc.cursor));
            lines.push(band_record(p.product, "larc", &p.larc));
            lines.push(cursor_record(p.product, "larc", &p.larc.cursor));
            lines.push(cursor_record(p.product, "hc", &p.hc));
            lines.push(cursor_record(p.product, "me", &p.me));
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
    /// here is corrupt and recovery must refuse rather than guess.
    ///
    /// # Errors
    ///
    /// Returns `(line_number, message)` (1-based).
    pub fn from_jsonl(text: &str) -> Result<Checkpoint, (usize, String)> {
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
        let mut products = Vec::new();
        while reader.peek_kind() == Some("product") {
            products.push(read_product(&mut reader)?);
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
            online: OnlineSnapshot { products },
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

    fn opt_u64_field(&self, name: &str) -> Result<Option<u64>, (usize, String)> {
        match jsonl_field(&self.fields, name) {
            Some(JsonScalar::Null) => Ok(None),
            Some(scalar) => scalar
                .as_u64()
                .map(Some)
                .ok_or_else(|| self.err(format!("field {name:?} must be a u64 or null"))),
            None => Err(self.err(format!("missing field {name:?}"))),
        }
    }

    fn text_field(&self, name: &str) -> Result<&str, (usize, String)> {
        match jsonl_field(&self.fields, name) {
            Some(scalar) => scalar
                .as_text()
                .ok_or_else(|| self.err(format!("field {name:?} must be a string"))),
            None => Err(self.err(format!("missing field {name:?}"))),
        }
    }

    fn hex_u64s_field(&self, name: &str) -> Result<Vec<u64>, (usize, String)> {
        parse_hex_u64s(self.text_field(name)?, name).map_err(|e| self.err(e))
    }
}

/// Sequential reader over the record stream.
struct RecordReader<'a> {
    lines: Vec<&'a str>,
    at: usize,
}

impl RecordReader<'_> {
    fn peek_kind(&self) -> Option<&'static str> {
        let line = self.lines.get(self.at)?;
        for kind in [
            "checkpoint",
            "trust",
            "mark",
            "product",
            "cursor",
            "band",
            "end",
        ] {
            if line.starts_with(&format!("{{\"record\":\"{kind}\","))
                || *line == format!("{{\"record\":\"{kind}\"}}")
            {
                return Some(kind);
            }
        }
        None
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

fn read_cursor(
    reader: &mut RecordReader<'_>,
    product: u64,
    which: &str,
) -> Result<CurveCursorSnapshot, (usize, String)> {
    let r = reader.next_record("cursor")?;
    if r.u64_field("product")? != product {
        return Err(r.err("cursor record for the wrong product".to_string()));
    }
    if r.text_field("which")? != which {
        return Err(r.err(format!("expected cursor {which:?}")));
    }
    let scan_from = r.u64_field("scan_from")?;
    let flat = r.hex_u64s_field("settled")?;
    if flat.len() % 3 != 0 {
        return Err(r.err("settled points must come in (index, time, value) triples".to_string()));
    }
    let settled = flat
        .chunks(3)
        .map(|c| CurvePointSnapshot {
            index: c[0],
            time_bits: c[1],
            value_bits: c[2],
        })
        .collect();
    Ok(CurveCursorSnapshot { settled, scan_from })
}

fn read_band(
    reader: &mut RecordReader<'_>,
    product: u64,
    which: &str,
) -> Result<ArcBandSnapshot, (usize, String)> {
    let r = reader.next_record("band")?;
    if r.u64_field("product")? != product {
        return Err(r.err("band record for the wrong product".to_string()));
    }
    if r.text_field("which")? != which {
        return Err(r.err(format!("expected band {which:?}")));
    }
    let absorbed = r.u64_field("absorbed")?;
    let median_bits = r.opt_u64_field("median_bits")?;
    let counts = parse_hex_u32s(r.text_field("counts")?, "counts").map_err(|e| r.err(e))?;
    let cursor = read_cursor(reader, product, which)?;
    Ok(ArcBandSnapshot {
        counts,
        absorbed,
        median_bits,
        cursor,
    })
}

fn read_product(reader: &mut RecordReader<'_>) -> Result<ProductSnapshot, (usize, String)> {
    let r = reader.next_record("product")?;
    let product_raw = r.u64_field("product")?;
    if product_raw > u64::from(u16::MAX) {
        return Err(r.err(format!("product {product_raw} exceeds the id range")));
    }
    let product = ProductId::new(product_raw as u16);
    let start_bits = r.u64_field("start_bits")?;
    let end_bits = r.u64_field("end_bits")?;
    let values_bits = r.hex_u64s_field("values")?;
    let times_bits = r.hex_u64s_field("times")?;
    if values_bits.len() != times_bits.len() {
        return Err(r.err(format!(
            "values ({}) and times ({}) lengths differ",
            values_bits.len(),
            times_bits.len()
        )));
    }
    let mc = read_cursor(reader, product_raw, "mc")?;
    let harc = read_band(reader, product_raw, "harc")?;
    let larc = read_band(reader, product_raw, "larc")?;
    let hc = read_cursor(reader, product_raw, "hc")?;
    let me = read_cursor(reader, product_raw, "me")?;
    Ok(ProductSnapshot {
        product,
        values_bits,
        times_bits,
        start_bits,
        end_bits,
        mc,
        harc,
        larc,
        hc,
        me,
    })
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
        let cursor = |n: u64| CurveCursorSnapshot {
            settled: (0..n)
                .map(|i| CurvePointSnapshot {
                    index: i,
                    time_bits: (i as f64 * 0.5).to_bits(),
                    value_bits: (3.0 + i as f64).to_bits(),
                })
                .collect(),
            scan_from: n,
        };
        let band = |n: u64| ArcBandSnapshot {
            counts: vec![1, 0, 4, 2],
            absorbed: n,
            median_bits: if n.is_multiple_of(2) {
                Some(2.5f64.to_bits())
            } else {
                None
            },
            cursor: cursor(n),
        };
        Checkpoint {
            epochs: 3,
            wal_events: 17,
            trust: vec![
                (1, 4.0f64.to_bits(), 1.0f64.to_bits()),
                (9, 0.25f64.to_bits(), 7.75f64.to_bits()),
            ],
            marks: vec![2, 5, 11],
            online: OnlineSnapshot {
                products: vec![
                    ProductSnapshot {
                        product: ProductId::new(0),
                        values_bits: vec![3.5f64.to_bits(), 4.0f64.to_bits()],
                        times_bits: vec![0.0f64.to_bits(), 1.5f64.to_bits()],
                        start_bits: 0.0f64.to_bits(),
                        end_bits: 30.0f64.to_bits(),
                        mc: cursor(2),
                        harc: band(2),
                        larc: band(1),
                        hc: cursor(0),
                        me: cursor(2),
                    },
                    ProductSnapshot {
                        product: ProductId::new(7),
                        values_bits: vec![],
                        times_bits: vec![],
                        start_bits: 0.0f64.to_bits(),
                        end_bits: 30.0f64.to_bits(),
                        mc: cursor(0),
                        harc: band(0),
                        larc: band(0),
                        hc: cursor(0),
                        me: cursor(0),
                    },
                ],
            },
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
            online: OnlineSnapshot { products: vec![] },
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
}
