//! JSONL / JSON export of decision traces, in the same hand-rolled
//! style as `rrs_core::io` so traces land next to `results/` without a
//! serialization dependency.

use crate::decision::DecisionRecord;
use std::io::Write;

/// Writes records as JSONL: one [`DecisionRecord::to_json`] object per
/// line.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_jsonl<W: Write>(records: &[DecisionRecord], mut writer: W) -> std::io::Result<()> {
    for r in records {
        writeln!(writer, "{}", r.to_json())?;
    }
    Ok(())
}

/// Writes records to `path` as JSONL.
///
/// # Errors
///
/// Propagates filesystem errors, including those of the final flush.
pub fn write_trace_file(path: &std::path::Path, records: &[DecisionRecord]) -> std::io::Result<()> {
    let mut writer = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_jsonl(records, &mut writer)?;
    // Dropping a `BufWriter` would discard this write's error.
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::DetectorVerdict;

    fn tiny(product: u64) -> DecisionRecord {
        DecisionRecord {
            product,
            start_day: 0.0,
            end_day: 30.0,
            detectors: vec![DetectorVerdict {
                name: "mc",
                statistic: 0.1,
                threshold: 0.8,
                fired: false,
            }],
            paths: Vec::new(),
            suspicious: Vec::new(),
            trust: Vec::new(),
        }
    }

    fn jsonl(records: &[DecisionRecord]) -> String {
        let mut buf = Vec::new();
        write_jsonl(records, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn jsonl_is_one_record_per_line() {
        let s = jsonl(&[tiny(0), tiny(1)]);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"product\":0,"));
        assert!(lines[1].starts_with("{\"product\":1,"));
        assert!(lines.iter().all(|l| l.ends_with('}')));
    }

    #[test]
    fn empty_trace_exports_cleanly() {
        assert_eq!(jsonl(&[]), "");
    }

    #[test]
    fn trace_file_round_trips_through_disk() {
        let path =
            std::env::temp_dir().join(format!("rrs_obs_export_{}.jsonl", std::process::id()));
        write_trace_file(&path, &[tiny(7)]).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(read, jsonl(&[tiny(7)]));
    }

    #[test]
    fn a_failed_final_write_is_reported() {
        // The record fits in the buffer, so only the final flush reaches
        // the device, and every write to /dev/full fails.
        let full = std::path::Path::new("/dev/full");
        if full.exists() {
            assert!(write_trace_file(full, &[tiny(7)]).is_err());
        }
    }
}
