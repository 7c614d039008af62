//! The correctness gate: served state against the in-process replay,
//! field by field, floats bit for bit.

use rrs_core::io::{jsonl_field, parse_jsonl_object, JsonScalar};
use rrs_serve::{SuspiciousRating, TrustView};

fn parse_lines(status: u16, body: &[u8]) -> Result<Vec<Vec<(String, JsonScalar)>>, String> {
    if status != 200 {
        return Err(format!("answered {status}"));
    }
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    text.lines().map(parse_jsonl_object).collect()
}

fn field_u64(fields: &[(String, JsonScalar)], name: &str) -> Result<u64, String> {
    jsonl_field(fields, name)
        .and_then(JsonScalar::as_u64)
        .ok_or_else(|| format!("field {name:?} missing or not an integer"))
}

fn field_bits(fields: &[(String, JsonScalar)], name: &str) -> Result<u64, String> {
    jsonl_field(fields, name)
        .and_then(JsonScalar::as_f64)
        .map(f64::to_bits)
        .ok_or_else(|| format!("field {name:?} missing or not a number"))
}

/// Served `/trust` against the replay, field by field, floats bit for bit.
pub fn check_trust(status: u16, body: &[u8], expected: &[TrustView]) -> Result<(), String> {
    let lines = parse_lines(status, body)?;
    if lines.len() != expected.len() {
        return Err(format!(
            "{} rows served, {} expected",
            lines.len(),
            expected.len()
        ));
    }
    for (fields, v) in lines.iter().zip(expected) {
        let served = (
            field_u64(fields, "rater")?,
            field_bits(fields, "trust")?,
            field_bits(fields, "successes")?,
            field_bits(fields, "failures")?,
        );
        let want = (
            u64::from(v.rater.value()),
            v.trust.to_bits(),
            v.successes.to_bits(),
            v.failures.to_bits(),
        );
        if fields.len() != 4 || served != want {
            return Err(format!(
                "rater {} differs: served {fields:?}",
                v.rater.value()
            ));
        }
    }
    Ok(())
}

/// Served `/suspicious` against the replay, field by field.
pub fn check_suspicious(
    status: u16,
    body: &[u8],
    expected: &[SuspiciousRating],
) -> Result<(), String> {
    let lines = parse_lines(status, body)?;
    if lines.len() != expected.len() {
        return Err(format!(
            "{} rows served, {} expected",
            lines.len(),
            expected.len()
        ));
    }
    for (fields, s) in lines.iter().zip(expected) {
        let served = (
            field_u64(fields, "id")?,
            field_u64(fields, "rater")?,
            field_u64(fields, "product")?,
            field_bits(fields, "day")?,
            field_bits(fields, "value")?,
        );
        let want = (
            s.id.value(),
            u64::from(s.rater.value()),
            u64::from(s.product.value()),
            s.day.as_days().to_bits(),
            s.value.to_bits(),
        );
        if fields.len() != 5 || served != want {
            return Err(format!(
                "rating {} differs: served {fields:?}",
                s.id.value()
            ));
        }
    }
    Ok(())
}
