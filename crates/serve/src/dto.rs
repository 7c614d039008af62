//! Validated request/response data transfer objects.
//!
//! Every field of an inbound submission goes through the same fixed
//! parsers the CSV ingest path uses ([`rrs_core::io::parse_rater_id`]
//! and friends), so the HTTP front door enforces exactly the id, day,
//! and value domains the rest of the system assumes — ids are plain
//! integers in range (never truncated or wrapped), days are finite and
//! non-negative, values pass [`rrs_core::RatingValue::new`] (never the
//! clamping constructor). A submission that parses here is safe to
//! append to the write-ahead log and replay forever after.

use rrs_core::io::{
    json_number, jsonl_field, parse_day, parse_jsonl_object, parse_product_id, parse_rater_id,
    parse_value, JsonScalar,
};
use rrs_core::{ProductId, RaterId, Rating, RatingSource, RatingValue, Timestamp};

/// One validated rating submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatingSubmission {
    /// Who rated.
    pub rater: RaterId,
    /// What they rated.
    pub product: ProductId,
    /// When, in days since the epoch of the run.
    pub day: Timestamp,
    /// The rating value on the paper's `[0, 5]` scale.
    pub value: RatingValue,
    /// Ground-truth provenance (defaults to fair; the challenge
    /// harness submits labeled unfair ratings for evaluation runs).
    pub source: RatingSource,
}

impl RatingSubmission {
    /// The submission as a [`Rating`] event.
    #[must_use]
    pub fn rating(&self) -> Rating {
        Rating::new(self.rater, self.product, self.day, self.value)
    }

    /// Serializes the submission as one WAL / response JSONL object.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"rater\":{},\"product\":{},\"day\":{},\"value\":{},\"source\":{}}}",
            self.rater.value(),
            self.product.value(),
            json_number(self.day.as_days()),
            json_number(self.value.get()),
            match self.source {
                RatingSource::Fair => "\"fair\"",
                RatingSource::Unfair => "\"unfair\"",
            },
        )
    }
}

/// The raw numeric token of a field, rejecting strings/bools/null.
///
/// Numbers stay as their source tokens so the shared field parsers see
/// exactly what the client sent — `"rater": 7.9` must be rejected as a
/// fractional id, not silently rounded by an intermediate `f64`.
fn number_token<'a>(fields: &'a [(String, JsonScalar)], name: &str) -> Result<&'a str, String> {
    match jsonl_field(fields, name) {
        Some(JsonScalar::Number(raw)) => Ok(raw),
        Some(_) => Err(format!("field {name:?} must be a number")),
        None => Err(format!("missing field {name:?}")),
    }
}

/// Parses one submission from a JSONL line.
///
/// Strict on purpose: unknown fields are rejected (a typo like
/// `"produt"` must not silently drop the intended field), and every
/// value goes through the shared ingest parsers.
///
/// # Errors
///
/// Returns a human-readable message naming the offending field.
pub fn parse_submission(line: &str) -> Result<RatingSubmission, String> {
    submission_from_fields(&parse_jsonl_object(line)?, None)
}

/// Validates the fields of one parsed JSONL object as a submission: the
/// one check that both the HTTP door and WAL replay run. `extra` names a
/// key the caller's line format adds beside the submission's own (the
/// WAL's `event` tag); it is accepted and ignored, and any other unknown
/// key is an error.
///
/// # Errors
///
/// Returns a human-readable message naming the offending field.
pub(crate) fn submission_from_fields(
    fields: &[(String, JsonScalar)],
    extra: Option<&str>,
) -> Result<RatingSubmission, String> {
    for (key, _) in fields {
        if !matches!(
            key.as_str(),
            "rater" | "product" | "day" | "value" | "source"
        ) && extra != Some(key.as_str())
        {
            return Err(format!("unknown field {key:?}"));
        }
    }
    let rater = parse_rater_id(number_token(fields, "rater")?)?;
    let product = parse_product_id(number_token(fields, "product")?)?;
    let day = parse_day(number_token(fields, "day")?)?;
    let value = parse_value(number_token(fields, "value")?)?;
    let source = match jsonl_field(fields, "source") {
        None => RatingSource::Fair,
        Some(JsonScalar::Text(s)) if s == "fair" => RatingSource::Fair,
        Some(JsonScalar::Text(s)) if s == "unfair" => RatingSource::Unfair,
        Some(JsonScalar::Text(s)) => {
            return Err(format!(
                "source must be \"fair\" or \"unfair\", found {s:?}"
            ))
        }
        Some(_) => return Err("field \"source\" must be a string".to_string()),
    };
    Ok(RatingSubmission {
        rater,
        product,
        day,
        value,
        source,
    })
}

/// Parses a `POST /ratings` body: one submission per line.
///
/// All-or-nothing — a batch with any bad line is rejected whole, so a
/// client never has to guess which prefix of its batch was accepted.
///
/// # Errors
///
/// Returns `(line_number, message)` for the first bad line (1-based).
pub fn parse_submission_body(body: &str) -> Result<Vec<RatingSubmission>, (usize, String)> {
    let mut out = Vec::new();
    for (idx, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let submission = parse_submission(line).map_err(|e| (idx + 1, e))?;
        out.push(submission);
    }
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Ids out of domain: the exact failure classes of the ingest
    /// bugfix, at the HTTP door.
    const BAD_IDS: [&str; 5] = [
        r#"{"rater":-1,"product":0,"day":0,"value":3}"#,
        r#"{"rater":7.9,"product":0,"day":0,"value":3}"#,
        r#"{"rater":4294968295,"product":0,"day":0,"value":3}"#,
        r#"{"rater":1,"product":65536,"day":0,"value":3}"#,
        r#"{"rater":1,"product":-2,"day":0,"value":3}"#,
    ];

    const BAD_DAYS_AND_VALUES: [&str; 3] = [
        r#"{"rater":1,"product":0,"day":-0.5,"value":3}"#,
        r#"{"rater":1,"product":0,"day":0,"value":5.5}"#,
        r#"{"rater":1,"product":0,"day":0,"value":-1}"#,
    ];

    const BAD_TYPES: [&str; 5] = [
        r#"{"rater":"1","product":0,"day":0,"value":3}"#,
        r#"{"rater":1,"product":null,"day":0,"value":3}"#,
        r#"{"rater":1,"product":0,"day":true,"value":3}"#,
        r#"{"rater":1,"product":0,"day":0,"value":3,"source":2}"#,
        r#"{"rater":1,"product":0,"day":0,"value":3,"source":"robot"}"#,
    ];

    /// A missing field, a typo'd field name, and an unknown field beside
    /// a complete submission: none may pass.
    const BAD_FIELDS: [&str; 3] = [
        r#"{"rater":1,"product":0,"day":0}"#,
        r#"{"rater":1,"produt":0,"day":0,"value":3}"#,
        r#"{"rater":1,"product":0,"day":0,"value":3,"note":"x"}"#,
    ];

    /// Every line these tests refuse; WAL replay must refuse them too.
    pub(crate) fn rejected() -> impl Iterator<Item = &'static str> {
        BAD_IDS
            .into_iter()
            .chain(BAD_DAYS_AND_VALUES)
            .chain(BAD_TYPES)
            .chain(BAD_FIELDS)
    }

    /// Lines the parser accepts, with and without each `source`.
    pub(crate) const ACCEPTED: [&str; 4] = [
        r#"{"rater":3,"product":1,"day":2.5,"value":4}"#,
        r#"{"rater":1,"product":0,"day":0,"value":5,"source":"unfair"}"#,
        r#"{"rater":1,"product":0,"day":0,"value":5,"source":"fair"}"#,
        r#"{"rater":7,"product":2,"day":1.25,"value":3.5}"#,
    ];

    #[test]
    fn minimal_submission_parses() {
        let s = parse_submission(ACCEPTED[0]).expect("valid submission");
        assert_eq!(s.rater, RaterId::new(3));
        assert_eq!(s.product, ProductId::new(1));
        assert_eq!(s.day.as_days(), 2.5);
        assert_eq!(s.value.get(), 4.0);
        assert_eq!(s.source, RatingSource::Fair);
    }

    #[test]
    fn explicit_source_parses() {
        let s = parse_submission(ACCEPTED[1]).expect("valid submission");
        assert_eq!(s.source, RatingSource::Unfair);
        let s = parse_submission(ACCEPTED[2]).expect("valid submission");
        assert_eq!(s.source, RatingSource::Fair);
    }

    #[test]
    fn id_domains_are_enforced_not_coerced() {
        for line in BAD_IDS {
            assert!(parse_submission(line).is_err(), "accepted {line}");
        }
    }

    #[test]
    fn day_and_value_domains_are_enforced() {
        for line in BAD_DAYS_AND_VALUES {
            assert!(parse_submission(line).is_err(), "accepted {line}");
        }
    }

    #[test]
    fn field_types_are_enforced() {
        for line in BAD_TYPES {
            assert!(parse_submission(line).is_err(), "accepted {line}");
        }
    }

    #[test]
    fn missing_and_unknown_fields_are_rejected() {
        for line in BAD_FIELDS {
            assert!(parse_submission(line).is_err(), "accepted {line}");
        }
    }

    #[test]
    fn to_jsonl_round_trips() {
        for line in ACCEPTED {
            let s = parse_submission(line).expect("valid submission");
            let back = parse_submission(&s.to_jsonl()).expect("round trip");
            assert_eq!(s, back);
        }
    }

    #[test]
    fn body_batches_are_all_or_nothing() {
        let good = "{\"rater\":1,\"product\":0,\"day\":0,\"value\":3}\n\
                    {\"rater\":2,\"product\":0,\"day\":0.5,\"value\":4}\n";
        assert_eq!(parse_submission_body(good).expect("valid batch").len(), 2);
        let with_blank = "\n{\"rater\":1,\"product\":0,\"day\":0,\"value\":3}\n\n";
        assert_eq!(
            parse_submission_body(with_blank)
                .expect("valid batch")
                .len(),
            1
        );
        let bad = "{\"rater\":1,\"product\":0,\"day\":0,\"value\":3}\n\
                   {\"rater\":-1,\"product\":0,\"day\":0,\"value\":3}\n";
        let (line_no, _) = parse_submission_body(bad).expect_err("bad batch");
        assert_eq!(line_no, 2);
    }
}
