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
    parse_day, parse_product_id, parse_rater_id, parse_value, push_json_number, scan_jsonl_fields,
    JsonToken,
};
use rrs_core::{ProductId, RaterId, Rating, RatingSource, RatingValue, Timestamp};
use std::borrow::Cow;
use std::fmt::Write;

/// Room for one rating line as the serving path writes them (60-115
/// bytes with the WAL's event tag), so rendering one allocates once; a
/// line with an extreme day, which `Display` spells out in full, grows
/// its buffer.
pub(crate) const LINE_CAPACITY: usize = 128;

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
        let mut line = String::with_capacity(LINE_CAPACITY);
        self.push_jsonl(&mut line, false);
        line
    }

    /// Appends the submission as one JSONL object, without a newline:
    /// the one place that lays out a rating line. `tagged` puts the WAL's
    /// `"event":"rating"` tag in front as the first field.
    pub(crate) fn push_jsonl(&self, buf: &mut String, tagged: bool) {
        buf.push_str(if tagged {
            "{\"event\":\"rating\",\"rater\":"
        } else {
            "{\"rater\":"
        });
        // Writing into a `String` cannot fail.
        let _ = write!(
            buf,
            "{},\"product\":{}",
            self.rater.value(),
            self.product.value()
        );
        buf.push_str(",\"day\":");
        push_json_number(buf, self.day.as_days());
        buf.push_str(",\"value\":");
        push_json_number(buf, self.value.get());
        buf.push_str(match self.source {
            RatingSource::Fair => ",\"source\":\"fair\"}",
            RatingSource::Unfair => ",\"source\":\"unfair\"}",
        });
    }
}

/// The keys of a submission line, in the order validation reads them.
const SUBMISSION_KEYS: [&str; 5] = ["rater", "product", "day", "value", "source"];

/// The raw numeric token of a field, rejecting strings/bools/null.
///
/// Numbers stay as their source tokens so the shared field parsers see
/// exactly what the client sent — `"rater": 7.9` must be rejected as a
/// fractional id, not silently rounded by an intermediate `f64`.
fn number_token<'a>(slot: &'a Option<JsonToken<'_>>, name: &str) -> Result<&'a str, String> {
    match slot {
        Some(JsonToken::Number(raw)) => Ok(raw),
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
    let slots = scan_jsonl_fields(line, SUBMISSION_KEYS)?;
    submission_from_slots(&slots.values, slots.unknown.as_ref())
}

/// Validates the slots of one scanned line as a submission: the one
/// check that both the HTTP door and WAL replay run. `slots` holds the
/// tokens of `rater`, `product`, `day`, `value` and `source`, in that
/// order; `unknown` is the line's first key outside the caller's line
/// format, which is an error.
///
/// # Errors
///
/// Returns a human-readable message naming the offending field.
pub(crate) fn submission_from_slots(
    [rater, product, day, value, source]: &[Option<JsonToken<'_>>; 5],
    unknown: Option<&Cow<'_, str>>,
) -> Result<RatingSubmission, String> {
    if let Some(key) = unknown {
        return Err(format!("unknown field {key:?}"));
    }
    let rater = parse_rater_id(number_token(rater, "rater")?)?;
    let product = parse_product_id(number_token(product, "product")?)?;
    let day = parse_day(number_token(day, "day")?)?;
    let value = parse_value(number_token(value, "value")?)?;
    let source = match source {
        None => RatingSource::Fair,
        Some(JsonToken::Text(s)) if s == "fair" => RatingSource::Fair,
        Some(JsonToken::Text(s)) if s == "unfair" => RatingSource::Unfair,
        Some(JsonToken::Text(s)) => {
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
    // A rating line runs to 60-90 bytes: sized for the batch once,
    // without counting its lines first.
    let mut out = Vec::with_capacity(body.len() / 64);
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

    /// The owned path the slot reader and the line writer replaced, kept
    /// as the oracle the properties hold them to. It reads through
    /// `parse_jsonl_object`, which `rrs_core::io`'s own property holds to
    /// the owned parser it replaced, so the chain reaches the code the
    /// serving path ran before.
    pub(crate) mod oracle {
        use super::super::RatingSubmission;
        use crate::wal::WalEvent;
        use rrs_core::io::{
            json_number, jsonl_field, parse_day, parse_jsonl_object, parse_product_id,
            parse_rater_id, parse_value, JsonScalar,
        };
        use rrs_core::RatingSource;

        pub(crate) fn submission_to_jsonl(s: &RatingSubmission) -> String {
            format!(
                "{{\"rater\":{},\"product\":{},\"day\":{},\"value\":{},\"source\":{}}}",
                s.rater.value(),
                s.product.value(),
                json_number(s.day.as_days()),
                json_number(s.value.get()),
                match s.source {
                    RatingSource::Fair => "\"fair\"",
                    RatingSource::Unfair => "\"unfair\"",
                },
            )
        }

        pub(crate) fn event_to_jsonl(event: &WalEvent) -> String {
            match event {
                WalEvent::Rating(s) => {
                    let body = submission_to_jsonl(s);
                    format!("{{\"event\":\"rating\",{}", &body[1..])
                }
                WalEvent::Epoch => "{\"event\":\"epoch\"}".to_string(),
            }
        }

        fn number_token<'a>(
            fields: &'a [(String, JsonScalar)],
            name: &str,
        ) -> Result<&'a str, String> {
            match jsonl_field(fields, name) {
                Some(JsonScalar::Number(raw)) => Ok(raw),
                Some(_) => Err(format!("field {name:?} must be a number")),
                None => Err(format!("missing field {name:?}")),
            }
        }

        fn submission_from_fields(
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

        pub(crate) fn parse_submission_body(
            body: &str,
        ) -> Result<Vec<RatingSubmission>, (usize, String)> {
            let mut out = Vec::new();
            for (idx, line) in body.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                let fields = parse_jsonl_object(line).map_err(|e| (idx + 1, e))?;
                let submission = submission_from_fields(&fields, None).map_err(|e| (idx + 1, e))?;
                out.push(submission);
            }
            Ok(out)
        }

        pub(crate) fn event_from_jsonl(line: &str) -> Result<WalEvent, String> {
            let fields = parse_jsonl_object(line)?;
            match jsonl_field(&fields, "event") {
                Some(JsonScalar::Text(kind)) if kind == "epoch" => {
                    if fields.len() != 1 {
                        return Err("epoch event carries no other fields".to_string());
                    }
                    Ok(WalEvent::Epoch)
                }
                Some(JsonScalar::Text(kind)) if kind == "rating" => {
                    submission_from_fields(&fields, Some("event")).map(WalEvent::Rating)
                }
                Some(JsonScalar::Text(kind)) => Err(format!("unknown event kind {kind:?}")),
                Some(_) => Err("field \"event\" must be a string".to_string()),
                None => Err("missing field \"event\"".to_string()),
            }
        }
    }

    use rrs_core::rng::{RrsRng, Xoshiro256pp};

    fn pick<'a>(rng: &mut Xoshiro256pp, items: &[&'a str]) -> &'a str {
        items[rng.gen_range(0..items.len())]
    }

    /// A random valid submission, ids and floats drawn across their
    /// whole ranges as well as the everyday ones.
    pub(crate) fn draw_submission(rng: &mut Xoshiro256pp) -> RatingSubmission {
        let day = match rng.gen_range(0u8..4) {
            0 => f64::from(rng.gen_range(0u32..400)),
            1 => rng.gen_range(0.0..400.0),
            2 => f64::from_bits(rng.gen_range(0u64..1 << 52)),
            _ => rng.gen_range(0.0..1.0) * 1e300,
        };
        let value = match rng.gen_range(0u8..3) {
            0 => f64::from(rng.gen_range(0u32..11)) * 0.5,
            1 => rng.gen_range(0.0..5.0),
            _ => 5.0,
        };
        RatingSubmission {
            rater: RaterId::new(match rng.gen_range(0u8..3) {
                0 => rng.gen_range(0u32..100),
                1 => u32::MAX,
                _ => rng.next_u64() as u32,
            }),
            product: ProductId::new(rng.next_u64() as u16),
            day: Timestamp::new(day).expect("finite day"),
            value: RatingValue::new(value).expect("on the scale"),
            source: if rng.gen_range(0u8..2) == 0 {
                RatingSource::Fair
            } else {
                RatingSource::Unfair
            },
        }
    }

    /// A float token that reads back as `x` exactly.
    fn float_token(rng: &mut Xoshiro256pp, x: f64) -> String {
        match rng.gen_range(0u8..3) {
            0 => rrs_core::io::json_number(x),
            1 => format!("{x:e}"),
            _ => format!("{x}"),
        }
    }

    /// `text` as a JSON string, now and then with a character escaped.
    fn quoted(rng: &mut Xoshiro256pp, text: &str) -> String {
        let mut out = String::from("\"");
        for c in text.chars() {
            if rng.gen_range(0u8..5) == 0 {
                out.push_str(&format!("\\u{:04x}", c as u32));
            } else {
                out.push(c);
            }
        }
        out.push('"');
        out
    }

    fn ws(rng: &mut Xoshiro256pp) -> &'static str {
        pick(rng, &["", "", "", " ", "\t", "  "])
    }

    /// A submission's line in random key order and spacing, with the
    /// WAL's `event` tag when `tag` is set, and with one of the faults
    /// the readers refuse (or, for a few, accept) now and then.
    fn draw_line(rng: &mut Xoshiro256pp, tag: bool) -> String {
        let s = draw_submission(rng);
        let mut fields: Vec<(String, String)> = vec![
            ("rater".into(), s.rater.value().to_string()),
            ("product".into(), s.product.value().to_string()),
            ("day".into(), float_token(rng, s.day.as_days())),
            ("value".into(), float_token(rng, s.value.get())),
        ];
        if s.source == RatingSource::Unfair || rng.gen_range(0u8..2) == 0 {
            let name = if s.source == RatingSource::Fair {
                "fair"
            } else {
                "unfair"
            };
            fields.push(("source".into(), quoted(rng, name)));
        }
        if tag {
            fields.push(("event".into(), quoted(rng, "rating")));
        }
        match rng.gen_range(0u8..24) {
            0 => {
                let (key, _) = fields[rng.gen_range(0..fields.len())].clone();
                fields.push((key, "1".into()));
            }
            1 => fields.push((pick(rng, &["note", "produt", "Rater"]).into(), "1".into())),
            2 => {
                fields.remove(rng.gen_range(0..fields.len()));
            }
            3 => {
                let kind = pick(rng, &["rating", "epoch"]);
                fields.push(("event".into(), quoted(rng, kind)));
            }
            4 | 5 => {
                let bad = pick(
                    rng,
                    &[
                        "7.9",
                        "-1",
                        "1e3",
                        "+1",
                        "4294967296",
                        "65536",
                        "-0",
                        "\"1\"",
                        "null",
                    ],
                );
                fields[rng.gen_range(0usize..2)].1 = bad.into();
            }
            6 => fields[2].1 = pick(rng, &["-0.5", "1e309", "-0", "NaN", "true"]).into(),
            7 => fields[3].1 = pick(rng, &["5.5", "-1", "5.0000000000000001", "\"4\""]).into(),
            8 => {
                let source = pick(rng, &["robot", "Fair", "fäir"]);
                fields.push(("source".into(), quoted(rng, source)));
            }
            _ => {}
        }
        for _ in 0..fields.len() {
            let (i, j) = (
                rng.gen_range(0..fields.len()),
                rng.gen_range(0..fields.len()),
            );
            fields.swap(i, j);
        }
        let mut line = format!("{}{{", ws(rng));
        for (i, (key, token)) in fields.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let key = quoted(rng, key);
            line.push_str(&format!(
                "{}{key}{}:{}{token}{}",
                ws(rng),
                ws(rng),
                ws(rng),
                ws(rng)
            ));
        }
        line.push('}');
        line.push_str(ws(rng));
        let mut at = rng.gen_range(0..=line.len());
        while !line.is_char_boundary(at) {
            at -= 1;
        }
        match rng.gen_range(0u8..16) {
            0 => line.truncate(at),
            1 => line.push_str(pick(rng, &["x", ",", "}", " {}"])),
            2 => line.insert_str(at, pick(rng, &["é", "日", "\u{7f}", "\u{1}"])),
            _ => {}
        }
        line
    }

    /// A submission's fields, its floats as bits.
    type Bits = (u32, u16, u64, u64, RatingSource);

    /// A submission's fields as bits, so `-0.0` and `0.0` differ.
    fn bits(s: &RatingSubmission) -> Bits {
        (
            s.rater.value(),
            s.product.value(),
            s.day.as_days().to_bits(),
            s.value.get().to_bits(),
            s.source,
        )
    }

    fn body_bits(
        verdict: Result<Vec<RatingSubmission>, (usize, String)>,
    ) -> Result<Vec<Bits>, (usize, String)> {
        verdict.map(|batch| batch.iter().map(bits).collect())
    }

    fn event_bits(verdict: Result<WalEvent, String>) -> Result<Option<Bits>, String> {
        verdict.map(|event| match event {
            WalEvent::Rating(s) => Some(bits(&s)),
            WalEvent::Epoch => None,
        })
    }

    use crate::wal::WalEvent;

    rrs_core::props! {
        #[test]
        fn bodies_get_the_owned_path_verdict_value_and_line(seed in 0u64..u64::MAX) {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let mut body = String::new();
            for _ in 0..rng.gen_range(1usize..6) {
                if rng.gen_range(0u8..4) == 0 {
                    body.push_str(pick(&mut rng, &["", "  ", "\t"]));
                } else {
                    body.push_str(&draw_line(&mut rng, false));
                }
                body.push_str(pick(&mut rng, &["\n", "\n", "\r\n"]));
            }
            if rng.gen_range(0u8..2) == 0 {
                body.pop();
            }
            rrs_core::prop_assert_eq!(
                body_bits(parse_submission_body(&body)),
                body_bits(oracle::parse_submission_body(&body)),
                "body {:?}",
                body
            );
        }

        #[test]
        fn wal_lines_get_the_owned_path_verdict_and_value(seed in 0u64..u64::MAX) {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let line = if rng.gen_range(0u8..8) == 0 {
                let kind = pick(&mut rng, &["epoch", "compact", "rating"]);
                let tag = quoted(&mut rng, kind);
                let extra = pick(&mut rng, &["", ",\"rater\":1", ",\"event\":\"epoch\""]);
                format!("{{\"event\"{}:{tag}{extra}}}", ws(&mut rng))
            } else {
                let tagged = rng.gen_range(0u8..8) != 0;
                draw_line(&mut rng, tagged)
            };
            rrs_core::prop_assert_eq!(
                event_bits(WalEvent::from_jsonl(&line)),
                event_bits(oracle::event_from_jsonl(&line)),
                "line {:?}",
                line
            );
        }

        #[test]
        fn rating_lines_render_the_parent_bytes(seed in 0u64..u64::MAX) {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let s = draw_submission(&mut rng);
            rrs_core::prop_assert_eq!(s.to_jsonl(), oracle::submission_to_jsonl(&s));
            for event in [WalEvent::Rating(s), WalEvent::Epoch] {
                rrs_core::prop_assert_eq!(event.to_jsonl(), oracle::event_to_jsonl(&event));
                let mut buf = String::from("{\"event\":\"epoch\"}\n");
                event.push_jsonl(&mut buf);
                rrs_core::prop_assert_eq!(
                    buf,
                    format!("{{\"event\":\"epoch\"}}\n{}", oracle::event_to_jsonl(&event))
                );
            }
        }
    }
}
