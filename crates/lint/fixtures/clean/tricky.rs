//! Negative control: every apparent trigger below is inert — the
//! lexer must see through comments, literals, and `#[cfg(test)]`.

/* A block comment full of bait: println!("x"), HashMap::new(),
   std::time::Instant::now(), thread_rng(), x == 0.0, and even an
   "unclosed string, plus .unwrap() and panic!("no"). */

/// Doc prose bait: `HashMap`, `println!`, `x == 1.0`, `.unwrap()`.
pub fn label<'a>(name: &'a str) -> &'a str {
    // Strings are data, not calls; quotes in comments don't "open".
    let bait = "Instant SystemTime HashMap thread_rng println! dbg!";
    let raw = r#"x == 0.0 && a.partial_cmp(b).unwrap() // panic!("")"#;
    let hashes = r##"raw with "# inside" stays one literal"##;
    let bytes = b"byte strings scrub too: eprintln!(\"x\")";
    let quote = '"';
    let escaped = '\'';
    let _ = (bait, raw, hashes, bytes, quote, escaped);
    name
}

pub fn compare(a: f64, b: f64) -> bool {
    // Comparing two variables (no literal) is allowed.
    a.total_cmp(&b).is_eq()
}

// Metric-name bait: the call in the comment is inert —
// counter_add("not.code", 1) — and a well-formed constant passes.
pub const METRIC_GOOD: &str = "stage.detail";
pub fn metric(sketch: &mut Sketch, events: u64) {
    // Constant-named registrations and non-name observes are clean.
    counter_add(METRIC_GOOD, events);
    sketch.observe(0.25);
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn test_code_is_exempt() {
        let started = std::time::Instant::now();
        let table: HashMap<u8, u8> = HashMap::new();
        println!("{:?} {:?}", started.elapsed(), table);
        assert!(0.0 == 0.0_f64);
        let xs = [1.0, 2.0];
        let _ = xs
            .iter()
            .copied()
            .max_by(|a, b| a.partial_cmp(b).unwrap());
        Some(1).unwrap();
        panic!("tests may panic");
    }
}

// A `METRIC_*` constant that is not a `&str` names no metric.
const METRIC_CALLS: &[&str] = &["counter_add", "gauge_set"];
