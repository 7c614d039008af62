//! A minimal hand-rolled Rust lexer.
//!
//! The lint rules are substring checks, so the lexer's only job is to
//! make those checks *sound*: it blanks out everything that is not code
//! — line and (nested) block comments, string literals, raw strings
//! with any number of `#` hashes, byte strings, and character literals
//! — and it marks the line spans covered by `#[cfg(test)]` items so
//! budget counting can exclude test code. `unwrap` inside a string
//! literal or a comment must never count as a finding.
//!
//! The lexer is deliberately approximate where precision does not
//! matter for linting (it does not tokenize numbers or idents), but it
//! is exact about the three things that could cause false positives:
//! literal boundaries, comment boundaries, and lifetimes vs. char
//! literals.

/// A source file after scrubbing: same line structure as the input,
/// with non-code characters replaced by spaces.
#[derive(Debug)]
pub struct Scrubbed {
    /// Scrubbed source lines (0-based; line `i` is source line `i + 1`).
    pub lines: Vec<String>,
    /// `test_mask[i]` is `true` when line `i` lies inside a
    /// `#[cfg(test)]` item (attribute line included).
    pub test_mask: Vec<bool>,
    /// Per-line text of ordinary (non-doc) comments, where waiver
    /// directives live. Doc comments and string literals mentioning a
    /// directive are not directives.
    pub comments: Vec<String>,
}

impl Scrubbed {
    /// Lexes `src`, blanking comments and literals and marking
    /// `#[cfg(test)]` regions.
    #[must_use]
    pub fn new(src: &str) -> Self {
        let (text, mut comments) = scrub_with_comments(src);
        let lines: Vec<String> = text.split('\n').map(str::to_string).collect();
        comments.resize(lines.len(), String::new());
        let test_mask = test_line_mask(&lines);
        Scrubbed {
            lines,
            test_mask,
            comments,
        }
    }
}

/// Sink for the scrubbed text plus the per-line non-doc comment text.
struct Sink {
    out: String,
    comments: Vec<String>,
    line: usize,
}

impl Sink {
    /// Emits the blanked form of `c`: newlines survive so the line
    /// structure stays intact, everything else becomes a space.
    fn blank(&mut self, c: char) {
        if c == '\n' {
            self.out.push('\n');
            self.line += 1;
        } else {
            self.out.push(' ');
        }
    }

    /// Emits `c` as code text.
    fn code(&mut self, c: char) {
        self.out.push(c);
        if c == '\n' {
            self.line += 1;
        }
    }

    /// Blanks `c` while also recording it as comment text on the
    /// current line (when the comment is a non-doc comment).
    fn comment(&mut self, c: char, record: bool) {
        if record && c != '\n' {
            if self.comments.len() <= self.line {
                self.comments.resize(self.line + 1, String::new());
            }
            self.comments[self.line].push(c);
        }
        self.blank(c);
    }
}

fn scrub_with_comments(src: &str) -> (String, Vec<String>) {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut sink = Sink {
        out: String::with_capacity(src.len()),
        comments: Vec::new(),
        line: 0,
    };
    let mut i = 0;

    while i < n {
        let c = chars[i];
        // Line comment. `//` is a plain comment; `///` and `//!` are
        // docs (and `////…` dividers are treated as plain).
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let third = chars.get(i + 2);
            let is_doc =
                (third == Some(&'/') && chars.get(i + 3) != Some(&'/')) || third == Some(&'!');
            while i < n && chars[i] != '\n' {
                sink.comment(chars[i], !is_doc);
                i += 1;
            }
            continue;
        }
        // Block comment, with nesting. `/**` and `/*!` are docs.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let third = chars.get(i + 2);
            let is_doc = third == Some(&'*') || third == Some(&'!');
            let mut depth = 0usize;
            while i < n {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    sink.comment(chars[i], !is_doc);
                    sink.comment(chars[i + 1], !is_doc);
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    sink.comment(chars[i], !is_doc);
                    sink.comment(chars[i + 1], !is_doc);
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    sink.comment(chars[i], !is_doc);
                    i += 1;
                }
            }
            continue;
        }
        // Raw string (r"...", r#"..."#, br#"..."#): blank through the
        // closing quote followed by the same number of hashes.
        if let Some((prefix_len, hashes)) = raw_string_at(&chars, i) {
            for _ in 0..prefix_len {
                sink.blank(chars[i]);
                i += 1;
            }
            loop {
                if i >= n {
                    break;
                }
                if chars[i] == '"' && closes_raw(&chars, i, hashes) {
                    for _ in 0..=hashes {
                        sink.blank(chars[i]);
                        i += 1;
                    }
                    break;
                }
                sink.blank(chars[i]);
                i += 1;
            }
            continue;
        }
        // Ordinary (or byte) string: the `b` prefix, if any, stays as
        // harmless code text; the quote starts the literal.
        if c == '"' {
            sink.blank(c);
            i += 1;
            while i < n {
                if chars[i] == '\\' && i + 1 < n {
                    sink.blank(chars[i]);
                    sink.blank(chars[i + 1]);
                    i += 2;
                    continue;
                }
                let closing = chars[i] == '"';
                sink.blank(chars[i]);
                i += 1;
                if closing {
                    break;
                }
            }
            continue;
        }
        // Char literal vs. lifetime. `'\...'` and `'x'` are literals;
        // `'ident` (no closing quote right after one char) is a
        // lifetime or loop label and stays as code.
        if c == '\'' {
            let is_char_literal = match chars.get(i + 1) {
                Some('\\') => true,
                Some(_) => chars.get(i + 2) == Some(&'\''),
                None => false,
            };
            if is_char_literal {
                sink.blank(c);
                i += 1;
                while i < n {
                    if chars[i] == '\\' && i + 1 < n {
                        sink.blank(chars[i]);
                        sink.blank(chars[i + 1]);
                        i += 2;
                        continue;
                    }
                    let closing = chars[i] == '\'';
                    sink.blank(chars[i]);
                    i += 1;
                    if closing {
                        break;
                    }
                }
                continue;
            }
        }
        sink.code(c);
        i += 1;
    }
    (sink.out, sink.comments)
}

/// Detects a raw-string opener at `i`, returning the prefix length up
/// to and including the opening quote, and the hash count.
fn raw_string_at(chars: &[char], i: usize) -> Option<(usize, usize)> {
    // The `r`/`br` must not be the tail of an identifier.
    if i > 0 && is_ident_char(chars[i - 1]) {
        return None;
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some((j - i + 1, hashes))
    } else {
        None
    }
}

/// Returns `true` when the quote at `i` is followed by `hashes` hash
/// characters, closing a raw string opened with that many hashes.
fn closes_raw(chars: &[char], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Is `c` part of an identifier?
pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Identifier tokens of a scrubbed line, in order.
pub(crate) fn idents(line: &str) -> Vec<&str> {
    line.split(|c: char| !is_ident_char(c))
        .filter(|s| !s.is_empty())
        .collect()
}

/// Marks every line covered by a `#[cfg(test)]` item.
///
/// From each attribute occurrence the scanner walks forward past any
/// further attributes to the item body: a braced item (`mod`, `fn`,
/// `impl`, …) marks through its matching close brace; a semicolon item
/// (`#[cfg(test)] use …;`) marks through the semicolon. Nested
/// `#[cfg(test)]` modules simply re-mark lines inside an outer span.
fn test_line_mask(lines: &[String]) -> Vec<bool> {
    // Flatten to (char, line) pairs so spans translate to line ranges.
    let mut flat: Vec<(char, usize)> = Vec::new();
    for (ln, line) in lines.iter().enumerate() {
        for c in line.chars() {
            flat.push((c, ln));
        }
        flat.push(('\n', ln));
    }
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < flat.len() {
        // Anchor on the `#` itself so the match (and its start line)
        // cannot begin on preceding whitespace.
        if flat[i].0 != '#' {
            i += 1;
            continue;
        }
        let Some(attr_end) = match_attr(&flat, i, "#[cfg(test)]") else {
            i += 1;
            continue;
        };
        let start_line = flat[i].1;
        let mut j = attr_end;
        // Skip whitespace and any further attributes before the item.
        loop {
            while j < flat.len() && flat[j].0.is_whitespace() {
                j += 1;
            }
            if j < flat.len() && flat[j].0 == '#' {
                j = skip_attr(&flat, j);
            } else {
                break;
            }
        }
        // Find the item body: first `{` (braced item) or `;` (e.g. a
        // `use` declaration) — whichever comes first.
        let mut end_line = flat.get(j).map_or(start_line, |&(_, ln)| ln);
        while j < flat.len() {
            match flat[j].0 {
                '{' => {
                    let mut depth = 0usize;
                    while j < flat.len() {
                        match flat[j].0 {
                            '{' => depth += 1,
                            '}' => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    end_line = flat.get(j).map_or(lines.len() - 1, |&(_, ln)| ln);
                    break;
                }
                ';' => {
                    end_line = flat[j].1;
                    break;
                }
                _ => j += 1,
            }
        }
        for m in mask.iter_mut().take(end_line + 1).skip(start_line) {
            *m = true;
        }
        i = attr_end;
    }
    mask
}

/// Matches the literal `pat` at `flat[i]`, ignoring interior
/// whitespace, returning the index just past the match.
fn match_attr(flat: &[(char, usize)], i: usize, pat: &str) -> Option<usize> {
    let mut j = i;
    for want in pat.chars() {
        while j < flat.len() && flat[j].0.is_whitespace() {
            j += 1;
        }
        if j < flat.len() && flat[j].0 == want {
            j += 1;
        } else {
            return None;
        }
    }
    Some(j)
}

/// Skips a balanced `#[...]` attribute starting at `i` (which points
/// at `#`), returning the index just past its closing bracket.
fn skip_attr(flat: &[(char, usize)], i: usize) -> usize {
    let mut j = i;
    while j < flat.len() && flat[j].0 != '[' {
        j += 1;
    }
    let mut depth = 0usize;
    while j < flat.len() {
        match flat[j].0 {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrubbed_lines(src: &str) -> Vec<String> {
        Scrubbed::new(src).lines
    }

    #[test]
    fn line_comments_are_blanked() {
        let s = scrubbed_lines("let x = 1; // unwrap() here\nlet y = 2;");
        assert_eq!(s[0].trim_end(), "let x = 1;");
        assert!(!s[0].contains("unwrap"));
        assert_eq!(s[1], "let y = 2;");
    }

    #[test]
    fn comments_containing_quotes_do_not_open_strings() {
        // The `"` inside the comment must not start a literal that
        // swallows the following code line.
        let s = scrubbed_lines("// say \"hi\" there\nlet p = q.unwrap();");
        assert!(!s[0].contains('"'));
        assert!(s[1].contains(".unwrap()"));
    }

    #[test]
    fn block_comments_nest() {
        let s = scrubbed_lines("/* outer /* inner */ still comment */ code()");
        assert_eq!(s[0].trim_start(), "code()");
    }

    #[test]
    fn string_contents_are_blanked_but_code_survives() {
        let s = scrubbed_lines("call(\"unwrap() panic!\"); other.unwrap();");
        assert!(!s[0].contains("panic!"));
        // The real method call outside the literal is preserved.
        assert!(s[0].contains("other.unwrap();"));
    }

    #[test]
    fn escaped_quotes_stay_inside_the_literal() {
        let s = scrubbed_lines(r#"let a = "he said \"unwrap()\""; a.len();"#);
        assert!(!s[0].contains("unwrap"));
        assert!(s[0].contains("a.len();"));
    }

    #[test]
    fn raw_strings_with_hashes_are_blanked() {
        let src = "let re = r#\"quote \" and unwrap()\"#; re.len();\nnext();";
        let s = scrubbed_lines(src);
        assert!(!s[0].contains("unwrap"));
        assert!(s[0].contains("re.len();"));
        assert_eq!(s[1], "next();");
    }

    #[test]
    fn raw_string_with_two_hashes_ignores_single_hash_close() {
        let src = "let t = r##\"one \"# inside\"##; t.len();";
        let s = scrubbed_lines(src);
        assert!(!s[0].contains("inside"));
        assert!(s[0].contains("t.len();"));
    }

    #[test]
    fn byte_and_raw_byte_strings_are_literals() {
        let s = scrubbed_lines("let a = b\"unwrap()\"; let c = br#\"panic!\"#; f();");
        assert!(!s[0].contains("unwrap"));
        assert!(!s[0].contains("panic"));
        assert!(s[0].contains("f();"));
    }

    #[test]
    fn identifier_ending_in_r_is_not_a_raw_string_prefix() {
        let s = scrubbed_lines("let var = \"x\"; var.len();");
        assert!(s[0].contains("var.len();"));
    }

    #[test]
    fn char_literals_are_blanked_lifetimes_are_not() {
        let s = scrubbed_lines("fn f<'a>(x: &'a str) { let q = '\"'; let n = '\\n'; }");
        assert!(s[0].contains("<'a>"), "lifetime must stay: {}", s[0]);
        assert!(s[0].contains("&'a str"));
        assert!(!s[0].contains('"'), "char literal body blanked: {}", s[0]);
    }

    #[test]
    fn quote_char_literal_does_not_open_a_string() {
        let s = scrubbed_lines("let q = '\"'; x.unwrap();");
        assert!(s[0].contains("x.unwrap();"));
    }

    #[test]
    fn cfg_test_module_lines_are_masked() {
        let src = "\
fn real() { a.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { b.unwrap(); }
}
fn real2() {}";
        let m = Scrubbed::new(src).test_mask;
        assert_eq!(m, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn nested_cfg_test_modules_stay_masked() {
        let src = "\
#[cfg(test)]
mod outer {
    #[cfg(test)]
    mod inner {
        fn t() {}
    }
    fn u() {}
}
fn real() {}";
        let m = Scrubbed::new(src).test_mask;
        assert!(m[..8].iter().all(|&b| b), "whole outer module masked");
        assert!(!m[8], "code after the module is not masked");
    }

    #[test]
    fn cfg_test_with_interior_whitespace_matches() {
        let src = "#[cfg( test )]\nmod tests { fn t() {} }\nfn real() {}";
        let m = Scrubbed::new(src).test_mask;
        assert_eq!(m, vec![true, true, false]);
    }

    #[test]
    fn cfg_test_on_use_item_masks_through_semicolon() {
        let src = "#[cfg(test)]\nuse crate::helper;\nfn real() {}";
        let m = Scrubbed::new(src).test_mask;
        assert_eq!(m, vec![true, true, false]);
    }

    #[test]
    fn cfg_test_skips_interleaved_attributes() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests {\n fn t() {}\n}\nfn real() {}";
        let m = Scrubbed::new(src).test_mask;
        assert_eq!(m, vec![true, true, true, true, true, false]);
    }

    #[test]
    fn cfg_attr_test_is_not_a_cfg_test_region() {
        let src = "#[cfg_attr(test, derive(Debug))]\nstruct S;\nfn real() {}";
        let m = Scrubbed::new(src).test_mask;
        assert!(m.iter().all(|&b| !b));
    }

    #[test]
    fn cfg_test_inside_string_or_comment_is_ignored() {
        let src = "let s = \"#[cfg(test)]\"; // #[cfg(test)]\nfn real() {}";
        let m = Scrubbed::new(src).test_mask;
        assert!(m.iter().all(|&b| !b));
    }

    #[test]
    fn braces_inside_strings_do_not_confuse_the_region_tracker() {
        let src = "\
#[cfg(test)]
mod tests {
    const B: &str = \"}\";
    fn t() {}
}
fn real() {}";
        let m = Scrubbed::new(src).test_mask;
        assert_eq!(m, vec![true, true, true, true, true, false]);
    }
}
