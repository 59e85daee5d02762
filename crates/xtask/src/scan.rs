//! Comment- and string-aware source scanner.
//!
//! The lint passes operate on *code text* (source with comment bodies and
//! string/char contents blanked out) plus the *comment text* carried by each
//! line, so that a forbidden token inside a doc example or a string literal
//! never fires, while `// SAFETY:` and `// lint:allow(...)` annotations stay
//! visible. The scanner is a hand-rolled character state machine — no `syn`,
//! no external dependencies — which keeps it fast and honest about being a
//! token/line-level tool.

/// One physical source line after scanning.
#[derive(Debug, Default, Clone)]
pub struct Line {
    /// Source text with comment bodies and string/char-literal contents
    /// removed. Delimiters (`"`, `'`) are preserved so call shapes such as
    /// `.expect("")` remain recognizable.
    pub code: String,
    /// Concatenated comment text appearing on this line (line comments and
    /// the per-line slices of block comments).
    pub comment: String,
}

/// A scanned source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path as given to [`scan_file`] / [`scan_source`].
    pub path: String,
    /// Scanned lines, index 0 = line 1.
    pub lines: Vec<Line>,
    /// `true` for lines inside a `#[cfg(test)]` item or a `#[test]` fn.
    pub in_test: Vec<bool>,
}

impl SourceFile {
    /// Whether `rule` is waived on line `idx` (0-based) via a
    /// `lint:allow(<rule>)` comment on the same line or the line above.
    pub fn waived(&self, idx: usize, rule: &str) -> bool {
        let tag = format!("lint:allow({rule})");
        if self.lines[idx].comment.contains(&tag) {
            return true;
        }
        // A waiver on its own comment line covers the line below; a trailing
        // comment on a *code* line covers only that line.
        idx > 0 && {
            let prev = &self.lines[idx - 1];
            prev.comment.contains(&tag) && prev.code.trim().is_empty()
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    /// Nested block comments; the payload is the nesting depth.
    BlockComment(u32),
    Str,
    /// Raw string; the payload is the number of `#` delimiters.
    RawStr(u32),
    CharLit,
}

/// Reads and scans a file from disk.
pub fn scan_file(path: &std::path::Path) -> std::io::Result<SourceFile> {
    let text = std::fs::read_to_string(path)?;
    Ok(scan_source(&path.display().to_string(), &text))
}

/// Scans in-memory source text (used by the fixture self-tests).
pub fn scan_source(path: &str, text: &str) -> SourceFile {
    let lines = split_lines(text);
    let in_test = mark_test_regions(&lines);
    SourceFile {
        path: path.to_owned(),
        lines,
        in_test,
    }
}

#[allow(clippy::too_many_lines)]
fn split_lines(text: &str) -> Vec<Line> {
    let mut lines = Vec::new();
    let mut cur = Line::default();
    let mut state = State::Code;
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    i += 2;
                    continue;
                }
                if c == '"' {
                    cur.code.push('"');
                    state = State::Str;
                    i += 1;
                    continue;
                }
                // Raw strings: r"..", r#".."#, and byte-raw br#".."#.
                if (c == 'r' || c == 'b') && !prev_is_ident(&cur.code) {
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    if c == 'b' && chars.get(j) == Some(&'"') && j == i + 1 {
                        // b"..": plain byte string.
                        cur.code.push_str("b\"");
                        state = State::Str;
                        i = j + 1;
                        continue;
                    }
                    let mut hashes = 0;
                    while chars.get(j + hashes as usize) == Some(&'#') {
                        hashes += 1;
                    }
                    if (c == 'r' || j > i + 1) && chars.get(j + hashes as usize) == Some(&'"') {
                        cur.code.push(c);
                        cur.code.push('"');
                        state = State::RawStr(hashes);
                        i = j + hashes as usize + 1;
                        continue;
                    }
                }
                if c == '\'' {
                    // Distinguish char literals from lifetimes: `'a` followed
                    // by an identifier char but no closing quote is a
                    // lifetime; `'x'` and `'\n'` are char literals.
                    let is_char_lit = match next {
                        Some('\\') => true,
                        Some('\'') => true,
                        Some(n) => chars.get(i + 2) == Some(&'\'') || !is_ident_char(n),
                        None => false,
                    };
                    if is_char_lit {
                        cur.code.push('\'');
                        state = State::CharLit;
                        i += 1;
                        continue;
                    }
                    cur.code.push('\'');
                    i += 1;
                    continue;
                }
                cur.code.push(c);
                i += 1;
            }
            State::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes as usize {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        cur.code.push('"');
                        state = State::Code;
                        i += 1 + hashes as usize;
                        continue;
                    }
                }
                i += 1;
            }
            State::CharLit => {
                if c == '\\' {
                    i += 2;
                } else if c == '\'' {
                    cur.code.push('\'');
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        lines.push(cur);
    }
    lines
}

fn prev_is_ident(code: &str) -> bool {
    code.chars().last().is_some_and(is_ident_char)
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Marks lines belonging to `#[cfg(test)]` items or `#[test]` functions by
/// brace tracking: the region opened by the first `{` after the attribute
/// runs until its matching `}` closes.
fn mark_test_regions(lines: &[Line]) -> Vec<bool> {
    let mut out = vec![false; lines.len()];
    let mut depth: i64 = 0;
    let mut pending_attr = false;
    let mut region_floor: Option<i64> = None;
    for (i, line) in lines.iter().enumerate() {
        if region_floor.is_some() {
            out[i] = true;
        }
        if line.code.contains("#[cfg(test)]") || line.code.contains("#[test]") {
            pending_attr = true;
            out[i] = true;
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending_attr {
                        // The brace consumes the attribute either way; only
                        // open a region if one is not already active, but
                        // never let the flag leak past an enclosing region.
                        if region_floor.is_none() {
                            region_floor = Some(depth - 1);
                            out[i] = true;
                        }
                        pending_attr = false;
                    }
                }
                '}' => {
                    depth -= 1;
                    if region_floor.is_some_and(|floor| depth <= floor) {
                        region_floor = None;
                    }
                }
                // `#[cfg(test)] use …;` — attribute applied to a
                // braceless item ends here.
                ';' if pending_attr => pending_attr = false,
                _ => {}
            }
        }
    }
    out
}

/// Whether `token` occurs in `code` as a standalone token (no identifier
/// character on either side).
pub fn has_token(code: &str, token: &str) -> bool {
    find_token(code, token).is_some()
}

/// Finds the byte offset of a standalone occurrence of `token` in `code`.
pub fn find_token(code: &str, token: &str) -> Option<usize> {
    let token_starts_ident = token.chars().next().is_some_and(is_ident_char);
    let token_ends_ident = token.chars().next_back().is_some_and(is_ident_char);
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let at = start + pos;
        let before_ok = !token_starts_ident
            || at == 0
            || !code[..at].chars().next_back().is_some_and(is_ident_char);
        let after = at + token.len();
        let after_ok =
            !token_ends_ident || !code[after..].chars().next().is_some_and(is_ident_char);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + token.len().max(1);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let f = scan_source(
            "t.rs",
            "let x = \"SystemTime::now()\"; // Instant::now in comment\nlet y = 1;\n",
        );
        assert!(!f.lines[0].code.contains("SystemTime"));
        assert!(f.lines[0].comment.contains("Instant::now"));
        assert_eq!(f.lines[1].code, "let y = 1;");
    }

    #[test]
    fn raw_strings_and_chars() {
        let f = scan_source(
            "t.rs",
            "let p = r#\"panic!(\"x\")\"#;\nlet c = '\"';\nlet lt: &'static str = \"\";\n",
        );
        assert!(!f.lines[0].code.contains("panic!"));
        assert!(f.lines[1].code.contains("let c ="));
        assert!(f.lines[2].code.contains("'static str"));
    }

    #[test]
    fn block_comments_span_lines() {
        let f = scan_source("t.rs", "/* a\nunwrap()\n*/ let z = 0;\n");
        assert!(f.lines[1].code.is_empty());
        assert!(f.lines[1].comment.contains("unwrap"));
        assert!(f.lines[2].code.contains("let z"));
    }

    #[test]
    fn test_region_marking() {
        let src =
            "fn a() { 1; }\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let f = scan_source("t.rs", src);
        assert!(!f.in_test[0]);
        assert!(f.in_test[1] && f.in_test[2] && f.in_test[3] && f.in_test[4]);
        assert!(!f.in_test[5]);
    }

    #[test]
    fn inner_test_attr_does_not_leak_past_module_end() {
        // A `#[test]` inside an already-active `#[cfg(test)]` region must
        // not mark the next brace-block after the module closes.
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn b() {}\n}\nimpl S {\n    fn c(&self) { x.unwrap(); }\n}\n";
        let f = scan_source("t.rs", src);
        assert!(f.in_test[2] && f.in_test[3]);
        assert!(!f.in_test[5], "impl after test module marked as test");
        assert!(!f.in_test[6], "post-module body marked as test");
    }

    #[test]
    fn token_boundaries() {
        assert!(has_token("x.unwrap()", ".unwrap()"));
        assert!(!has_token("unsafe_code", "unsafe"));
        assert!(has_token("unsafe fn x()", "unsafe"));
        assert!(!has_token("my_thread_rng_fn()", "thread_rng"));
    }

    #[test]
    fn waiver_applies_to_same_and_next_line() {
        let src = "// lint:allow(panic): scheduler invariant\nx.unwrap();\ny.unwrap(); // lint:allow(panic): ok\nz.unwrap();\n";
        let f = scan_source("t.rs", src);
        assert!(f.waived(1, "panic"));
        assert!(f.waived(2, "panic"));
        assert!(!f.waived(3, "panic"));
    }
}
