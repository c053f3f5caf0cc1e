//! Shared per-file analysis state: lexed lines plus the derived views the
//! rules need — `#[cfg(test)]` regions, allowlist directives, `deny(alloc)`
//! zone markers, and function-span extraction.

use crate::lexer::{self, Line};
use crate::Violation;

/// Rule identifiers, exactly as they appear in `lint: allow(<rule>)`.
pub const RULES: [&str; 4] = [
    "lock-ordering",
    "no-alloc",
    "blocking-under-lock",
    "atomics-ordering",
];

/// One analyzed source file.
pub struct SourceFile {
    /// Path relative to the repo root, as printed in diagnostics.
    pub rel_path: String,
    /// Owning crate (directory name under `crates/`, or `timecrypt` for
    /// the facade's `src/`).
    pub crate_name: String,
    /// Lexed code/comment views, one per source line.
    pub lines: Vec<Line>,
    /// Per line: true when the line sits inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
    /// Per line: rules allowlisted for that line via `lint: allow(...)`.
    pub allows: Vec<Vec<String>>,
    /// Per line: id of the statement group the line belongs to (the 0-based
    /// index of the group's first line). Directives bind to whole groups,
    /// so a multi-line method chain (`.lock()\n.unwrap()`) can be
    /// annotated on any of its lines.
    pub stmt: Vec<usize>,
    /// Line indices carrying a `lint: deny(alloc)` marker: the next
    /// function (or one starting on the same line) is a no-alloc zone.
    pub deny_alloc: Vec<usize>,
    /// Malformed directives found while scanning (reported as violations
    /// so a typo can't silently disable a check).
    pub directive_errors: Vec<Violation>,
}

impl SourceFile {
    pub fn parse(rel_path: &str, crate_name: &str, src: &str) -> SourceFile {
        let lines = lexer::lex(src);
        let in_test = test_mask(&lines);
        let stmt = stmt_groups(&lines);
        let mut f = SourceFile {
            rel_path: rel_path.to_string(),
            crate_name: crate_name.to_string(),
            in_test,
            allows: vec![Vec::new(); lines.len()],
            stmt,
            deny_alloc: Vec::new(),
            directive_errors: Vec::new(),
            lines,
        };
        f.collect_directives();
        f
    }

    /// True if `rule` is allowlisted on 0-based line `idx`.
    pub fn allowed(&self, idx: usize, rule: &str) -> bool {
        self.allows
            .get(idx)
            .is_some_and(|rs| rs.iter().any(|r| r == rule))
    }

    fn collect_directives(&mut self) {
        for idx in 0..self.lines.len() {
            let comment = self.lines[idx].comment.clone();
            // A directive must open the comment: `// lint: ...`. Doc
            // comments (`///`, `//!`) lex with a leading `/`/`!` in their
            // text, so prose *describing* the syntax never parses as a
            // directive.
            let Some(rest) = comment.trim_start().strip_prefix("lint:") else {
                continue;
            };
            let directive = rest.trim();
            if let Some(rest) = directive.strip_prefix("allow(") {
                let Some((rule, tail)) = rest.split_once(')') else {
                    self.directive_error(idx, "unterminated `lint: allow(`");
                    continue;
                };
                let rule = rule.trim().to_string();
                if !RULES.contains(&rule.as_str()) {
                    self.directive_error(idx, &format!("unknown rule `{rule}` in allow()"));
                    continue;
                }
                // The reason is mandatory: `— why this is sound`, after a
                // dash of some kind.
                let reason = tail.trim_start().trim_start_matches(['—', '-', '–']).trim();
                if reason.is_empty() {
                    self.directive_error(
                        idx,
                        &format!("allow({rule}) needs a reason: `// lint: allow({rule}) — why`"),
                    );
                    continue;
                }
                let target = self.directive_target(idx);
                // The directive covers the whole statement the target line
                // belongs to, so multi-line chains can be annotated on the
                // acquisition line even when the flagged token sits on a
                // continuation line (and vice versa).
                for li in self.stmt_lines(target) {
                    self.allows[li].push(rule.clone());
                }
            } else if directive.starts_with("deny(alloc)") {
                self.deny_alloc.push(idx);
            } else {
                self.directive_error(idx, &format!("unrecognized directive `lint: {directive}`"));
            }
        }
    }

    /// A directive on a comment-only line governs the next code line; on a
    /// trailing comment it governs its own line.
    fn directive_target(&self, idx: usize) -> usize {
        if !self.lines[idx].is_code_blank() {
            return idx;
        }
        (idx + 1..self.lines.len())
            .find(|&j| !self.lines[j].is_code_blank())
            .unwrap_or(idx)
    }

    /// The 0-based line range of the statement group containing `idx`.
    pub fn stmt_lines(&self, idx: usize) -> std::ops::Range<usize> {
        let Some(&group) = self.stmt.get(idx) else {
            return idx..idx + 1;
        };
        let end = (idx..self.stmt.len())
            .find(|&j| self.stmt[j] != group)
            .unwrap_or(self.stmt.len());
        group..end
    }

    fn directive_error(&mut self, idx: usize, msg: &str) {
        self.directive_errors.push(Violation {
            rule: "directive",
            path: self.rel_path.clone(),
            line: idx + 1,
            msg: msg.to_string(),
            chain: Vec::new(),
        });
    }

    /// Extracts every function span in the file (header line, body braces).
    pub fn functions(&self) -> Vec<FnSpan> {
        let mut spans = Vec::new();
        let mut idx = 0;
        while idx < self.lines.len() {
            let code = &self.lines[idx].code;
            let Some(name_at) = fn_name_pos(code) else {
                idx += 1;
                continue;
            };
            let name: String = code[name_at..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            match self.body_after(idx, name_at) {
                Some((open, close)) => {
                    spans.push(FnSpan {
                        name,
                        header: idx,
                        body_open: open,
                        body_close: close,
                    });
                    // Scan on from the line after the header so nested fns
                    // declared further down are still found.
                    idx += 1;
                }
                None => idx += 1,
            }
        }
        spans
    }

    /// From the `fn` header at `line`/`col`, finds the body's `{ … }` as
    /// ((line, col), (line, col)); `None` for bodyless trait signatures.
    fn body_after(&self, line: usize, col: usize) -> Option<(Pos, Pos)> {
        let mut paren = 0i32;
        let mut open: Option<Pos> = None;
        let mut depth = 0i32;
        for (li, l) in self.lines.iter().enumerate().skip(line) {
            let start = if li == line { col } else { 0 };
            for (ci, c) in l.code.char_indices().skip_while(|(ci, _)| *ci < start) {
                match (open, c) {
                    (None, '(' | '[') => paren += 1,
                    (None, ')' | ']') => paren -= 1,
                    (None, ';') if paren == 0 => return None,
                    (None, '{') if paren == 0 => {
                        open = Some(Pos { line: li, col: ci });
                        depth = 1;
                    }
                    (Some(_), '{') => depth += 1,
                    (Some(o), '}') => {
                        depth -= 1;
                        if depth == 0 {
                            return Some((o, Pos { line: li, col: ci }));
                        }
                    }
                    _ => {}
                }
            }
        }
        None
    }
}

/// A (line, column) position in a file, 0-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    pub line: usize,
    pub col: usize,
}

/// One function's location: header line plus body brace positions.
#[derive(Debug)]
pub struct FnSpan {
    pub name: String,
    /// Line holding the `fn` keyword.
    pub header: usize,
    /// Position of the body's `{`.
    pub body_open: Pos,
    /// Position of the body's matching `}`.
    pub body_close: Pos,
}

/// Column of a function's name on a header line, if the line declares one.
fn fn_name_pos(code: &str) -> Option<usize> {
    let b = code.as_bytes();
    let mut from = 0;
    while let Some(p) = code[from..].find("fn ") {
        let at = from + p;
        let left_ok = at == 0 || !(b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_');
        if left_ok {
            let name_at = at + 3 + code[at + 3..].len() - code[at + 3..].trim_start().len();
            if b.get(name_at)
                .is_some_and(|c| c.is_ascii_alphabetic() || *c == b'_')
            {
                return Some(name_at);
            }
        }
        from = at + 3;
    }
    None
}

/// Groups lines into statements: a line continues into the next when it
/// ends inside an open paren/bracket group or without a terminator
/// (`;`, `{`, `}`, or a depth-0 `,` — the latter splits match arms and
/// struct fields while keeping multi-line call arguments together).
/// String contents are already blanked by the lexer, so the punctuation
/// scan is exact. Each line gets the index of its group's first line.
fn stmt_groups(lines: &[Line]) -> Vec<usize> {
    let mut ids = Vec::with_capacity(lines.len());
    let mut group = 0usize;
    let mut paren = 0i32;
    let mut in_flight = false;
    for (idx, l) in lines.iter().enumerate() {
        if !in_flight {
            group = idx;
        }
        ids.push(group);
        for c in l.code.chars() {
            match c {
                '(' | '[' => paren += 1,
                ')' | ']' => paren -= 1,
                _ => {}
            }
        }
        let code = l.code.trim_end();
        let terminated = if code.trim().is_empty() {
            // Blank / comment-only lines extend an in-flight statement
            // (a directive comment can sit mid-chain) but never start one.
            !in_flight
        } else {
            paren <= 0 && matches!(code.chars().last(), Some(';' | '{' | '}' | ','))
        };
        in_flight = !terminated;
    }
    ids
}

/// Marks lines covered by `#[cfg(test)]` items (the attribute, the item
/// header, and the brace-matched body).
fn test_mask(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut depth = 0i32;
    // When a `#[cfg(test)]` attribute has been seen: the depth at which it
    // appeared, so an intervening `;` (attr on a `use`) can cancel it.
    let mut pending: Option<i32> = None;
    // When inside a test item: the depth just outside its `{`.
    let mut test_until: Option<i32> = None;
    for (idx, l) in lines.iter().enumerate() {
        if l.code.contains("#[cfg(test)]") && test_until.is_none() {
            pending = Some(depth);
            mask[idx] = true;
        }
        for c in l.code.chars() {
            match c {
                '{' => {
                    if let Some(p) = pending.take() {
                        test_until = Some(p);
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if test_until.is_some_and(|t| depth <= t) {
                        test_until = None;
                        mask[idx] = true;
                    }
                }
                ';' if pending.is_some_and(|p| p == depth) => pending = None,
                _ => {}
            }
        }
        if test_until.is_some() || pending.is_some() {
            mask[idx] = true;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse("test.rs", "test", src)
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let f = file(
            "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn live2() {}\n",
        );
        assert!(!f.in_test[0]);
        assert!(f.in_test[1] && f.in_test[2] && f.in_test[3] && f.in_test[4]);
        assert!(!f.in_test[5]);
    }

    #[test]
    fn cfg_test_on_use_does_not_swallow_following_code() {
        let f = file("#[cfg(test)]\nuse std::fmt;\nfn live() {}\n");
        assert!(!f.in_test[2]);
    }

    #[test]
    fn allow_directive_targets_same_or_next_line() {
        let f = file(
            "kv.get(k); // lint: allow(blocking-under-lock) — provable\n// lint: allow(no-alloc) — cold path\ny();\n",
        );
        assert!(f.allowed(0, "blocking-under-lock"));
        assert!(!f.allowed(1, "no-alloc"));
        assert!(f.allowed(2, "no-alloc"));
        assert!(f.directive_errors.is_empty());
    }

    #[test]
    fn allow_covers_the_whole_multiline_statement() {
        // The directive sits on the acquisition line; the flagged token is
        // on the continuation line of the same method chain.
        let f = file(
            "let v = self.kv // lint: allow(blocking-under-lock) — single-flight by design\n    .get(k);\nother();\n",
        );
        assert!(f.allowed(0, "blocking-under-lock"));
        assert!(f.allowed(1, "blocking-under-lock"));
        assert!(!f.allowed(2, "blocking-under-lock"));
        assert!(f.directive_errors.is_empty());
    }

    #[test]
    fn directive_comment_above_covers_following_multiline_statement() {
        let f = file(
            "// lint: allow(lock-ordering) — init path, single-threaded\nlet g = self.stripes[0]\n    .lock();\nnext();\n",
        );
        assert!(f.allowed(1, "lock-ordering"));
        assert!(f.allowed(2, "lock-ordering"));
        assert!(!f.allowed(3, "lock-ordering"));
    }

    #[test]
    fn stmt_groups_split_on_terminators_and_join_open_parens() {
        let f = file("foo(a,\n  b);\nlet x = 1;\nmatch y {\n  A => a(),\n  B => b(),\n}\n");
        // Multi-line call args share a group.
        assert_eq!(f.stmt[0], f.stmt[1]);
        // `;` terminates.
        assert_ne!(f.stmt[1], f.stmt[2]);
        // Match arms end with a depth-0 `,` and stay separate.
        assert_ne!(f.stmt[4], f.stmt[5]);
    }

    #[test]
    fn allow_without_reason_is_an_error() {
        let f = file("kv.get(k); // lint: allow(blocking-under-lock)\n");
        assert_eq!(f.directive_errors.len(), 1);
        assert!(!f.allowed(0, "blocking-under-lock"));
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let f = file("x(); // lint: allow(made-up) — whatever\n");
        assert_eq!(f.directive_errors.len(), 1);
    }

    #[test]
    fn deny_alloc_marker_recorded() {
        let f = file("// lint: deny(alloc)\nfn hot() {}\n");
        assert_eq!(f.deny_alloc, vec![0]);
    }

    #[test]
    fn functions_are_spanned() {
        let f = file("fn a() {\n  inner();\n}\npub fn b(x: i32) -> i32 { x }\n");
        let fns = f.functions();
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "a");
        assert_eq!(fns[0].body_open.line, 0);
        assert_eq!(fns[0].body_close.line, 2);
        assert_eq!(fns[1].name, "b");
        assert_eq!(fns[1].body_close.line, 3);
    }

    #[test]
    fn trait_signatures_without_body_are_skipped() {
        let f =
            file("trait T {\n  fn sig(&self) -> u32;\n  fn with_default(&self) { body(); }\n}\n");
        let fns = f.functions();
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "with_default");
    }

    #[test]
    fn multiline_signatures_find_their_body() {
        let f = file("fn long(\n  a: i32,\n  b: i32,\n) -> i32 {\n  a + b\n}\n");
        let fns = f.functions();
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].body_open.line, 3);
        assert_eq!(fns[0].body_close.line, 5);
    }
}
