//! Rule `no-alloc`: a function annotated `// lint: deny(alloc)` is a
//! zero-copy seam — its body must not allocate. The banned tokens are the
//! allocation entry points that past PRs actually removed from these
//! paths (`encode_into`, the handlers' ingest `dispatch`,
//! `seal_into`/`open_into`, the scratch-buffer send paths); reintroducing
//! one silently reverts the optimization without failing any functional
//! test.

use crate::scan::SourceFile;
use crate::Violation;

pub const NAME: &str = "no-alloc";

/// Substring-matched allocation tokens (the leading `.`/`::` already
/// prevents identifier-prefix false matches).
const CONTAINS: [&str; 9] = [
    ".to_vec()",
    ".clone()",
    "Vec::new",
    "String::from",
    "String::new",
    ".to_owned()",
    ".to_string()",
    "Box::new",
    "::with_capacity",
];

/// Allocating macros, matched as `name!`.
const MACROS: [&str; 2] = ["vec", "format"];

pub fn check(f: &SourceFile, out: &mut Vec<Violation>) {
    if f.deny_alloc.is_empty() {
        return;
    }
    let fns = f.functions();
    for &marker in &f.deny_alloc {
        // The marker governs the first fn at or after it (attributes and
        // doc comments may sit between).
        let Some(span) = fns.iter().find(|s| s.header >= marker) else {
            out.push(Violation {
                rule: NAME,
                path: f.rel_path.clone(),
                line: marker + 1,
                msg: "`lint: deny(alloc)` with no following function".to_string(),
                chain: Vec::new(),
            });
            continue;
        };
        for li in span.header..=span.body_close.line {
            if f.allowed(li, NAME) {
                continue;
            }
            let code = &f.lines[li].code;
            let hit = CONTAINS
                .iter()
                .find(|t| code.contains(**t))
                .copied()
                .map(|t| t.to_string())
                .or_else(|| {
                    MACROS
                        .iter()
                        .find(|m| macro_call(code, m))
                        .map(|m| format!("{m}!"))
                });
            if let Some(token) = hit {
                out.push(Violation {
                    rule: NAME,
                    path: f.rel_path.clone(),
                    line: li + 1,
                    msg: format!(
                        "`{token}` allocates inside no-alloc zone `fn {}`",
                        span.name
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }
}

fn macro_call(code: &str, name: &str) -> bool {
    let b = code.as_bytes();
    let mut from = 0;
    while let Some(p) = code[from..].find(name) {
        let at = from + p;
        let end = at + name.len();
        let left_ok = at == 0 || !(b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_');
        if left_ok && b.get(end) == Some(&b'!') {
            return true;
        }
        from = at + 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Violation> {
        let f = SourceFile::parse("fixture.rs", "wire", src);
        let mut v = Vec::new();
        check(&f, &mut v);
        v
    }

    #[test]
    fn allocation_in_zone_fires() {
        let v = run("// lint: deny(alloc)\nfn hot(out: &mut Vec<u8>) {\n  let c = buf.to_vec();\n  let s = format!(\"x\");\n}\n");
        assert_eq!(v.len(), 2);
        assert!(v[0].msg.contains(".to_vec()"));
        assert!(v[1].msg.contains("format!"));
        assert!(v[0].msg.contains("fn hot"));
    }

    #[test]
    fn unannotated_fn_is_free_to_allocate() {
        let v = run("fn cold() {\n  let c = buf.to_vec();\n}\n");
        assert!(v.is_empty());
    }

    #[test]
    fn clean_zone_passes() {
        let v = run("// lint: deny(alloc)\nfn hot(out: &mut Vec<u8>) {\n  out.extend_from_slice(&buf);\n}\n");
        assert!(v.is_empty());
    }

    #[test]
    fn allowlisted_line_passes() {
        let v = run("// lint: deny(alloc)\nfn hot() {\n  let e = format!(\"err\"); // lint: allow(no-alloc) — cold error path\n}\n");
        assert!(v.is_empty());
    }

    #[test]
    fn marker_without_fn_is_reported() {
        let v = run("// lint: deny(alloc)\nconst X: u32 = 1;\n");
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("no following function"));
    }

    #[test]
    fn zone_ends_with_the_function() {
        let v = run("// lint: deny(alloc)\nfn hot() {\n  fast();\n}\nfn cold() {\n  let c = x.clone();\n}\n");
        assert!(v.is_empty());
    }

    #[test]
    fn clone_in_identifier_does_not_fire() {
        let v =
            run("// lint: deny(alloc)\nfn hot() {\n  let c = self.clone_count;\n  vector();\n}\n");
        assert!(v.is_empty());
    }
}
