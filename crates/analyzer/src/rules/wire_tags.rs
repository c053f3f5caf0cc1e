//! Rule `wire-tags`: audits the hand-maintained wire protocol tag space
//! in `crates/wire/src/messages.rs`. Fails on:
//! - two tag consts in the same family (`REQ_*` / `RESP_*`) sharing a value;
//! - a `Request`/`Response` enum variant with no arm in `encode_into` or
//!   `decode` (a variant that encodes but can't decode — or vice versa —
//!   is a protocol break waiting for the first real deployment); the
//!   method's arms may live in same-file functions it delegates to
//!   (`Request::decode` is `RequestRef::decode` + `to_owned`);
//! - a tag value missing from the reserved-tag table in `analyzer.toml`
//!   (new tags must be reserved) or reserved under a *different* const
//!   name (a removed tag's value must stay burned, never reassigned).

use crate::config::Config;
use crate::lexer::has_word;
use crate::scan::SourceFile;
use crate::Violation;
use std::collections::BTreeMap;

pub const NAME: &str = "wire-tags";

/// The audited file, relative to the repo root.
pub const TARGET: &str = "crates/wire/src/messages.rs";

struct Family<'a> {
    prefix: &'a str,
    enum_name: &'a str,
    reserved: &'a BTreeMap<u32, String>,
}

pub fn check(cfg: &Config, f: &SourceFile, out: &mut Vec<Violation>) {
    if !f.rel_path.ends_with(TARGET) {
        return;
    }
    let families = [
        Family {
            prefix: "REQ_",
            enum_name: "Request",
            reserved: &cfg.reserved_request_tags,
        },
        Family {
            prefix: "RESP_",
            enum_name: "Response",
            reserved: &cfg.reserved_response_tags,
        },
    ];
    for fam in families {
        audit_consts(f, &fam, out);
        audit_arms(f, &fam, out);
    }
}

/// Parses `const <PREFIX><NAME>: u8 = <n>;` lines into (name, value, line).
fn tag_consts(f: &SourceFile, prefix: &str) -> Vec<(String, u32, usize)> {
    let mut found = Vec::new();
    for (idx, l) in f.lines.iter().enumerate() {
        if f.in_test[idx] {
            continue;
        }
        let code = l.code.trim();
        let Some(rest) = code
            .strip_prefix("pub const ")
            .or_else(|| code.strip_prefix("const "))
        else {
            continue;
        };
        if !rest.starts_with(prefix) {
            continue;
        }
        let Some((name, tail)) = rest.split_once(':') else {
            continue;
        };
        let Some((_, value)) = tail.split_once('=') else {
            continue;
        };
        if let Ok(v) = value.trim().trim_end_matches(';').trim().parse::<u32>() {
            found.push((name.trim().to_string(), v, idx));
        }
    }
    found
}

fn audit_consts(f: &SourceFile, fam: &Family<'_>, out: &mut Vec<Violation>) {
    let consts = tag_consts(f, fam.prefix);
    if consts.is_empty() {
        emit(
            f,
            0,
            out,
            format!("found no `{}*` tag consts — audit anchor lost", fam.prefix),
        );
        return;
    }
    let mut by_value: BTreeMap<u32, &str> = BTreeMap::new();
    for (name, value, idx) in &consts {
        if let Some(first) = by_value.insert(*value, name) {
            emit(
                f,
                *idx,
                out,
                format!("duplicate wire tag {value}: `{name}` collides with `{first}`"),
            );
        }
        match fam.reserved.get(value) {
            Some(owner) if owner == name => {}
            Some(owner) => emit(
                f,
                *idx,
                out,
                format!(
                    "tag {value} is reserved for `{owner}` but declared as `{name}` — \
                     removed tags stay burned; pick the next free value"
                ),
            ),
            None => emit(
                f,
                *idx,
                out,
                format!(
                    "tag {value} (`{name}`) is not in the [wire.reserved] table in \
                     analyzer.toml — reserve every shipped tag"
                ),
            ),
        }
    }
}

fn audit_arms(f: &SourceFile, fam: &Family<'_>, out: &mut Vec<Violation>) {
    let Some(variants) = enum_variants(f, fam.enum_name) else {
        emit(
            f,
            0,
            out,
            format!("could not locate `pub enum {}`", fam.enum_name),
        );
        return;
    };
    let Some((impl_start, impl_end)) = impl_block(f, fam.enum_name) else {
        emit(
            f,
            0,
            out,
            format!("could not locate `impl {}`", fam.enum_name),
        );
        return;
    };
    let fns = f.functions();
    for method in ["encode_into", "decode"] {
        let Some(span) = fns
            .iter()
            .find(|s| s.name == method && s.header >= impl_start && s.header <= impl_end)
        else {
            emit(
                f,
                impl_start,
                out,
                format!("could not locate `fn {method}` in `impl {}`", fam.enum_name),
            );
            continue;
        };
        // The method plus every same-file function it (transitively)
        // names: a delegating method's arms are its callees' arms.
        let mut region = vec![span];
        let mut next = 0;
        while let Some(from) = region.get(next).copied() {
            next += 1;
            for callee in &fns {
                let named = !f.in_test[callee.header]
                    && !region.iter().any(|r| r.header == callee.header)
                    && (from.header..=from.body_close.line)
                        .any(|li| has_word(&f.lines[li].code, &callee.name));
                if named {
                    region.push(callee);
                }
            }
        }
        for (variant, vline) in &variants {
            let qualified = format!("{}::{variant}", fam.enum_name);
            let selfed = format!("Self::{variant}");
            let present = region.iter().any(|r| {
                (r.header..=r.body_close.line).any(|li| {
                    let code = &f.lines[li].code;
                    has_word(code, &qualified) || has_word(code, &selfed)
                })
            });
            if !present && !f.allowed(*vline, NAME) {
                emit(
                    f,
                    *vline,
                    out,
                    format!(
                        "variant `{}::{variant}` has no arm in `{method}` — \
                         every variant must round-trip",
                        fam.enum_name
                    ),
                );
            }
        }
    }
}

/// Variant names of `pub enum <name>` with their line indices.
fn enum_variants(f: &SourceFile, name: &str) -> Option<Vec<(String, usize)>> {
    let decl = format!("enum {name}");
    let start = f
        .lines
        .iter()
        .position(|l| l.code.contains(&decl) && has_word(&l.code, name) && l.code.contains('{'))?;
    let mut variants = Vec::new();
    let mut depth = 0i32;
    for (idx, l) in f.lines.iter().enumerate().skip(start) {
        let at_variant_depth = depth == 1;
        for c in l.code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(variants);
                    }
                }
                _ => {}
            }
        }
        if idx == start || !at_variant_depth {
            continue;
        }
        let code = f.lines[idx].code.trim();
        if code.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            let v: String = code
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            variants.push((v, idx));
        }
    }
    Some(variants)
}

/// Line span of `impl <name> {` … `}` (inherent impl, not trait impls).
fn impl_block(f: &SourceFile, name: &str) -> Option<(usize, usize)> {
    let decl = format!("impl {name}");
    let start = f.lines.iter().position(|l| {
        let code = l.code.trim();
        // The boundary check keeps `impl RequestRef` from matching.
        code.starts_with(&decl)
            && !code
                .as_bytes()
                .get(decl.len())
                .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
            && !code.contains(" for ")
            && code.ends_with('{')
    })?;
    let mut depth = 0i32;
    for (idx, l) in f.lines.iter().enumerate().skip(start) {
        for c in l.code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some((start, idx));
                    }
                }
                _ => {}
            }
        }
    }
    None
}

fn emit(f: &SourceFile, idx: usize, out: &mut Vec<Violation>, msg: String) {
    out.push(Violation {
        rule: NAME,
        path: f.rel_path.clone(),
        line: idx + 1,
        msg,
        chain: Vec::new(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = r#"
pub enum Request {
    Ping,
    Insert {
        chunk: u32,
    },
}

const REQ_PING: u8 = 1;
const REQ_INSERT: u8 = 2;

impl Request {
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => out.push(REQ_PING),
            Request::Insert { chunk } => out.push(REQ_INSERT),
        }
    }
    pub fn decode(buf: &[u8]) -> Result<Self, ()> {
        Ok(match buf[0] {
            REQ_PING => Request::Ping,
            REQ_INSERT => Request::Insert { chunk: 0 },
            _ => return Err(()),
        })
    }
}

pub enum Response {
    Ok,
}
const RESP_OK: u8 = 1;
impl Response {
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Ok => out.push(RESP_OK),
        }
    }
    pub fn decode(buf: &[u8]) -> Result<Self, ()> {
        Ok(Response::Ok)
    }
}
"#;

    fn cfg(req: &[(u32, &str)], resp: &[(u32, &str)]) -> Config {
        Config {
            reserved_request_tags: req.iter().map(|(v, n)| (*v, n.to_string())).collect(),
            reserved_response_tags: resp.iter().map(|(v, n)| (*v, n.to_string())).collect(),
            ..Config::default()
        }
    }

    fn run(cfg: &Config, src: &str) -> Vec<Violation> {
        let f = SourceFile::parse(TARGET, "wire", src);
        let mut v = Vec::new();
        check(cfg, &f, &mut v);
        v
    }

    #[test]
    fn clean_fixture_passes() {
        let c = cfg(&[(1, "REQ_PING"), (2, "REQ_INSERT")], &[(1, "RESP_OK")]);
        let v = run(&c, FIXTURE);
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn duplicate_tag_fires() {
        let c = cfg(&[(1, "REQ_PING"), (2, "REQ_INSERT")], &[(1, "RESP_OK")]);
        let dup = FIXTURE.replace("const REQ_INSERT: u8 = 2;", "const REQ_INSERT: u8 = 1;");
        let v = run(&c, &dup);
        assert!(v.iter().any(|x| x.msg.contains("duplicate wire tag 1")));
    }

    #[test]
    fn unreserved_tag_fires() {
        let c = cfg(&[(1, "REQ_PING")], &[(1, "RESP_OK")]);
        let v = run(&c, FIXTURE);
        assert!(v
            .iter()
            .any(|x| x.msg.contains("tag 2 (`REQ_INSERT`) is not in")));
    }

    #[test]
    fn reused_tag_fires() {
        let c = cfg(&[(1, "REQ_PING"), (2, "REQ_RETIRED")], &[(1, "RESP_OK")]);
        let v = run(&c, FIXTURE);
        assert!(v
            .iter()
            .any(|x| x.msg.contains("reserved for `REQ_RETIRED`")));
    }

    #[test]
    fn missing_decode_arm_fires() {
        let c = cfg(&[(1, "REQ_PING"), (2, "REQ_INSERT")], &[(1, "RESP_OK")]);
        let broken = FIXTURE.replace(
            "            REQ_INSERT => Request::Insert { chunk: 0 },\n",
            "",
        );
        let v = run(&c, &broken);
        assert!(
            v.iter()
                .any(|x| x.msg.contains("`Request::Insert` has no arm in `decode`")),
            "got: {v:?}"
        );
    }

    #[test]
    fn decode_arms_may_live_in_a_delegate() {
        // `decode` forwards to a same-file helper holding the `Insert` arm.
        let c = cfg(&[(1, "REQ_PING"), (2, "REQ_INSERT")], &[(1, "RESP_OK")]);
        let delegating = FIXTURE.replace(
            "            REQ_INSERT => Request::Insert { chunk: 0 },
",
            "            REQ_INSERT => insert_view().owned(),
",
        ) + "fn owned(self) -> Request {\n    Request::Insert { chunk: 0 }\n}\n";
        assert!(run(&c, &delegating).is_empty());
        // A helper nothing names does not count.
        let orphaned = delegating.replace("insert_view().owned()", "insert_view()");
        assert!(run(&c, &orphaned)
            .iter()
            .any(|x| x.msg.contains("`Request::Insert` has no arm in `decode`")));
    }

    #[test]
    fn missing_encode_arm_fires() {
        let c = cfg(&[(1, "REQ_PING"), (2, "REQ_INSERT")], &[(1, "RESP_OK")]);
        let broken = FIXTURE.replace(
            "            Request::Insert { chunk } => out.push(REQ_INSERT),\n",
            "",
        );
        let v = run(&c, &broken);
        assert!(v.iter().any(|x| x
            .msg
            .contains("`Request::Insert` has no arm in `encode_into`")));
    }

    #[test]
    fn only_audits_the_wire_messages_file() {
        let c = cfg(&[], &[]);
        let f = SourceFile::parse("crates/server/src/engine.rs", "server", "fn f() {}");
        let mut v = Vec::new();
        check(&c, &f, &mut v);
        assert!(v.is_empty());
    }
}
