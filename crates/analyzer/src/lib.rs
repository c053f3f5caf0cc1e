//! `timecrypt-analyzer` — a repo-specific static analysis gate.
//!
//! The TimeCrypt reproduction's concurrency and hot-path invariants
//! (documented in `ARCHITECTURE.md` §"Static analysis") are enforced here
//! as four mechanical rules over lexed source text:
//!
//! 1. `lock-ordering` — nested lock acquisitions must follow the
//!    documented order (config-driven), checked both within one function
//!    body and across call chains via the workspace call graph.
//! 2. `no-alloc` — `// lint: deny(alloc)` functions must not allocate.
//! 3. `blocking-under-lock` — no store I/O, socket reads, or sleeps
//!    (transitively) while holding a configured blocking-sensitive lock
//!    class.
//! 4. `atomics-ordering` — every `Ordering::*` usage must match the
//!    declared role of its atomic (counter / publish / gate).
//!
//! Rules 1, 3, and 4 are driven by an interprocedural layer: [`heldset`]
//! walks each function body tracking live lock guards, [`callgraph`]
//! resolves call sites to workspace definitions (name-based,
//! over-approximating) and propagates may-acquire / may-block summaries
//! to a fixpoint, and diagnostics carry the full witness call chain.
//!
//! Deliberately dependency-free (crates.io is not assumed reachable) and
//! parser-free: a comment/string-aware lexer ([`lexer`]) plus brace
//! matching ([`scan`]) is enough for all four rules, keeps the gate under
//! a second on the workspace, and cannot fall behind rustc's grammar.
//!
//! Per-statement escape hatch, reason mandatory:
//! `// lint: allow(<rule>) — <why this site is sound>`.

pub mod callgraph;
pub mod config;
pub mod heldset;
pub mod lexer;
pub mod rules;
pub mod scan;

use scan::SourceFile;
use std::fs;
use std::path::{Path, PathBuf};

/// One diagnostic, printed as `path:line: [rule] message`.
#[derive(Debug, Clone, Default)]
pub struct Violation {
    /// Rule identifier (or `directive` for malformed `lint:` comments).
    pub rule: &'static str,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
    /// For interprocedural findings: the witness call chain, one hop per
    /// element, ending with the offending effect. Empty for local
    /// findings.
    pub chain: Vec<String>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )?;
        if !self.chain.is_empty() {
            write!(f, "\n    chain: {}", self.chain.join("\n        → "))?;
        }
        Ok(())
    }
}

/// Analysis summary: what ran and what it found.
pub struct Report {
    /// Number of files analyzed.
    pub files: usize,
    /// Sorted violations (empty means the gate passes).
    pub violations: Vec<Violation>,
}

/// Runs the full analysis on the workspace rooted at `root` (the
/// directory holding `analyzer.toml`).
pub fn analyze(root: &Path) -> Result<Report, String> {
    let cfg_path = root.join("analyzer.toml");
    let cfg_src = fs::read_to_string(&cfg_path)
        .map_err(|e| format!("cannot read {}: {e}", cfg_path.display()))?;
    let cfg = config::parse(&cfg_src).map_err(|e| e.to_string())?;
    let files = collect_sources(root)?;
    let violations = rules::run_all(&cfg, &files);
    Ok(Report {
        files: files.len(),
        violations,
    })
}

/// Gathers the workspace's own sources: the facade's `src/` plus every
/// `crates/<name>/src/`. Vendored stand-ins (`vendor/`), build output,
/// integration-test dirs, and benches are out of scope: the rules guard
/// *our* invariants, not third-party idiom.
fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut sources = Vec::new();
    let mut units: Vec<(String, PathBuf)> = vec![("timecrypt".into(), root.join("src"))];
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        units.push((name, dir.join("src")));
    }
    for (crate_name, src_dir) in units {
        let mut rs_files = Vec::new();
        walk(&src_dir, &mut rs_files)?;
        rs_files.sort();
        for path in rs_files {
            let text = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            sources.push(SourceFile::parse(&rel, &crate_name, &text));
        }
    }
    Ok(sources)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Ok(()); // a crate without src/ (or a race with a delete)
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
