//! The four repo-specific rules. Each exposes `NAME` (the identifier
//! used in `lint: allow(...)`) and a check that appends [`Violation`]s.
//! Per-file rules take a [`SourceFile`]; the interprocedural rules
//! (`lock-ordering`, `blocking-under-lock`) run over the workspace call
//! graph and its fixpoint summaries, built once per analysis.

pub mod atomics;
pub mod blocking;
pub mod lock_order;
pub mod no_alloc;

use crate::callgraph;
use crate::config::Config;
use crate::scan::SourceFile;
use crate::Violation;

/// Runs every rule over every file, including malformed-directive
/// diagnostics, and returns the violations sorted by path and line.
pub fn run_all(cfg: &Config, files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in files {
        out.extend(f.directive_errors.iter().cloned());
        no_alloc::check(f, &mut out);
        atomics::check(cfg, f, &mut out);
    }
    let graph = callgraph::build(cfg, files);
    let sums = callgraph::summarize(&graph);
    lock_order::check_all(cfg, files, &graph, &sums, &mut out);
    blocking::check_all(cfg, files, &graph, &sums, &mut out);
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}
