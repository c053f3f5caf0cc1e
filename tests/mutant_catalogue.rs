//! The mutant catalogue, `tests/mutants/*.patch`: bugs this repo had, each
//! a patch whose header names the change doc that recorded it (`Source:`)
//! and the tests that must fail with it applied (`Killed-by:`).
//! `tests/mutants/run.sh` applies each and runs those tests (CI's Mutants
//! job). This checks the headers without building a mutant, so a change
//! that deletes or renames a killer fails here. Its counts are the
//! `mutants.*` ledger rows.

use std::collections::BTreeSet;
use std::path::Path;

mod common;

#[test]
fn every_mutant_names_its_source_and_killers_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: &str| std::fs::read_to_string(root.join(path)).unwrap_or_default();
    let dir = std::fs::read_dir(root.join("tests/mutants")).unwrap();
    let mut patches: Vec<_> = dir.map(|e| e.unwrap().path()).collect();
    patches.retain(|p| p.extension().is_some_and(|e| e == "patch"));
    let mut sources = BTreeSet::new();
    for patch in &patches {
        let text = std::fs::read_to_string(patch).unwrap();
        let header = text.split("\ndiff ").next().unwrap();
        let field = |name| header.lines().filter_map(move |l| l.strip_prefix(name));
        let source: Vec<_> = field("Source: ").collect();
        assert!(
            matches!(source[..], [doc] if doc.starts_with("docs/changes/PR-") && !read(doc).is_empty()),
            "{patch:?} names no change doc: {source:?}"
        );
        sources.insert(source[0].to_string());
        let killers: Vec<_> = field("Killed-by: ").collect();
        assert!(!killers.is_empty(), "{patch:?} names no test");
        for (file, test) in killers.iter().map(|k| k.split_once("::").unwrap()) {
            let found = read(file).contains(&format!("fn {test}("));
            assert!(found, "{patch:?}: no `fn {test}` in {file}");
        }
    }
    let rows = [("patches", patches.len()), ("source_prs", sources.len())];
    common::ledger(&rows.map(|(what, n)| (format!("mutants.{what}"), n.to_string())));
}
