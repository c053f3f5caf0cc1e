#!/usr/bin/env bash
# The mutant catalogue's runner: each `tests/mutants/*.patch` is a bug this
# repo once had, and each must still be caught by the tests its header
# names.
#
#   tests/mutants/run.sh                  every patch
#   tests/mutants/run.sh tests/mutants/01-zero-interval-accepted.patch ...
#
# A patch's header (the lines before its first `diff`, which `git apply`
# skips) holds `Mutant:` (what the bug does), `Source:` (the change doc
# that recorded it) and one `Killed-by: <file>::<test>` line per test that
# must fail with the patch applied. Each patch is applied in turn to one
# `git worktree` of HEAD (committed files only) under `$TMPDIR`, reset
# between patches; only the named tests run, in the default (debug)
# profile. All builds share one `CARGO_TARGET_DIR` (default
# `target/mutants`), so a patch rebuilds only the crates it touches. The
# worktree's path is fixed, so that a later run reuses those builds: run
# one at a time per `$TMPDIR`.
#
# A mutant is killed when every named test fails (ten minutes without an
# end counts as a failure), and survives when one passes. A patch that no
# longer applies is stale; one whose tests no longer build is broken.
# Neither counts as killed. The last line tallies them: `mutants: K
# killed, S survived, T stale, B broken`. Exit status: 0 when all are
# killed, 1 when one survived, 2 when none survived but one is stale or
# broken. The worktree is removed on exit, an error or an interrupt
# included.
set -euo pipefail

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
tree="${TMPDIR:-/tmp}/timecrypt-mutants"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$repo/target/mutants}"

cleanup() {
  git -C "$repo" worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
  git -C "$repo" worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM
cleanup
git -C "$repo" worktree add --quiet --detach "$tree" HEAD

# `cargo test` arguments selecting the target that holds `file`'s tests.
target_of() {
  local file=$1 dir
  case "$file" in
    tests/*.rs) dir=. ;;
    crates/*/* | vendor/*/*) dir=$(cut -d/ -f1-2 <<<"$file") ;;
    *) echo "unknown test file $file" >&2; return 1 ;;
  esac
  local pkg
  pkg=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$tree/$dir/Cargo.toml" | head -1)
  case "$file" in
    */src/*) echo "-p $pkg --lib" ;;
    *) echo "-p $pkg --test $(basename "$file" .rs)" ;;
  esac
}

if [ $# -gt 0 ]; then patches=("$@"); else patches=("$repo"/tests/mutants/*.patch); fi
killed=0 survived=0 stale=0 broken=0
for patch in "${patches[@]}"; do
  name=$(basename "$patch" .patch)
  start=$SECONDS
  git -C "$tree" reset --quiet --hard HEAD
  if ! git -C "$tree" apply "$(realpath "$patch")" 2>/dev/null; then
    echo "$name: stale (the patch no longer applies to HEAD)"
    stale=$((stale + 1))
    continue
  fi
  verdict="broken (its header names no test)"
  while read -r killer; do
    verdict=killed
    file=${killer%%::*} test=${killer#*::}
    # shellcheck disable=SC2046 # the target's arguments are words
    if ! (cd "$tree" && cargo test -q $(target_of "$file") --no-run) >/dev/null 2>&1; then
      verdict="broken (the tests of $file do not build)"
      break
    fi
    # shellcheck disable=SC2046
    if (cd "$tree" && timeout 600 cargo test -q $(target_of "$file") -- "$test") \
        >/dev/null 2>&1; then
      verdict="survived ($killer passed)"
      break
    fi
  done < <(sed -n '/^diff /q; s/^Killed-by: //p' "$patch")
  echo "$name: $verdict in $((SECONDS - start)) s"
  case "$verdict" in
    killed) killed=$((killed + 1)) ;;
    survived*) survived=$((survived + 1)) ;;
    *) broken=$((broken + 1)) ;;
  esac
done

echo "mutants: $killed killed, $survived survived, $stale stale, $broken broken"
if [ "$survived" -gt 0 ]; then exit 1; fi
if [ $((stale + broken)) -gt 0 ]; then exit 2; fi
