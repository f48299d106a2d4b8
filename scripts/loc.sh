#!/bin/sh
# Non-test source lines per crate: the lines of each crates/*/src/*.rs and
# src/*.rs before its first `#[cfg(test)]`, summed per directory. This is the
# count ROADMAP item 4's line gate and CHANGES.md's "less code" figures use.
# Run from anywhere; prints one `lines  directory` row per crate and a total.
set -eu
cd "$(dirname "$0")/.."
total=0
for dir in crates/*/src src; do
    lines=$(for f in "$dir"/*.rs; do
        awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { print }' "$f"
    done | wc -l)
    printf '%7d  %s\n' "$lines" "$dir"
    total=$((total + lines))
done
printf '%7d  total\n' "$total"
