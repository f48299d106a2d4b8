#!/bin/sh
# Non-test source lines per crate: the lines of each crates/*/src/*.rs and
# src/*.rs before its first `#[cfg(test)]` or `#[cfg(all(test, ...))]`,
# summed per directory. This is the count ROADMAP item 4's line gate and
# CHANGES.md's "less code" figures use.
# Run from anywhere; prints one `lines  directory` row per crate and a total,
# then — counted the same way, and kept out of the first total so that it
# stays comparable across history — one row per `src/bin` directory and a
# second total with them. Last, every counted file over 1,000 lines on its
# own (ROADMAP item 4 holds each file of `vist-core/src` and `src` to 1,200).
set -eu
cd "$(dirname "$0")/.."
non_test() {
    awk '/^[[:space:]]*#\[cfg\((test\)|all\(test)/ { exit } { print }' "$1"
}
count() {
    for f in "$1"/*.rs; do
        non_test "$f"
    done | wc -l
}
total=0
for dir in crates/*/src src; do
    lines=$(count "$dir")
    printf '%7d  %s\n' "$lines" "$dir"
    total=$((total + lines))
done
printf '%7d  total\n' "$total"
for dir in crates/*/src/bin src/bin; do
    [ -d "$dir" ] || continue
    lines=$(count "$dir")
    printf '%7d  %s\n' "$lines" "$dir"
    total=$((total + lines))
done
printf '%7d  total with src/bin\n' "$total"
for f in crates/*/src/*.rs src/*.rs crates/*/src/bin/*.rs src/bin/*.rs; do
    [ -f "$f" ] || continue
    lines=$(non_test "$f" | wc -l)
    if [ "$lines" -gt 1000 ]; then
        printf '%7d  %s (file over 1,000)\n' "$lines" "$f"
    fi
done
