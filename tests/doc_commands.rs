//! The documentation names only commands that exist: every `vist <sub>` in
//! the top-level docs and `docs/*.md` is a subcommand of `cli::USAGE`, and
//! every `-p vist-bench --bin <name>` is a binary of `vist-bench`. Static:
//! the test reads files and runs nothing.

use std::path::{Path, PathBuf};

const BENCH_BIN: &str = "-p vist-bench --bin ";

fn docs(root: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = ["README.md", "EXPERIMENTS.md", "DESIGN.md"]
        .iter()
        .map(|f| root.join(f))
        .collect();
    let mut more: Vec<PathBuf> = std::fs::read_dir(root.join("docs"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .collect();
    more.sort();
    files.extend(more);
    files
}

/// The name after each `prefix` in `text` that does not continue a longer
/// word (`libvist serve`, `vist-core`), with the byte offset of the prefix.
fn names_after<'a>(text: &'a str, prefix: &str) -> Vec<(usize, &'a str)> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices(prefix) {
        let glued = text[..at]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '-');
        let rest = &text[at + prefix.len()..];
        let len = rest.find(|c: char| !name_char(c)).unwrap_or(rest.len());
        if !glued && rest.starts_with(|c: char| c.is_ascii_lowercase()) {
            out.push((at, &rest[..len]));
        }
    }
    out
}

fn name_char(c: char) -> bool {
    c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_'
}

#[test]
fn documented_commands_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let subcommands: Vec<&str> = names_after(vist::cli::USAGE, "vist ")
        .into_iter()
        .map(|(_, sub)| sub)
        .collect();
    assert!(subcommands.contains(&"serve"), "{subcommands:?}");
    let bins = root.join("crates/vist-bench/src/bin");
    let mut wrong = Vec::new();
    let mut seen = 0;
    for file in docs(root) {
        let text = std::fs::read_to_string(&file).unwrap();
        let name = file.strip_prefix(root).unwrap().display().to_string();
        let line = |at: usize| text[..at].matches('\n').count() + 1;
        for (at, sub) in names_after(&text, "vist ") {
            seen += 1;
            if !subcommands.contains(&sub) {
                wrong.push(format!(
                    "{name}:{}: `vist {sub}` is no subcommand",
                    line(at)
                ));
            }
        }
        for (at, bin) in names_after(&text, BENCH_BIN) {
            seen += 1;
            if !bins.join(format!("{bin}.rs")).is_file() {
                wrong.push(format!("{name}:{}: no vist-bench binary `{bin}`", line(at)));
            }
        }
    }
    assert!(seen > 0, "the scan found no command at all");
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
