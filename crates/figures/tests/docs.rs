//! The prose points at things that exist. README, DESIGN, EXPERIMENTS and
//! the verify skill name crate paths, module paths, `figures` ids and
//! DESIGN sections; each kind of reference is resolved here, so a rename
//! or a deletion that leaves a doc behind fails Tier 1.

use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Per doc: its inline code spans and the lines of its fenced blocks.
fn code() -> Vec<(&'static str, Vec<String>, Vec<String>)> {
    DOCS.iter()
        .map(|&doc| {
            let (mut prose, mut fenced, mut in_fence) = (String::new(), Vec::new(), false);
            for line in read(&root().join(doc)).lines() {
                if line.trim_start().starts_with("```") {
                    in_fence = !in_fence;
                } else if in_fence {
                    fenced.push(line.to_string());
                } else {
                    prose.push_str(line);
                    prose.push('\n');
                }
            }
            let spans = prose.split('`').skip(1).step_by(2).map(String::from);
            (doc, spans.collect(), fenced)
        })
        .collect()
}

fn idents(s: &str) -> impl Iterator<Item = &str> {
    s.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
}

/// Whether `name` is a module file of the crate at `dir` or a top-level
/// `pub` item (declared or re-exported) of its `lib.rs`.
fn crate_has(dir: &Path, name: &str) -> bool {
    let src = dir.join("src");
    let lib = read(&src.join("lib.rs"));
    src.join(format!("{name}.rs")).exists()
        || src.join(name).is_dir()
        || lib.match_indices("\npub ").any(|(i, _)| {
            let decl = &lib[i..];
            let end = [decl.find([';', '(', '<', '=']), decl.find(" {")];
            let end = end.into_iter().flatten().min().unwrap_or(decl.len());
            idents(&decl[..end]).any(|t| t == name)
        })
}

fn assert_none(kind: &str, bad: Vec<String>) {
    assert!(bad.is_empty(), "{kind}:\n  {}", bad.join("\n  "));
}

#[test]
fn crate_paths_exist() {
    let mut bad = Vec::new();
    for (doc, spans, _) in code() {
        for span in spans.iter().filter(|s| s.starts_with("crates/")) {
            let path = span.split([' ', ':', ')', ',']).next().unwrap();
            if !path.contains('*') && !root().join(path).exists() {
                bad.push(format!("{doc}: `{path}`"));
            }
        }
    }
    assert_none("missing paths", bad);
}

#[test]
fn member_paths_resolve() {
    let mut bad = Vec::new();
    for entry in fs::read_dir(root().join("crates")).unwrap() {
        let dir = entry.unwrap().path();
        let member = dir.file_name().unwrap().to_string_lossy().replace('-', "_");
        let pat = format!("{member}::");
        for (doc, spans, _) in code() {
            for span in &spans {
                for (i, _) in span.match_indices(&pat) {
                    if span[..i].ends_with(|c: char| c.is_alphanumeric() || "_:".contains(c)) {
                        continue;
                    }
                    let name = idents(&span[i + pat.len()..]).next().unwrap();
                    if !name.is_empty() && !crate_has(&dir, name) {
                        bad.push(format!("{doc}: `{member}::{name}`"));
                    }
                }
            }
        }
    }
    assert_none("no such module or pub item", bad);
}

/// Ids passed to the `figures` binary on one command line: the
/// figure-shaped tokens (`fig07`, `ext05`, `anchors`) after it, flags
/// skipped.
fn figure_ids(line: &str) -> Vec<&str> {
    let tokens: Vec<&str> = line.split('#').next().unwrap().split_whitespace().collect();
    let mut ids = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if *t != "figures" && !t.ends_with("/figures") {
            continue;
        }
        for t in tokens[i + 1..].iter().filter(|t| !t.starts_with('-')) {
            let letters = t.trim_end_matches(|c: char| c.is_ascii_digit());
            let numbered = letters.len() < t.len() && !letters.is_empty();
            if *t != "anchors" && !(numbered && letters.chars().all(|c| c.is_ascii_lowercase())) {
                break;
            }
            ids.push(*t);
        }
    }
    ids
}

#[test]
fn figure_ids_resolve() {
    let mut bad = Vec::new();
    for (doc, spans, fenced) in code() {
        for id in spans.iter().chain(&fenced).flat_map(|l| figure_ids(l)) {
            if id != "table2" && figures::figure_by_id(id).is_none() {
                bad.push(format!("{doc}: `figures {id}`"));
            }
        }
    }
    assert_none("unknown figure ids", bad);
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn design_citations_name_a_section() {
    let design = read(&root().join("DESIGN.md"));
    let heading = |n: &str| design.contains(&format!("\n## {n}. "));
    let mut sources: Vec<PathBuf> = DOCS.iter().map(|d| root().join(d)).collect();
    rust_files(&root().join("crates"), &mut sources);
    let mut bad = Vec::new();
    for source in sources {
        // Fold comment markers and line breaks, so a citation wrapped
        // across lines still reads as one.
        let flat = read(&source)
            .lines()
            .map(|l| l.trim_start().trim_start_matches(['/', '!']).trim())
            .collect::<Vec<_>>()
            .join(" ");
        for cite in flat.split("DESIGN").skip(1) {
            let cite = cite.strip_prefix(".md").unwrap_or(cite);
            let Some(n) = cite.strip_prefix(" §") else {
                continue;
            };
            let n: String = n.chars().take_while(char::is_ascii_digit).collect();
            if !n.is_empty() && !heading(&n) {
                bad.push(format!("{}: DESIGN §{n}", source.display()));
            }
        }
    }
    assert_none("no such DESIGN section", bad);
}
