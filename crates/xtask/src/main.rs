//! `cargo xtask` — workspace automation (std-only, no dependencies).
//!
//! `cargo xtask ledger` runs the benchmark package (`ledger/`, a package of
//! its own outside the workspace, so `cargo test --workspace` never reaches
//! it): its tests, then its `--quick` pass, which exits non-zero unless every
//! workload is correct with no failed operation.
//!
//! `cargo xtask lint` is the source-level audit gating CI:
//!
//! 1. **SAFETY comments** — every `unsafe` block and `unsafe impl` in
//!    first-party crates (`crates/**`) must be preceded (or accompanied on
//!    the same line) by a `// SAFETY:` comment justifying it. Together with
//!    `#![deny(unsafe_op_in_unsafe_fn)]` in `ompss` this means every unsafe
//!    operation in the tree carries a written argument.
//! 2. **No panicking calls on the hot path** — `unwrap()` / `expect(` /
//!    `panic!` / `unreachable!` / `todo!` / `unimplemented!` are banned in
//!    the per-task execution path: all of `worker.rs` and `task.rs`, and the
//!    `// lint: hot-path-begin` … `// lint: hot-path-end` regions of every
//!    other file of `crates/core/src` (the tracker under `graph/`, clause
//!    resolution and the insertion tail in `runtime.rs`, the ready-queue
//!    push and pop in `scheduler.rs`). `#[cfg(test)]`
//!    modules are exempt; a deliberate site can
//!    carry `// lint: allow(panic)` on the line itself or the line above
//!    (used exactly once, for the injected-fault panic in `worker.rs`).
//! 3. **No wall-clock reads in deterministic modules** — `Instant::now` /
//!    `SystemTime::now` are banned in `failpoint.rs` (seed-deterministic
//!    fault rolls) and the vendored `proptest` (reproducible shrinking).
//!
//! Run as `cargo xtask lint` (see `.cargo/config.toml`). Exit code 0 when
//! clean, 1 with one line per violation otherwise. `cargo xtask lint
//! <file>...` lints just the named files with every rule armed — used by the
//! fixture tests to prove each lint actually fires.

use std::fmt;
use std::path::{Path, PathBuf};

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => {
            let paths: Vec<PathBuf> = args.map(PathBuf::from).collect();
            let violations = if paths.is_empty() {
                lint_workspace(&workspace_root())
            } else {
                let mut v = Vec::new();
                for p in &paths {
                    let src = match std::fs::read_to_string(p) {
                        Ok(s) => s,
                        Err(e) => {
                            eprintln!("xtask: cannot read {}: {e}", p.display());
                            std::process::exit(2);
                        }
                    };
                    v.extend(lint_file(p, &src, FileRules::all()));
                }
                v
            };
            if violations.is_empty() {
                println!("xtask lint: clean");
            } else {
                for v in &violations {
                    eprintln!("{v}");
                }
                eprintln!("xtask lint: {} violation(s)", violations.len());
                std::process::exit(1);
            }
        }
        Some("ledger") => {
            let manifest = workspace_root().join("ledger/Cargo.toml");
            let cargo = |head: &[&str], tail: &[&str]| {
                let status = std::process::Command::new("cargo")
                    .args(head)
                    .arg("--manifest-path")
                    .arg(&manifest)
                    .args(tail)
                    .status()
                    .expect("cargo is on PATH");
                if !status.success() {
                    std::process::exit(status.code().unwrap_or(1));
                }
            };
            cargo(&["test", "--release", "--offline"], &[]);
            cargo(
                &["run", "--release", "--quiet", "--offline"],
                &["--", "--quick"],
            );
        }
        Some(other) => {
            eprintln!("xtask: unknown subcommand `{other}` (expected `lint` or `ledger`)");
            std::process::exit(2);
        }
        None => {
            eprintln!("usage: cargo xtask lint [file...] | cargo xtask ledger");
            std::process::exit(2);
        }
    }
}

/// The workspace root: `CARGO_MANIFEST_DIR` is `crates/xtask`.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

/// One lint finding, printed `path:line: [rule] message`.
#[derive(Debug)]
pub struct Violation {
    pub path: PathBuf,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Which rules apply to one file.
#[derive(Clone, Copy)]
pub struct FileRules {
    /// `unsafe` blocks/impls need `// SAFETY:`.
    pub safety: bool,
    /// Panicking calls banned: `Everywhere`, or only inside
    /// `lint: hot-path-begin/end` markers.
    pub panic: PanicScope,
    /// Wall-clock reads banned.
    pub wallclock: bool,
}

#[derive(Clone, Copy, PartialEq)]
pub enum PanicScope {
    Off,
    Everywhere,
    MarkedRegions,
}

impl FileRules {
    pub fn all() -> Self {
        FileRules {
            safety: true,
            panic: PanicScope::Everywhere,
            wallclock: true,
        }
    }
}

/// Walk the workspace and apply the per-file policy.
pub fn lint_workspace(root: &Path) -> Vec<Violation> {
    let mut files = Vec::new();
    // First-party source only: vendored stand-ins mirror external crates'
    // APIs and keep their upstream idiom — except `vendor/proptest`, whose
    // *determinism* the test suites rely on, so it gets the wall-clock rule.
    collect_rs(&root.join("crates"), &mut files);
    collect_rs(&root.join("src"), &mut files);
    collect_rs(&root.join("tests"), &mut files);
    collect_rs(&root.join("vendor/proptest/src"), &mut files);
    files.sort();

    let mut violations = Vec::new();
    for path in files {
        let Some(rules) = rules_for(root, &path) else {
            continue;
        };
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        violations.extend(lint_file(&path, &src, rules));
    }
    violations
}

/// The workspace lint policy, per file. `None` = skip entirely.
fn rules_for(root: &Path, path: &Path) -> Option<FileRules> {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let rel_str = rel.to_string_lossy().replace('\\', "/");
    // Lint fixtures are deliberately dirty.
    if rel_str.contains("/fixtures/") {
        return None;
    }
    let file = rel.file_name()?.to_string_lossy().into_owned();
    let in_core = rel_str.starts_with("crates/core/src/");
    let panic = if in_core && (file == "worker.rs" || file == "task.rs") {
        PanicScope::Everywhere
    } else if in_core {
        PanicScope::MarkedRegions
    } else {
        PanicScope::Off
    };
    let wallclock = (in_core && file == "failpoint.rs") || rel_str.starts_with("vendor/proptest/");
    Some(FileRules {
        safety: !rel_str.starts_with("vendor/"),
        panic,
        wallclock,
    })
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Minimal per-line source classification shared by the three rules.
struct Line<'a> {
    /// Code portion: the raw line with any `//` comment tail removed, blank
    /// if the whole line is a comment or sits inside a `/* */` block.
    code: &'a str,
    /// Comment portion (everything from `//`, or the whole line inside a
    /// block comment).
    comment: &'a str,
}

/// Split source into lines, separating code from comments. String literals
/// are not tracked (no lint pattern appears in any first-party literal);
/// block comments are tracked across lines.
fn split_lines(src: &str) -> Vec<Line<'_>> {
    let mut out = Vec::new();
    let mut in_block = false;
    for raw in src.lines() {
        if in_block {
            if let Some(end) = raw.find("*/") {
                in_block = false;
                // Code may resume after the terminator; comment nesting and
                // same-line reopen are not used in this tree.
                out.push(Line {
                    code: &raw[end + 2..],
                    comment: &raw[..end],
                });
            } else {
                out.push(Line {
                    code: "",
                    comment: raw,
                });
            }
            continue;
        }
        let line_comment = raw.find("//");
        let block_open = raw.find("/*");
        match (line_comment, block_open) {
            (Some(lc), bo) if bo.is_none_or(|b| lc < b) => out.push(Line {
                code: &raw[..lc],
                comment: &raw[lc..],
            }),
            (Some(lc), None) => out.push(Line {
                code: &raw[..lc],
                comment: &raw[lc..],
            }),
            (_, Some(bo)) => {
                if let Some(rel_end) = raw[bo..].find("*/") {
                    out.push(Line {
                        code: &raw[..bo],
                        comment: &raw[bo..bo + rel_end + 2],
                    });
                } else {
                    in_block = true;
                    out.push(Line {
                        code: &raw[..bo],
                        comment: &raw[bo..],
                    });
                }
            }
            (None, None) => out.push(Line {
                code: raw,
                comment: "",
            }),
        }
    }
    out
}

/// Track `#[cfg(test)] mod … { … }` spans so test code is exempt from the
/// panic rule: when a `#[cfg(test)]` attribute is followed by a `mod` item,
/// every line until its closing brace is flagged as test code.
fn test_lines(lines: &[Line<'_>]) -> Vec<bool> {
    let mut flags = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let code = lines[i].code.trim();
        if code.starts_with("#[cfg(test)]") {
            // Find the following item; only `mod` opens an exempt span.
            let mut j = i + 1;
            while j < lines.len() {
                let next = lines[j].code.trim();
                if next.is_empty() || next.starts_with("#[") {
                    j += 1;
                    continue;
                }
                break;
            }
            // `mod`, `pub mod`, `pub(crate) mod`: a test module may share a
            // helper with its siblings.
            if j < lines.len()
                && ["mod ", "pub mod ", "pub(crate) mod "]
                    .iter()
                    .any(|m| lines[j].code.trim().starts_with(m))
            {
                let mut depth = 0i64;
                let mut opened = false;
                while j < lines.len() {
                    flags[j] = true;
                    for c in lines[j].code.chars() {
                        match c {
                            '{' => {
                                depth += 1;
                                opened = true;
                            }
                            '}' => depth -= 1,
                            _ => {}
                        }
                    }
                    if opened && depth <= 0 {
                        break;
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    flags
}

const PANIC_PATTERNS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

const WALLCLOCK_PATTERNS: &[&str] = &["Instant::now", "SystemTime::now"];

/// Apply `rules` to one file.
pub fn lint_file(path: &Path, src: &str, rules: FileRules) -> Vec<Violation> {
    let lines = split_lines(src);
    let tests = test_lines(&lines);
    let mut violations = Vec::new();
    let mut in_hot = rules.panic == PanicScope::Everywhere;

    for (i, line) in lines.iter().enumerate() {
        let lineno = i + 1;
        if rules.panic == PanicScope::MarkedRegions {
            if line.comment.contains("lint: hot-path-begin") {
                in_hot = true;
            } else if line.comment.contains("lint: hot-path-end") {
                in_hot = false;
            }
        }

        if rules.safety {
            let code = line.code;
            let has_unsafe = find_word(code, "unsafe").is_some_and(|rest| {
                let rest = rest.trim_start();
                // Blocks and impls need justification; `unsafe fn` signatures
                // document their contract in `# Safety` rustdoc instead, and
                // `deny(unsafe_op_in_unsafe_fn)` forces their bodies to use
                // commented inner blocks.
                rest.starts_with('{') || rest.starts_with("impl")
            });
            if has_unsafe && !has_safety_comment(&lines, i) {
                violations.push(Violation {
                    path: path.to_path_buf(),
                    line: lineno,
                    rule: "safety-comment",
                    message: "`unsafe` without a preceding `// SAFETY:` comment".into(),
                });
            }
        }

        if rules.panic != PanicScope::Off && in_hot && !tests[i] {
            if let Some(pat) = PANIC_PATTERNS.iter().find(|p| line.code.contains(**p)) {
                let allowed = line.comment.contains("lint: allow(panic)")
                    || (i > 0 && lines[i - 1].comment.contains("lint: allow(panic)"))
                    || (i > 1 && lines[i - 2].comment.contains("lint: allow(panic)"));
                if !allowed {
                    violations.push(Violation {
                        path: path.to_path_buf(),
                        line: lineno,
                        rule: "hot-path-panic",
                        message: format!("`{pat}` on the hot path"),
                    });
                }
            }
        }

        if rules.wallclock {
            if let Some(pat) = WALLCLOCK_PATTERNS.iter().find(|p| line.code.contains(**p)) {
                violations.push(Violation {
                    path: path.to_path_buf(),
                    line: lineno,
                    rule: "wall-clock",
                    message: format!("`{pat}` in a deterministic module"),
                });
            }
        }
    }
    violations
}

/// `word` present in `code` with no identifier character on either side;
/// returns the text after the match.
fn find_word<'a>(code: &'a str, word: &str) -> Option<&'a str> {
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let abs = start + pos;
        let before_ok = abs == 0
            || !code[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = &code[abs + word.len()..];
        let after_ok = !after
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return Some(after);
        }
        start = abs + word.len();
    }
    None
}

/// A `SAFETY:` comment counts when it appears on the `unsafe` line itself or
/// in the contiguous comment/attribute block directly above it. Consecutive
/// `unsafe impl` lines (the `Send` + `Sync` pair idiom) share one comment.
fn has_safety_comment(lines: &[Line<'_>], idx: usize) -> bool {
    if lines[idx].comment.contains("SAFETY:") {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let line = &lines[i];
        let code = line.code.trim();
        // (Split literal so the linter does not match its own source.)
        let unsafe_impl = concat!("unsafe", " impl");
        let is_annotation =
            code.is_empty() || code.starts_with("#[") || code.starts_with(unsafe_impl);
        if line.comment.contains("SAFETY:") {
            return true;
        }
        if !is_annotation || (code.is_empty() && line.comment.is_empty()) {
            // A code line (or a fully blank line) ends the comment block.
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(name: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(name)
    }

    fn lint_fixture(name: &str) -> Vec<Violation> {
        let path = fixture(name);
        let src = std::fs::read_to_string(&path).expect("fixture readable");
        lint_file(&path, &src, FileRules::all())
    }

    #[test]
    fn fixture_trips_every_rule() {
        let violations = lint_fixture("dirty.rs");
        let rules: Vec<&str> = violations.iter().map(|v| v.rule).collect();
        assert!(
            rules.contains(&"safety-comment"),
            "uncommented unsafe must be reported: {violations:?}"
        );
        assert!(
            rules.contains(&"hot-path-panic"),
            "unwrap/expect/panic must be reported: {violations:?}"
        );
        assert!(
            rules.contains(&"wall-clock"),
            "Instant::now must be reported: {violations:?}"
        );
        // And the commented unsafe / allowlisted panic / test-module panic in
        // the same fixture must NOT be reported.
        assert_eq!(
            violations.len(),
            5,
            "exactly the marked violations fire: {violations:?}"
        );
    }

    #[test]
    fn workspace_tree_is_clean() {
        let root = super::workspace_root();
        // Only meaningful when run in the source tree.
        assert!(root.join("Cargo.toml").exists());
        let violations = lint_workspace(&root);
        assert!(
            violations.is_empty(),
            "workspace lint must pass:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn marked_region_rule_follows_the_core_crate() {
        let root = super::workspace_root();
        let scope = |rel: &str| rules_for(&root, &root.join(rel)).map(|r| r.panic);
        for file in [
            "mod.rs",
            "gate.rs",
            "history.rs",
            "index.rs",
            "complete.rs",
            "plan.rs",
        ] {
            let rel = format!("crates/core/src/graph/{file}");
            assert!(scope(&rel) == Some(PanicScope::MarkedRegions), "{rel}");
        }
        // All of `worker.rs` and `task.rs` (node arming, the slab).
        assert!(scope("crates/core/src/worker.rs") == Some(PanicScope::Everywhere));
        assert!(scope("crates/core/src/task.rs") == Some(PanicScope::Everywhere));
        assert!(scope("crates/core/src/runtime.rs") == Some(PanicScope::MarkedRegions));
        assert!(scope("crates/core/src/capture.rs") == Some(PanicScope::MarkedRegions));
        assert!(scope("crates/service/src/service.rs") == Some(PanicScope::Off));
        // The rule bites inside a marked region of such a file, and only there.
        let gate = root.join("crates/core/src/graph/gate.rs");
        let src = "fn a() { x.unwrap(); }\n// lint: hot-path-begin\nfn b() { y.unwrap(); }\n\
                   // lint: hot-path-end\nfn c() { z.unwrap(); }\n";
        let rules = rules_for(&root, &gate).expect("graph files are linted");
        let v = lint_file(&gate, src, rules);
        assert_eq!(
            v.iter().map(|v| v.line).collect::<Vec<_>>(),
            vec![3],
            "{v:?}"
        );
        // And the real files do mark their hot paths: the gate, what every
        // task crosses before it (clause resolution, the insertion tail) and
        // after it (the ready-queue push and pop).
        for rel in [
            "crates/core/src/graph/gate.rs",
            "crates/core/src/runtime.rs",
            "crates/core/src/scheduler.rs",
        ] {
            let real = std::fs::read_to_string(root.join(rel)).expect("source readable");
            assert!(real.contains("lint: hot-path-begin"), "{rel}");
        }
    }

    #[test]
    fn safety_comment_window_ends_at_code() {
        let src = "// SAFETY: ok\nlet x = 1;\nunsafe { y() };\n";
        let v = lint_file(Path::new("t.rs"), src, FileRules::all());
        assert_eq!(v.len(), 1, "comment above unrelated code must not count");
    }

    #[test]
    fn cfg_test_modules_are_exempt_from_panic_rule() {
        for vis in ["", "pub ", "pub(crate) "] {
            let src =
                format!("#[cfg(test)]\n{vis}mod tests {{\n    fn f() {{ x.unwrap(); }}\n}}\n");
            let v = lint_file(Path::new("t.rs"), &src, FileRules::all());
            assert!(v.is_empty(), "{vis:?}: {v:?}");
        }
    }
}
