//! `cargo xtask` — workspace correctness tooling.
//!
//! `cargo xtask lint` runs the project-specific, deny-by-default lints that
//! `rustc`/`clippy` cannot express (they encode *this* workspace's
//! invariants), printing `file:line: [lint] message` diagnostics and exiting
//! non-zero on any hit:
//!
//! * `sync-gateway` — all sync/thread primitives must come from
//!   `subzero::sync` (the loom-checkable gateway), never `std::sync` /
//!   `std::thread` directly; code that bypasses the gateway silently escapes
//!   the `--cfg loom` model checker.  `std::sync::Arc`/`Weak` are exempt
//!   (pure reference counting, re-exported unchanged under both cfgs), as
//!   are test regions, the shims and this tool.
//! * `lock-unwrap` — library code must not `.unwrap()`/`.expect()` lock
//!   results: a panicking holder would poison the mutex and cascade one
//!   failure into a wedged runtime.  Use
//!   `subzero::sync::{lock_or_recover, wait_or_recover}`.
//! * `hot-loop-timing` — no `Instant::now` in the codec/encode hot paths
//!   (`crates/array`, `crates/store`, `crates/core/src/encoder.rs`): timing
//!   belongs to the runtime/statistics layers; a clock read per element
//!   wrecks the arena encode throughput the benches guard.
//! * `unsafe-outside-mmap` — `subzero-store` keeps every `unsafe` block in
//!   `crates/store/src/mmap.rs` (the audited mmap read-path module); the
//!   token anywhere else in the crate's library code is rejected so the
//!   zero-copy surface stays reviewable in one place.
//! * `bench-stanza-drift` — every key in the committed `BENCH_*.json`
//!   snapshots must be declared in `ci/bench_guard.py`'s `STANZA_KEYS`
//!   table (and vice versa), so the CI guard can never silently ignore a
//!   renamed or newly-added stanza.
//!
//! The lints are text-based by design: no `syn`, no network, no
//! dependencies — they run anywhere the repository checks out.  Each lint's
//! firing condition is pinned by a self-test seeding a violation (`cargo
//! test -p xtask`).

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// One lint hit, pointing at a repository-relative file and 1-based line.
#[derive(Debug, PartialEq, Eq)]
struct Diagnostic {
    file: String,
    line: usize,
    lint: &'static str,
    message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

fn diag(file: &str, line: usize, lint: &'static str, message: String) -> Diagnostic {
    Diagnostic {
        file: file.to_string(),
        line,
        lint,
        message,
    }
}

// ---------------------------------------------------------------------------
// Source-text machinery shared by the Rust-source lints
// ---------------------------------------------------------------------------

/// Strips a trailing `//` line comment, respecting (naively) string
/// literals so `"https://…"` is not treated as a comment start.
fn strip_line_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_string = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_string => i += 1, // skip the escaped char
            b'"' => in_string = !in_string,
            b'/' if !in_string && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                return &line[..i];
            }
            _ => {}
        }
        i += 1;
    }
    line
}

/// Marks the lines belonging to `#[cfg(test)]` / `#[cfg(all(test, …))]` /
/// `#[test]` regions (the attribute, the item it covers, and everything
/// inside its braces).  Test code may use `std` primitives and unwrap locks
/// freely — poisoning a test's own mutex fails only that test.
fn test_region_mask(content: &str) -> Vec<bool> {
    let lines: Vec<&str> = content.lines().collect();
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let trimmed = lines[i].trim_start();
        let is_test_attr = trimmed.starts_with("#[cfg(test)]")
            || trimmed.starts_with("#[cfg(all(test")
            || trimmed.starts_with("#[test]");
        if !is_test_attr {
            i += 1;
            continue;
        }
        // Mask from the attribute through the end of the annotated item:
        // track brace depth (comments stripped) until it closes, or stop at
        // the first `;` for a braceless item like `mod tests;`.
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut j = i;
        while j < lines.len() {
            mask[j] = true;
            let code = strip_line_comment(lines[j]);
            for b in code.bytes() {
                match b {
                    b'{' => {
                        depth += 1;
                        opened = true;
                    }
                    b'}' => depth -= 1,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            if !opened && code.trim_end().ends_with(';') {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    mask
}

/// Whether the whole file is test/tooling territory where the Rust-source
/// lints do not apply.
fn file_is_exempt(path: &str) -> bool {
    path.starts_with("crates/shims/")
        || path.starts_with("xtask/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
}

/// The one module allowed to name `std::sync`/`std::thread`: the gateway
/// those names are banned in favour of.
fn is_sync_gateway(path: &str) -> bool {
    path == "crates/core/src/sync.rs"
}

/// Store-crate library files where `unsafe-outside-mmap` applies: everything
/// under `crates/store/src/` except the sanctioned mmap module itself.
fn is_unsafe_restricted(path: &str) -> bool {
    path.starts_with("crates/store/src/") && path != "crates/store/src/mmap.rs"
}

/// Whether one (comment-stripped) line of code contains the `unsafe` keyword
/// as a whole token.
fn has_unsafe_token(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find("unsafe") {
        let at = from + pos;
        let end = at + "unsafe".len();
        let boundary = |b: u8| !(b.is_ascii_alphanumeric() || b == b'_');
        if (at == 0 || boundary(bytes[at - 1])) && (end == bytes.len() || boundary(bytes[end])) {
            return true;
        }
        from = end;
    }
    false
}

/// Files on the codec/encode hot path, where `hot-loop-timing` applies.
fn is_hot_path(path: &str) -> bool {
    path.starts_with("crates/array/src/")
        || path.starts_with("crates/store/src/")
        || path == "crates/core/src/encoder.rs"
}

// ---------------------------------------------------------------------------
// L1: sync-gateway
// ---------------------------------------------------------------------------

/// Reports direct `std::sync`/`std::thread` mentions on one (comment- and
/// test-stripped) line of code.
fn sync_gateway_hits(code: &str) -> Vec<&'static str> {
    let mut hits = Vec::new();
    for (needle, allowed) in [
        ("std::sync", &["::Arc", "::Weak"][..]),
        ("std::thread", &[][..]),
    ] {
        let mut from = 0;
        while let Some(pos) = code[from..].find(needle) {
            let at = from + pos;
            let rest = &code[at + needle.len()..];
            let exempt = allowed.iter().any(|suffix| {
                rest.strip_prefix(suffix).is_some_and(|after| {
                    !after
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_')
                })
            });
            // `std::sync` followed by `::atomic`, `::{…}`, a bare `;` or
            // anything else non-exempt is a violation.
            if !exempt {
                hits.push(needle);
                break; // one diagnostic per needle per line is enough
            }
            from = at + needle.len();
        }
    }
    hits
}

// ---------------------------------------------------------------------------
// L2: lock-unwrap
// ---------------------------------------------------------------------------

/// Reports panicking lock-result handling on one line of code.
fn lock_unwrap_hits(code: &str) -> Vec<&'static str> {
    const PATTERNS: &[&str] = &[
        ".lock().unwrap()",
        ".lock().expect(",
        ".try_lock().unwrap()",
        ".try_lock().expect(",
        ".read().unwrap()",
        ".read().expect(",
        ".write().unwrap()",
        ".write().expect(",
    ];
    let mut hits: Vec<&'static str> = PATTERNS
        .iter()
        .copied()
        .filter(|p| code.contains(p))
        .collect();
    // Condvar waits: `.wait(guard).unwrap()` and friends.
    if (code.contains(".wait(") || code.contains(".wait_timeout("))
        && (code.contains(").unwrap()") || code.contains(").expect("))
    {
        hits.push(".wait(..).unwrap()");
    }
    hits
}

// ---------------------------------------------------------------------------
// Rust-source lint driver
// ---------------------------------------------------------------------------

/// Runs the per-file Rust-source lints over `content` as if it lived at
/// repository-relative `path`.
fn lint_rust_source(path: &str, content: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if file_is_exempt(path) {
        return out;
    }
    let mask = test_region_mask(content);
    for (idx, raw) in content.lines().enumerate() {
        if mask[idx] {
            continue;
        }
        let code = strip_line_comment(raw);
        let line = idx + 1;
        if !is_sync_gateway(path) {
            for needle in sync_gateway_hits(code) {
                out.push(diag(
                    path,
                    line,
                    "sync-gateway",
                    format!(
                        "direct `{needle}` use bypasses the `subzero::sync` gateway \
                         and escapes the loom model checker (only `std::sync::Arc`/`Weak` \
                         are exempt)"
                    ),
                ));
            }
        }
        for pattern in lock_unwrap_hits(code) {
            out.push(diag(
                path,
                line,
                "lock-unwrap",
                format!(
                    "`{pattern}` panics on a poisoned lock and cascades one failure \
                     into a wedged runtime; use `subzero::sync::lock_or_recover` / \
                     `wait_or_recover`"
                ),
            ));
        }
        if is_unsafe_restricted(path) && has_unsafe_token(code) {
            out.push(diag(
                path,
                line,
                "unsafe-outside-mmap",
                "`unsafe` outside `crates/store/src/mmap.rs`: the store crate \
                 confines all unsafe code to the audited mmap module so the \
                 zero-copy surface stays reviewable in one place"
                    .to_string(),
            ));
        }
        if is_hot_path(path) && code.contains("Instant::now") {
            out.push(diag(
                path,
                line,
                "hot-loop-timing",
                "`Instant::now` on the codec/encode hot path: a clock read per \
                 element wrecks arena-encode throughput — time at the \
                 runtime/statistics layer instead"
                    .to_string(),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L4: bench-stanza-drift
// ---------------------------------------------------------------------------

/// The declared schema of one snapshot: exact top-level and `workload` key
/// sets, with the guard-file line the entry starts on.
#[derive(Debug, Default)]
struct DeclaredStanza {
    top: BTreeSet<String>,
    workload: BTreeSet<String>,
    line: usize,
}

/// Extracts the `STANZA_KEYS` table from `ci/bench_guard.py` source text.
/// The table is a plain dict of string lists precisely so this parser (and
/// human reviewers) never need a Python interpreter.
fn parse_stanza_keys(guard_src: &str) -> Vec<(String, DeclaredStanza)> {
    let mut entries: Vec<(String, DeclaredStanza)> = Vec::new();
    let mut in_table = false;
    let mut section: Option<&'static str> = None;
    for (idx, raw) in guard_src.lines().enumerate() {
        let line = raw.trim();
        if !in_table {
            if line.starts_with("STANZA_KEYS") && line.contains('{') {
                in_table = true;
            }
            continue;
        }
        if line.starts_with('}') && !line.starts_with("},") {
            break; // end of STANZA_KEYS
        }
        if let Some(rest) = line.strip_prefix('"') {
            if let Some(end) = rest.find('"') {
                let name = &rest[..end];
                let after = &rest[end + 1..];
                if name.starts_with("BENCH_") && after.contains(':') && after.contains('{') {
                    entries.push((
                        name.to_string(),
                        DeclaredStanza {
                            line: idx + 1,
                            ..DeclaredStanza::default()
                        },
                    ));
                    section = None;
                    continue;
                }
                if name == "top" || name == "workload" {
                    section = Some(if name == "top" { "top" } else { "workload" });
                }
            }
        }
        if let (Some(sec), Some((_, entry))) = (section, entries.last_mut()) {
            let target = if sec == "top" {
                &mut entry.top
            } else {
                &mut entry.workload
            };
            // Collect every quoted string on the line except the section
            // label itself.
            let mut rest = line;
            let mut strings = Vec::new();
            while let Some(start) = rest.find('"') {
                let tail = &rest[start + 1..];
                let Some(end) = tail.find('"') else { break };
                strings.push(&tail[..end]);
                rest = &tail[end + 1..];
            }
            for s in strings {
                if s != sec {
                    target.insert(s.to_string());
                }
            }
            if line.contains(']') {
                section = None;
            }
        }
    }
    entries
}

/// Object keys found in one snapshot section, each with its 1-based line.
type KeyedLines = Vec<(String, usize)>;

/// Extracts the top-level and `workload` object keys (with 1-based lines)
/// from a `BENCH_*.json` snapshot.  A tiny event scanner, not a full JSON
/// parser: it tracks object/array nesting and which object each key string
/// belongs to — keys inside `results` arrays are deliberately out of scope.
fn json_stanza_keys(content: &str) -> (KeyedLines, KeyedLines) {
    enum Frame {
        Obj(Option<String>),
        Arr,
    }
    let mut top = Vec::new();
    let mut workload = Vec::new();
    let mut stack: Vec<Frame> = Vec::new();
    let mut pending_key: Option<String> = None;
    let mut line = 1usize;
    let mut chars = content.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\n' => line += 1,
            '"' => {
                let mut s = String::new();
                let mut escaped = false;
                for c in chars.by_ref() {
                    if escaped {
                        s.push(c);
                        escaped = false;
                    } else if c == '\\' {
                        escaped = true;
                    } else if c == '"' {
                        break;
                    } else {
                        if c == '\n' {
                            line += 1;
                        }
                        s.push(c);
                    }
                }
                // A string is a key iff the next non-whitespace char is ':'.
                let mut is_key = false;
                while let Some(&n) = chars.peek() {
                    if n.is_whitespace() {
                        if n == '\n' {
                            line += 1;
                        }
                        chars.next();
                    } else {
                        is_key = n == ':';
                        break;
                    }
                }
                if is_key && matches!(stack.last(), Some(Frame::Obj(_))) {
                    if stack.len() == 1 {
                        top.push((s.clone(), line));
                    } else if stack.len() == 2
                        && matches!(&stack[1], Frame::Obj(Some(k)) if k == "workload")
                    {
                        workload.push((s.clone(), line));
                    }
                    pending_key = Some(s);
                }
            }
            '{' => stack.push(Frame::Obj(pending_key.take())),
            '[' => {
                pending_key = None;
                stack.push(Frame::Arr);
            }
            '}' | ']' => {
                stack.pop();
            }
            _ => {}
        }
    }
    (top, workload)
}

/// Cross-checks the committed snapshots against the guard's declared
/// schema, in both directions.
fn lint_bench_stanzas(
    guard_path: &str,
    guard_src: &str,
    snapshots: &[(String, String)],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let declared = parse_stanza_keys(guard_src);
    if declared.is_empty() {
        out.push(diag(
            guard_path,
            1,
            "bench-stanza-drift",
            "no STANZA_KEYS table found — the bench guard cannot pin snapshot schemas".to_string(),
        ));
        return out;
    }
    for (name, content) in snapshots {
        let Some((_, decl)) = declared.iter().find(|(n, _)| n == name) else {
            out.push(diag(
                name,
                1,
                "bench-stanza-drift",
                format!("snapshot has no STANZA_KEYS entry in {guard_path}"),
            ));
            continue;
        };
        let (top, workload) = json_stanza_keys(content);
        for (section, found, expected) in [
            ("top-level", &top, &decl.top),
            ("workload", &workload, &decl.workload),
        ] {
            for (key, line) in found {
                if !expected.contains(key) {
                    out.push(diag(
                        name,
                        *line,
                        "bench-stanza-drift",
                        format!(
                            "{section} key {key:?} is not declared in {guard_path} \
                             STANZA_KEYS — the CI guard would silently ignore it"
                        ),
                    ));
                }
            }
            let found_names: BTreeSet<&str> = found.iter().map(|(k, _)| k.as_str()).collect();
            for key in expected {
                if !found_names.contains(key.as_str()) {
                    out.push(diag(
                        guard_path,
                        decl.line,
                        "bench-stanza-drift",
                        format!(
                            "{name}: declared {section} key {key:?} is missing from the snapshot"
                        ),
                    ));
                }
            }
        }
    }
    for (name, decl) in &declared {
        if !snapshots.iter().any(|(n, _)| n == name) {
            out.push(diag(
                guard_path,
                decl.line,
                "bench-stanza-drift",
                format!("STANZA_KEYS declares {name} but no such snapshot exists"),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Filesystem driver
// ---------------------------------------------------------------------------

fn walk_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            walk_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn run_lints(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let mut diagnostics = Vec::new();
    let mut files = Vec::new();
    for top in ["crates", "xtask"] {
        walk_rs_files(&root.join(top), &mut files);
    }
    files.sort();
    if files.is_empty() {
        return Err(format!("no Rust sources under {}", root.display()));
    }
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let content =
            std::fs::read_to_string(file).map_err(|e| format!("read {}: {e}", file.display()))?;
        diagnostics.extend(lint_rust_source(&rel, &content));
    }
    let guard_rel = "ci/bench_guard.py";
    let guard_src = std::fs::read_to_string(root.join(guard_rel))
        .map_err(|e| format!("read {guard_rel}: {e}"))?;
    let mut snapshots = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let content = std::fs::read_to_string(entry.path())
                    .map_err(|e| format!("read {name}: {e}"))?;
                snapshots.push((name, content));
            }
        }
    }
    snapshots.sort();
    diagnostics.extend(lint_bench_stanzas(guard_rel, &guard_src, &snapshots));
    diagnostics.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(diagnostics)
}

fn usage() -> ! {
    eprintln!("usage: cargo xtask lint [--root <repo-root>]");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "lint" if cmd.is_none() => cmd = Some("lint"),
            "--root" => root = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            _ => usage(),
        }
    }
    if cmd != Some("lint") {
        usage();
    }
    let root = root.unwrap_or_else(|| {
        // xtask always lives at <root>/xtask.
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("xtask has a parent directory")
            .to_path_buf()
    });
    match run_lints(&root) {
        Ok(diagnostics) if diagnostics.is_empty() => {
            println!("xtask lint: clean");
            ExitCode::SUCCESS
        }
        Ok(diagnostics) => {
            for d in &diagnostics {
                println!("{d}");
            }
            eprintln!("xtask lint: {} violation(s)", diagnostics.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask lint: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Self-tests: every lint must fire on a seeded violation and stay quiet on
// the sanctioned idioms.
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    const LIB_PATH: &str = "crates/core/src/runtime.rs";

    fn lints_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.lint).collect()
    }

    #[test]
    fn sync_gateway_fires_on_direct_std_sync() {
        let src = "use std::sync::Mutex;\n";
        let diags = lint_rust_source(LIB_PATH, src);
        assert_eq!(lints_of(&diags), vec!["sync-gateway"]);
        assert_eq!(diags[0].line, 1);
        let src = "fn f() { let t = std::thread::spawn(|| {}); t.join().unwrap(); }\n";
        assert_eq!(
            lints_of(&lint_rust_source(LIB_PATH, src)),
            vec!["sync-gateway"]
        );
    }

    #[test]
    fn sync_gateway_allows_arc_weak_gateway_and_tests() {
        assert!(lint_rust_source(LIB_PATH, "use std::sync::Arc;\n").is_empty());
        assert!(lint_rust_source(LIB_PATH, "use std::sync::Weak;\n").is_empty());
        // `Arc` in a braced list does not launder the rest of the list.
        assert_eq!(
            lints_of(&lint_rust_source(
                LIB_PATH,
                "use std::sync::{Arc, Mutex};\n"
            )),
            vec!["sync-gateway"]
        );
        // The gateway itself and the shims may name std primitives.
        assert!(
            lint_rust_source("crates/core/src/sync.rs", "pub use std::sync::Mutex;\n").is_empty()
        );
        assert!(
            lint_rust_source("crates/shims/loom/src/lib.rs", "use std::sync::Mutex;\n").is_empty()
        );
        // Test regions are exempt.
        let src = "#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n}\n";
        assert!(lint_rust_source(LIB_PATH, src).is_empty());
        let src = "#[cfg(all(test, not(loom)))]\nmod tests {\n    use std::thread;\n}\n";
        assert!(lint_rust_source(LIB_PATH, src).is_empty());
        // Comments don't count.
        assert!(lint_rust_source(LIB_PATH, "// std::sync::Mutex is banned\n").is_empty());
    }

    #[test]
    fn lock_unwrap_fires_on_panicking_lock_results() {
        let src = "fn f(m: &Mutex<u32>) { *m.lock().unwrap() += 1; }\n";
        let diags = lint_rust_source(LIB_PATH, src);
        assert_eq!(lints_of(&diags), vec!["lock-unwrap"]);
        let src = "fn f() { let g = cv.wait(g).unwrap(); }\n";
        assert_eq!(
            lints_of(&lint_rust_source(LIB_PATH, src)),
            vec!["lock-unwrap"]
        );
        let src = "fn f() { m.lock().expect(\"poisoned\"); }\n";
        assert_eq!(
            lints_of(&lint_rust_source(LIB_PATH, src)),
            vec!["lock-unwrap"]
        );
    }

    #[test]
    fn lock_unwrap_allows_recovery_and_tests() {
        // The sanctioned recovery idiom does not match.
        let src = "let g = mutex.lock().unwrap_or_else(|p| p.into_inner());\n";
        assert!(lint_rust_source(LIB_PATH, src).is_empty());
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { m.lock().unwrap(); }\n}\n";
        assert!(lint_rust_source(LIB_PATH, src).is_empty());
        // io::Read-style calls with arguments are not lock results.
        let src = "fn f() { file.read(&mut buf).unwrap(); }\n";
        assert!(lint_rust_source(LIB_PATH, src).is_empty());
    }

    #[test]
    fn daemon_crate_is_covered_by_the_workspace_lints() {
        // The server crate is deliberately *not* a sync gateway: its shard
        // workers and connection threads must go through `subzero::sync`
        // like every other library crate.
        let src = "fn f() { let t = std::thread::spawn(|| {}); t.join().unwrap(); }\n";
        assert_eq!(
            lints_of(&lint_rust_source("crates/server/src/shard.rs", src)),
            vec!["sync-gateway"]
        );
        let src = "use std::sync::mpsc;\n";
        assert_eq!(
            lints_of(&lint_rust_source("crates/server/src/server.rs", src)),
            vec!["sync-gateway"]
        );
        let src = "fn f(m: &Mutex<u32>) { *m.lock().unwrap() += 1; }\n";
        assert_eq!(
            lints_of(&lint_rust_source("crates/server/src/server.rs", src)),
            vec!["lock-unwrap"]
        );
        // The wire codec is not on the encode hot path; its integration
        // tests and the daemon binary may drive real threads and sockets.
        let src = "fn encode() { let t = Instant::now(); }\n";
        assert!(lint_rust_source("crates/server/src/protocol.rs", src).is_empty());
        let src = "fn t() { std::thread::sleep(d); m.lock().unwrap(); }\n";
        assert!(lint_rust_source("crates/server/tests/restart.rs", src).is_empty());
    }

    #[test]
    fn hot_loop_timing_fires_only_on_hot_paths() {
        let src = "fn encode() { let t = Instant::now(); }\n";
        assert_eq!(
            lints_of(&lint_rust_source("crates/array/src/lib.rs", src)),
            vec!["hot-loop-timing"]
        );
        assert_eq!(
            lints_of(&lint_rust_source("crates/store/src/kv.rs", src)),
            vec!["hot-loop-timing"]
        );
        assert_eq!(
            lints_of(&lint_rust_source("crates/core/src/encoder.rs", src)),
            vec!["hot-loop-timing"]
        );
        // Timing in the runtime layer is fine.
        assert!(lint_rust_source(LIB_PATH, src).is_empty());
    }

    #[test]
    fn unsafe_outside_mmap_fires_only_in_store_non_mmap_code() {
        let src = "fn f() { unsafe { std::hint::unreachable_unchecked() } }\n";
        assert_eq!(
            lints_of(&lint_rust_source("crates/store/src/kv.rs", src)),
            vec!["unsafe-outside-mmap"]
        );
        assert_eq!(
            lints_of(&lint_rust_source("crates/store/src/codec.rs", src)),
            vec!["unsafe-outside-mmap"]
        );
        // The sanctioned module, other crates, and store tests are exempt.
        assert!(lint_rust_source("crates/store/src/mmap.rs", src).is_empty());
        assert!(lint_rust_source(LIB_PATH, src).is_empty());
        assert!(lint_rust_source("crates/store/tests/stress.rs", src).is_empty());
        // ... which is what lets the allocation guard wrap the global
        // allocator (`unsafe impl GlobalAlloc`) from a test file.
        let src = "unsafe impl GlobalAlloc for Counting {}\n";
        assert!(lint_rust_source("crates/store/tests/alloc_guard.rs", src).is_empty());
        assert_eq!(
            lints_of(&lint_rust_source("crates/store/src/alloc_guard.rs", src)),
            vec!["unsafe-outside-mmap"]
        );
        // Comments and identifiers containing the word don't count.
        assert!(
            lint_rust_source("crates/store/src/kv.rs", "// unsafe is banned here\n").is_empty()
        );
        assert!(
            lint_rust_source("crates/store/src/kv.rs", "fn not_unsafe_at_all() {}\n").is_empty()
        );
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { unsafe {} }\n}\n";
        assert!(lint_rust_source("crates/store/src/kv.rs", src).is_empty());
    }

    #[test]
    fn test_region_mask_tracks_braces() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn t() {\n    }\n}\nfn b() {}\n";
        let mask = test_region_mask(src);
        assert_eq!(mask, vec![false, true, true, true, true, true, false]);
    }

    const GUARD: &str = r#"
STANZA_KEYS = {
    "BENCH_a.json": {
        "top": ["results", "workload"],
        "workload": ["encode", "workers"],
    },
}
"#;

    #[test]
    fn bench_stanza_clean_when_schema_matches() {
        let snap = r#"{"results": [{"nested": 1}], "workload": {"encode": "arena", "workers": 4}}"#;
        let diags = lint_bench_stanzas(
            "ci/bench_guard.py",
            GUARD,
            &[("BENCH_a.json".into(), snap.into())],
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn bench_stanza_fires_on_unknown_and_missing_keys() {
        // `extra` is undeclared; `workers` is declared but absent.
        let snap = r#"{"results": [], "extra": 1, "workload": {"encode": "arena"}}"#;
        let diags = lint_bench_stanzas(
            "ci/bench_guard.py",
            GUARD,
            &[("BENCH_a.json".into(), snap.into())],
        );
        let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        assert!(
            msgs.iter()
                .any(|m| m.contains("\"extra\"") && m.contains("not declared")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("\"workers\"") && m.contains("missing")),
            "{msgs:?}"
        );
    }

    #[test]
    fn bench_stanza_fires_on_undeclared_snapshot() {
        let diags = lint_bench_stanzas(
            "ci/bench_guard.py",
            GUARD,
            &[("BENCH_new.json".into(), "{}".into())],
        );
        assert!(diags
            .iter()
            .any(|d| d.file == "BENCH_new.json" && d.message.contains("no STANZA_KEYS entry")));
        // And the declared-but-deleted direction.
        let diags = lint_bench_stanzas("ci/bench_guard.py", GUARD, &[]);
        assert!(diags.iter().any(|d| d.message.contains("no such snapshot")));
    }

    #[test]
    fn json_key_scanner_scopes_nesting() {
        let src = r#"{"a": 1, "workload": {"w1": {"deep": 2}, "w2": []}, "b": [{"inner": 3}]}"#;
        let (top, workload) = json_stanza_keys(src);
        let top: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        let wl: Vec<&str> = workload.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(top, vec!["a", "workload", "b"]);
        assert_eq!(wl, vec!["w1", "w2"], "deep/inner keys must not leak");
    }

    #[test]
    fn lint_runs_clean_on_this_workspace() {
        // The root-level invariant the CI step enforces, kept as a test so
        // `cargo test -p xtask` alone catches drift.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("workspace root")
            .to_path_buf();
        let diags = run_lints(&root).expect("lint run");
        assert!(diags.is_empty(), "workspace lint violations:\n{diags:#?}");
    }
}
