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
//!   (`crates/array`, `crates/store`, `crates/core/src/encoder.rs` and the
//!   datastore record types `crates/core/src/datastore/{full,pay}.rs`): timing
//!   belongs to the runtime/statistics layers; a clock read per element
//!   wrecks arena encode throughput.
//! * `unsafe-outside-mmap` — `subzero-store` keeps every `unsafe` block in
//!   `crates/store/src/mmap.rs` (the audited mmap read-path module); the
//!   token anywhere else in the crate's library code is rejected so the
//!   zero-copy surface stays reviewable in one place.
//! * `deprecated-shim` — no `#[deprecated]` and no `allow(deprecated)` in
//!   `crates/*/{src,tests,examples}`, test code included: a retired surface
//!   is deleted and its callers ported, not kept alive behind a deprecation
//!   that its own tests then silence.
//!
//! The lints are text-based by design: no `syn`, no network, no
//! dependencies — they run anywhere the repository checks out.  Each lint's
//! firing condition is pinned by a self-test seeding a violation (`cargo
//! test -p xtask`).

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

/// Files where `deprecated-shim` applies: every workspace crate's
/// `src/`, `tests/` and `examples/` (the shims, which stand in for outside
/// crates, sit one level deeper and are not matched).
fn is_deprecation_checked(path: &str) -> bool {
    let mut parts = path.split('/');
    parts.next() == Some("crates")
        && parts.next().is_some()
        && matches!(parts.next(), Some("src" | "tests" | "examples"))
}

/// Files on the codec/encode hot path, where `hot-loop-timing` applies:
/// the codecs, and the datastore's per-record ingest and lookup loops
/// (`datastore/mod.rs`, which times whole batches, is exempt).
fn is_hot_path(path: &str) -> bool {
    path.starts_with("crates/array/src/")
        || path.starts_with("crates/store/src/")
        || matches!(
            path,
            "crates/core/src/encoder.rs"
                | "crates/core/src/datastore/full.rs"
                | "crates/core/src/datastore/pay.rs"
        )
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
// L5: deprecated-shim
// ---------------------------------------------------------------------------

/// The deprecation attribute on one (comment-stripped) line of code, if any:
/// `#[deprecated…]`, or `deprecated` listed in an `allow(…)`/`expect(…)`
/// (also inside `cfg_attr`).
fn deprecated_shim_hit(code: &str) -> Option<&'static str> {
    let code: String = code.split_whitespace().collect();
    if code.contains("#[deprecated") || code.contains("#![deprecated") {
        return Some("#[deprecated]");
    }
    for (opener, hit) in [
        ("allow(", "allow(deprecated)"),
        ("expect(", "expect(deprecated)"),
    ] {
        let mut from = 0;
        while let Some(pos) = code[from..].find(opener) {
            let at = from + pos;
            let in_attribute = at > 0 && matches!(code.as_bytes()[at - 1], b'[' | b'(' | b',');
            let args = &code[at + opener.len()..];
            let args = &args[..args.find(')').unwrap_or(args.len())];
            if in_attribute && args.split(',').any(|a| a == "deprecated") {
                return Some(hit);
            }
            from = at + opener.len();
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Rust-source lint driver
// ---------------------------------------------------------------------------

/// Runs the per-file Rust-source lints over `content` as if it lived at
/// repository-relative `path`.
fn lint_rust_source(path: &str, content: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if is_deprecation_checked(path) {
        // Test files and test regions too: a deprecated item's tests are
        // exactly where `allow(deprecated)` keeps it alive.
        for (idx, raw) in content.lines().enumerate() {
            if let Some(hit) = deprecated_shim_hit(strip_line_comment(raw)) {
                out.push(diag(
                    path,
                    idx + 1,
                    "deprecated-shim",
                    format!(
                        "`{hit}` keeps a retired surface alive; delete it and port \
                         its callers instead"
                    ),
                ));
            }
        }
    }
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
    fn hot_loop_timing_covers_the_record_types_not_the_batch_clock() {
        let src = "fn store_batch() { let t = Instant::now(); }\n";
        for path in [
            "crates/core/src/datastore/full.rs",
            "crates/core/src/datastore/pay.rs",
        ] {
            assert_eq!(
                lints_of(&lint_rust_source(path, src)),
                vec!["hot-loop-timing"],
                "{path}"
            );
        }
        assert!(lint_rust_source("crates/core/src/datastore/mod.rs", src).is_empty());
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
    fn deprecated_shim_fires_in_sources_tests_and_examples() {
        let src = "#[deprecated(note = \"use QuerySession\")]\npub fn old() {}\n";
        let diags = lint_rust_source(LIB_PATH, src);
        assert_eq!(lints_of(&diags), vec!["deprecated-shim"]);
        assert_eq!(diags[0].line, 1);
        assert_eq!(
            lints_of(&lint_rust_source(LIB_PATH, "#[deprecated]\nfn old() {}\n")),
            vec!["deprecated-shim"]
        );
        // Silencing the warning is banned as well, wherever the crate's own
        // code lives: integration tests, examples, and test regions.
        let src = "#![allow(deprecated)] // comparing against the shim\n";
        for path in [
            "crates/bench/tests/query_parity.rs",
            "crates/core/examples/quickstart.rs",
            "crates/optimizer/src/workload.rs",
        ] {
            assert_eq!(
                lints_of(&lint_rust_source(path, src)),
                vec!["deprecated-shim"],
                "{path}"
            );
        }
        let src = "#[cfg(test)]\n#[allow(deprecated)]\nmod tests {\n}\n";
        assert_eq!(
            lints_of(&lint_rust_source(LIB_PATH, src)),
            vec!["deprecated-shim"]
        );
        for src in [
            "#[allow(dead_code, deprecated)]\n",
            "#[cfg_attr(test, allow( deprecated ))]\n",
            "#[expect(deprecated)]\n",
        ] {
            assert_eq!(
                lints_of(&lint_rust_source(LIB_PATH, src)),
                vec!["deprecated-shim"],
                "{src}"
            );
        }
    }

    #[test]
    fn deprecated_shim_ignores_comments_lookalikes_and_tooling() {
        // Comments, other lint names and plain identifiers don't count.
        assert!(lint_rust_source(LIB_PATH, "// #[deprecated] is banned\n").is_empty());
        assert!(lint_rust_source(LIB_PATH, "/// `allow(deprecated)` is banned\n").is_empty());
        let src = "#[allow(clippy::deprecated_cfg_attr)]\nfn f() {}\n";
        assert!(lint_rust_source(LIB_PATH, src).is_empty());
        let src = "fn f(p: &Policy) { p.allow(deprecated); let deprecated = 1; }\n";
        assert!(lint_rust_source(LIB_PATH, src).is_empty());
        // The shims stand in for outside crates; tooling is not a crate.
        let src = "#[deprecated]\npub fn old() {}\n";
        assert!(lint_rust_source("crates/shims/rand/src/lib.rs", src).is_empty());
        assert!(lint_rust_source("xtask/src/main.rs", src).is_empty());
    }

    #[test]
    fn test_region_mask_tracks_braces() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn t() {\n    }\n}\nfn b() {}\n";
        let mask = test_region_mask(src);
        assert_eq!(mask, vec![false, true, true, true, true, true, false]);
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
