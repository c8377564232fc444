//! The workspace-invariant linter behind `cargo xtask lint`.
//!
//! Five rules encode conventions this repo established in earlier PRs (see
//! ARCHITECTURE.md, "Static analysis & concurrency audit"):
//!
//! 1. `safety-comment` — every `unsafe` site (block, `unsafe fn`, `unsafe
//!    impl`) carries a `// SAFETY:` (or `/// # Safety`) comment within the
//!    preceding [`SAFETY_LOOKBACK`] lines.
//! 2. `determinism` — result-producing code under the library roots
//!    (`crates/*`) must not read wall clocks (`Instant`, `SystemTime`),
//!    thread identity (`thread::current`), or use the randomized-iteration
//!    hash containers (`HashMap`, `HashSet`). Legitimate uses (keyed lookups
//!    that never iterate into results, benchmark timing) are allowlisted
//!    with a reason in `xtask/lint-allow.txt`.
//! 3. `no-panic-decode` — the hardened surfaces listed in
//!    [`Config::hardened`] parse untrusted bytes or serve the service's
//!    queries and batches, and must stay panic-free: no `unwrap`/`expect`,
//!    no `panic!` family, no asserts.
//! 4. `non-exhaustive-error-enum` — every `pub enum *Error` under the
//!    library roots is `#[non_exhaustive]`, so downstream matches keep
//!    compiling when a variant is added.
//! 5. `relaxed-ordering` — every `Ordering::Relaxed` carries a nearby
//!    `// ordering:` comment justifying why relaxed suffices (the loom
//!    suite model-checks the pool's uses; the comment records the argument).
//!
//! Test code is exempt from every rule except `safety-comment`: files under
//! a package's `tests/` or `benches/` target directory, and `#[cfg(test)]`
//! modules (tracked by brace depth).
//!
//! The scanner is line-based over comment- and string-stripped source. It is
//! a convention enforcer for first-party code, not a parser: pathological
//! formatting can evade it, and that is acceptable — the rules exist to stop
//! honest drift, and CI runs it on every change.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// How many lines above an `unsafe` site a `SAFETY:` comment may sit.
pub const SAFETY_LOOKBACK: usize = 6;
/// How many lines above an `Ordering::Relaxed` an `ordering:` comment may sit.
pub const ORDERING_LOOKBACK: usize = 8;

/// What to scan and which files get the stricter per-surface rules.
pub struct Config {
    /// Directories (relative to the scan root) walked for `.rs` files.
    pub roots: Vec<PathBuf>,
    /// Allowlist file (relative to the scan root); `None` or a missing file
    /// means an empty allowlist.
    pub allowlist: Option<PathBuf>,
    /// Files (relative to the scan root) held to `no-panic-decode`.
    pub hardened: Vec<PathBuf>,
    /// Path prefixes whose code is "library" code: `determinism` and
    /// `non-exhaustive-error-enum` apply only here.
    pub library_roots: Vec<PathBuf>,
}

impl Config {
    /// The real workspace configuration `cargo xtask lint` runs with.
    pub fn workspace(root: &Path) -> Config {
        let roots = ["crates", "compat", "examples", "tests", "xtask/src"]
            .iter()
            .map(PathBuf::from)
            .filter(|dir| root.join(dir).is_dir())
            .collect();
        Config {
            roots,
            allowlist: Some(PathBuf::from("xtask/lint-allow.txt")),
            hardened: vec![
                PathBuf::from("crates/graph/src/snapshot.rs"),
                PathBuf::from("crates/graph/src/io.rs"),
                PathBuf::from("crates/service/src/store.rs"),
                PathBuf::from("crates/service/src/batch.rs"),
                PathBuf::from("crates/service/src/service.rs"),
                PathBuf::from("crates/runtime/src/frozen.rs"),
                PathBuf::from("crates/runtime/src/ball_executor.rs"),
                PathBuf::from("crates/runtime/src/scratch.rs"),
            ],
            library_roots: vec![PathBuf::from("crates")],
        }
    }
}

/// One rule violation, formatted as `path:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path relative to the scan root, with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier, e.g. `safety-comment`.
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.path, self.line, self.rule, self.message)
    }
}

/// Runs every rule over the configured roots and returns the surviving
/// violations, sorted by path and line. An empty vector means clean.
pub fn run(root: &Path, config: &Config) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut allow = match &config.allowlist {
        Some(rel) => load_allowlist(root, rel, &mut violations),
        None => Vec::new(),
    };

    let mut files = Vec::new();
    for dir in &config.roots {
        collect_rs_files(&root.join(dir), &mut files);
    }
    files.sort();

    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/");
        match fs::read_to_string(path) {
            Ok(source) => {
                let file = analyze(&rel, &source);
                check_file(&file, config, &mut allow, &mut violations);
            }
            Err(err) => violations.push(Violation {
                path: rel,
                line: 0,
                rule: "io",
                message: format!("unreadable source file: {err}"),
            }),
        }
    }

    // A stale allowlist entry is itself a violation: the list documents
    // *live* exceptions, and dead entries would silently re-permit the
    // pattern if the code grows it back.
    let allow_path = config
        .allowlist
        .as_ref()
        .map(|p| p.to_string_lossy().replace('\\', "/"))
        .unwrap_or_default();
    for entry in &allow {
        if !entry.used {
            violations.push(Violation {
                path: allow_path.clone(),
                line: entry.line,
                rule: "allowlist",
                message: format!(
                    "stale entry `{} {}`: nothing matches it any more — remove it",
                    entry.path, entry.rule
                ),
            });
        }
    }

    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    violations
}

/// One allowlist line: `<path> <rule>  # reason`.
struct AllowEntry {
    path: String,
    rule: String,
    /// Line in the allowlist file, for stale-entry reports.
    line: usize,
    used: bool,
}

fn load_allowlist(root: &Path, rel: &Path, violations: &mut Vec<Violation>) -> Vec<AllowEntry> {
    let display = rel.to_string_lossy().replace('\\', "/");
    let Ok(text) = fs::read_to_string(root.join(rel)) else {
        return Vec::new();
    };
    let mut entries = Vec::new();
    for (index, raw) in text.lines().enumerate() {
        let line = index + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let (spec, reason) = match trimmed.split_once('#') {
            Some((spec, reason)) => (spec.trim(), reason.trim()),
            None => (trimmed, ""),
        };
        let fields: Vec<&str> = spec.split_whitespace().collect();
        if fields.len() != 2 {
            violations.push(Violation {
                path: display.clone(),
                line,
                rule: "allowlist",
                message: format!(
                    "malformed entry `{trimmed}` (expected `<path> <rule>  # reason`)"
                ),
            });
            continue;
        }
        if reason.is_empty() {
            violations.push(Violation {
                path: display.clone(),
                line,
                rule: "allowlist",
                message: format!(
                    "entry `{} {}` has no reason — every exception must say why it is sound",
                    fields[0], fields[1]
                ),
            });
            continue;
        }
        entries.push(AllowEntry {
            path: fields[0].to_string(),
            rule: fields[1].to_string(),
            line,
            used: false,
        });
    }
    entries
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name == "target") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// A source line split into its code text (string literals blanked) and the
/// concatenated text of any comments ending on it.
#[derive(Default)]
struct LineText {
    code: String,
    comment: String,
}

struct SourceFile {
    rel: String,
    lines: Vec<LineText>,
    /// `lines[i]` is inside a `#[cfg(test)]` item.
    in_test: Vec<bool>,
    /// The whole file is a test or bench target (under `tests/`/`benches/`).
    is_test_target: bool,
}

fn analyze(rel: &str, source: &str) -> SourceFile {
    let lines = strip_lines(source);
    let in_test = mark_cfg_test(&lines);
    // The first component is the package directory; a `tests` or `benches`
    // directory anywhere below it marks a cargo test/bench target. (The
    // workspace's integration-test *package* is itself named `tests`, so the
    // first component deliberately does not count.)
    let is_test_target = Path::new(rel)
        .components()
        .skip(1)
        .any(|c| matches!(c.as_os_str().to_str(), Some("tests" | "benches")));
    SourceFile { rel: rel.to_string(), lines, in_test, is_test_target }
}

/// Splits source into per-line code and comment text: line and block
/// comments are routed to `comment`, string/char literal *contents* are
/// blanked from `code` (the delimiting quotes survive), and everything else
/// stays in `code`. Multi-line strings and block comments carry their state
/// across lines; raw strings (`r#"…"#`) and nested block comments are
/// handled; `'a` lifetimes are distinguished from `'a'` char literals.
fn strip_lines(source: &str) -> Vec<LineText> {
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
    }
    let chars: Vec<char> = source.chars().collect();
    let mut lines = vec![LineText::default()];
    let mut state = State::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if matches!(state, State::LineComment) {
                state = State::Code;
            }
            lines.push(LineText::default());
            i += 1;
            continue;
        }
        let line = lines.last_mut().expect("lines is never empty");
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    line.code.push('"');
                    state = State::Str;
                    i += 1;
                } else if c == 'r' || (c == 'b' && next == Some('r')) {
                    let at = if c == 'b' { i + 1 } else { i };
                    if let Some(hashes) = raw_string_hashes(&chars, at) {
                        line.code.push('"');
                        state = State::RawStr(hashes);
                        i = at + 2 + hashes as usize;
                    } else {
                        line.code.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    if let Some(end) = char_literal_end(&chars, i) {
                        line.code.push_str("''");
                        i = end + 1;
                    } else {
                        line.code.push('\'');
                        i += 1;
                    }
                } else {
                    line.code.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                line.comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    state = if depth == 1 { State::Code } else { State::BlockComment(depth - 1) };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    line.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    // Skip the escaped character, but never skip a newline:
                    // a `\` line continuation must still break the line.
                    i += if chars.get(i + 1) == Some(&'\n') { 1 } else { 2 };
                } else if c == '"' {
                    line.code.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                let n = hashes as usize;
                if c == '"' && (1..=n).all(|k| chars.get(i + k) == Some(&'#')) {
                    line.code.push('"');
                    state = State::Code;
                    i += 1 + n;
                } else {
                    i += 1;
                }
            }
        }
    }
    lines
}

/// If `chars[at] == 'r'` begins a raw string, returns its hash count.
fn raw_string_hashes(chars: &[char], at: usize) -> Option<u32> {
    debug_assert_eq!(chars.get(at), Some(&'r'));
    let mut hashes = 0u32;
    let mut j = at + 1;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (chars.get(j) == Some(&'"')).then_some(hashes)
}

/// If `chars[at] == '\''` begins a char (or byte-char) literal, returns the
/// index of its closing quote; `None` means it is a lifetime.
fn char_literal_end(chars: &[char], at: usize) -> Option<usize> {
    debug_assert_eq!(chars.get(at), Some(&'\''));
    if chars.get(at + 1) == Some(&'\\') {
        // Escapes are at most `\u{10FFFF}` — scan a short bounded window.
        (at + 3..at + 12).find(|&j| chars.get(j) == Some(&'\''))
    } else if chars.get(at + 2) == Some(&'\'') && chars.get(at + 1) != Some(&'\'') {
        Some(at + 2)
    } else {
        None
    }
}

/// Marks lines inside `#[cfg(test)]` items by tracking brace depth from the
/// attribute to the close of the item it introduces.
fn mark_cfg_test(lines: &[LineText]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut depth: i64 = 0;
    let mut region_close: Option<i64> = None;
    let mut pending = false;
    for (index, line) in lines.iter().enumerate() {
        if region_close.is_none()
            && (line.code.contains("#[cfg(test)]") || line.code.contains("#[cfg(all(test"))
        {
            pending = true;
        }
        in_test[index] = pending || region_close.is_some();
        for c in line.code.chars() {
            match c {
                '{' => {
                    if pending {
                        region_close = Some(depth);
                        pending = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if region_close.is_some_and(|close| depth <= close) {
                        region_close = None;
                    }
                }
                _ => {}
            }
        }
    }
    in_test
}

/// True when `code` contains `word` with non-identifier characters (or the
/// line boundary) on both sides.
fn word_match(code: &str, word: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let before = code[..start].chars().next_back().is_none_or(|c| !is_ident(c));
        let after = code[end..].chars().next().is_none_or(|c| !is_ident(c));
        if before && after {
            return true;
        }
        from = end;
    }
    false
}

fn comment_near(
    file: &SourceFile,
    line: usize,
    lookback: usize,
    matches: impl Fn(&str) -> bool,
) -> bool {
    let from = line.saturating_sub(lookback);
    file.lines[from..=line].iter().any(|l| matches(&l.comment))
}

fn under(rel: &str, prefixes: &[PathBuf]) -> bool {
    prefixes.iter().any(|prefix| Path::new(rel).starts_with(prefix))
}

fn check_file(
    file: &SourceFile,
    config: &Config,
    allow: &mut [AllowEntry],
    violations: &mut Vec<Violation>,
) {
    let library = under(&file.rel, &config.library_roots);
    let hardened = config.hardened.iter().any(|h| Path::new(&file.rel) == h);
    let mut pending = Vec::new();
    // Dedup key so e.g. a file full of `HashMap` lookups reports the token
    // once per file, not once per line.
    let mut reported_tokens: BTreeSet<&'static str> = BTreeSet::new();

    for (index, line) in file.lines.iter().enumerate() {
        let n = index + 1;
        let code = line.code.as_str();

        // Rule 1: safety-comment — applies everywhere, test code included.
        if word_match(code, "unsafe")
            && !comment_near(file, index, SAFETY_LOOKBACK, |c| {
                c.contains("SAFETY:") || c.contains("# Safety")
            })
        {
            pending.push(Violation {
                path: file.rel.clone(),
                line: n,
                rule: "safety-comment",
                message: format!(
                    "`unsafe` without a `// SAFETY:` comment within the preceding {SAFETY_LOOKBACK} lines"
                ),
            });
        }

        let exempt = file.is_test_target || file.in_test[index];

        // Rule 2: determinism — library code only.
        if library && !exempt {
            let tokens: [(&str, bool, &str); 5] = [
                (
                    "Instant",
                    word_match(code, "Instant"),
                    "wall-clock reads are nondeterministic across runs",
                ),
                (
                    "SystemTime",
                    word_match(code, "SystemTime"),
                    "wall-clock reads are nondeterministic across runs",
                ),
                (
                    "thread::current",
                    code.contains("thread::current"),
                    "thread identity leaks scheduling nondeterminism",
                ),
                (
                    "HashMap",
                    word_match(code, "HashMap"),
                    "iteration order is randomized; keyed lookups that never iterate into results need an allowlist entry saying so",
                ),
                (
                    "HashSet",
                    word_match(code, "HashSet"),
                    "iteration order is randomized; membership-only uses need an allowlist entry saying so",
                ),
            ];
            for (token, hit, why) in tokens {
                if hit && !reported_tokens.contains(token) {
                    reported_tokens.insert(token);
                    pending.push(Violation {
                        path: file.rel.clone(),
                        line: n,
                        rule: "determinism",
                        message: format!("`{token}` in result-producing code: {why}"),
                    });
                }
            }
        }

        // Rule 3: no-panic-decode — hardened untrusted-input surfaces.
        if hardened && !exempt {
            // Method tokens match by substring; macro tokens by word so
            // `debug_assert_eq!` (compiled out of release decode paths, used
            // for encode-side invariants on trusted data) does not fire.
            let method_hit = |token: &str| code.contains(token);
            let macro_hit = |token: &str| word_match(code, token);
            for (token, hit) in [
                (".unwrap()", method_hit(".unwrap()")),
                (".expect(", method_hit(".expect(")),
                ("panic!", macro_hit("panic!")),
                ("unreachable!", macro_hit("unreachable!")),
                ("todo!", macro_hit("todo!")),
                ("unimplemented!", macro_hit("unimplemented!")),
                ("assert!", macro_hit("assert!")),
                ("assert_eq!", macro_hit("assert_eq!")),
                ("assert_ne!", macro_hit("assert_ne!")),
            ] {
                if hit {
                    pending.push(Violation {
                        path: file.rel.clone(),
                        line: n,
                        rule: "no-panic-decode",
                        message: format!(
                            "`{token}` on a hardened decode surface — untrusted input must produce `Err`, never a panic"
                        ),
                    });
                }
            }
        }

        // Rule 4: non-exhaustive-error-enum — library code only.
        if library && !exempt {
            if let Some(name) = public_error_enum_name(code) {
                let annotated = (0..index)
                    .rev()
                    .map(|j| &file.lines[j])
                    .take_while(|l| {
                        let t = l.code.trim();
                        t.is_empty() || t.starts_with("#[")
                    })
                    .any(|l| l.code.contains("non_exhaustive"));
                if !annotated {
                    pending.push(Violation {
                        path: file.rel.clone(),
                        line: n,
                        rule: "non-exhaustive-error-enum",
                        message: format!(
                            "public error enum `{name}` is not `#[non_exhaustive]` — adding a variant would break downstream matches"
                        ),
                    });
                }
            }
        }

        // Rule 5: relaxed-ordering — everywhere outside tests.
        if !exempt
            && code.contains("Ordering::Relaxed")
            && !comment_near(file, index, ORDERING_LOOKBACK, |c| c.contains("ordering:"))
        {
            pending.push(Violation {
                path: file.rel.clone(),
                line: n,
                rule: "relaxed-ordering",
                message: format!(
                    "`Ordering::Relaxed` without an `// ordering:` justification within the preceding {ORDERING_LOOKBACK} lines"
                ),
            });
        }
    }

    for violation in pending {
        let allowed = allow
            .iter_mut()
            .find(|entry| entry.path == violation.path && entry.rule == violation.rule);
        match allowed {
            Some(entry) => entry.used = true,
            None => violations.push(violation),
        }
    }
}

/// If `code` declares a public enum whose name ends in `Error`, returns the
/// name.
fn public_error_enum_name(code: &str) -> Option<&str> {
    let trimmed = code.trim_start();
    let rest = trimmed.strip_prefix("pub enum ")?;
    let name: &str =
        rest.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).next().unwrap_or("");
    name.ends_with("Error").then_some(name)
}
