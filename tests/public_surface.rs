//! No public item without a non-test caller.
//!
//! Two checks read the one [`KEEP`] list. The fast one counts names: it reads every workspace
//! crate's `src/` (the shims excluded), its bins, the façade crate and `examples/`, finds each
//! `pub fn` and `pub const`, and counts the whole-word uses of each name in non-test code with
//! comments and the text of string literals stripped (an error label such as
//! `op: "solve_upper"` is not a call): `#[cfg(test)]` items, `tests/` directories and doc
//! tests (which live in comments) count as tests. A name that appears no more often than it
//! is defined has no non-test caller. The count cannot see a method whose name other code
//! uses (`len`, `label`), so the second check asks the compiler: it marks every `pub fn` and
//! `pub const` of a `git archive` copy `#[deprecated]` and builds every library, bin and
//! example; an item no deprecation warning names has no non-test caller. It takes a fresh
//! build, so it is `#[ignore]`d here and CI runs it.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Public items kept without a non-test caller, each with its reason. An entry is the item's
/// qualified name: the path of the module that defines it, then the type of its `impl` block
/// for a method, then its name.
const KEEP: &[(&str, &str)] = &[
    (
        "linalg::cholesky::Cholesky::decompose",
        "the jitter-free factorization the linalg and gp tests compare against",
    ),
    (
        "linalg::cholesky::Cholesky::decompose_reference",
        "the textbook Cholesky that the blocked `decompose` is tested bit-for-bit against",
    ),
    (
        "linalg::vecops::ulp_diff",
        "measures the distance the blocked-versus-reference Cholesky property bounds",
    ),
    (
        "mlkit::embed::QueryEncoder::encode_query",
        "the one-query reference that `workload_embedding_is_average_of_query_embeddings` compares against",
    ),
    (
        "simdb::workload::WorkloadSpec::synthetic_oltp",
        "the fixed two-knob generator the tuner and baseline unit tests substitute for a workload",
    ),
    (
        "simdb::config::Configuration::is_empty",
        "`Configuration::len` has callers, and clippy's `len_without_is_empty` asks for its pair",
    ),
    (
        "simdb::knobs::KnobCatalogue::is_empty",
        "`KnobCatalogue::len` has callers, and clippy's `len_without_is_empty` asks for its pair",
    ),
    (
        "telemetry::clock::ManualClock::new",
        "builds the manual clock that telemetry tests time spans with",
    ),
    (
        "telemetry::clock::ManualClock::advance",
        "steps the manual clock that telemetry tests time spans with",
    ),
    (
        "telemetry::handle::TelemetryHandle::events_dropped",
        "how tests see the journal's overflow count",
    ),
    (
        "fleet::scenario::Scenario::from_json",
        "reads back the scenario text of `tests/scenario_engine.rs`'s serde round trip",
    ),
    (
        "fleet::scenario::Scenario::to_json",
        "the profile's input-determinism test compares scenario texts with it",
    ),
    (
        "fleet::fuzz::FuzzCase::from_json",
        "reads back the fuzz-case text of `tests/scenario_fuzz.rs`'s round trip",
    ),
    (
        "fleet::fuzz::RegressionCase::from_json",
        "the loader `tests/regressions.rs` reads the regression corpus with",
    ),
];

/// One source file, and its `code`: the text with every comment and the contents of every
/// string and character literal blanked; line breaks are kept, so offsets still give line
/// numbers, and an offset into `code` is one into `text`.
struct Source {
    path: PathBuf,
    text: Vec<u8>,
    code: Vec<u8>,
}

/// A `pub fn` or `pub const`: where its `pub` keyword and its name are, its name, and its
/// path within its file (the inline modules it is in, the type of its `impl` block, its
/// name).
struct PublicItem<'a> {
    pub_at: usize,
    name_at: usize,
    name: &'a str,
    path: String,
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn blank(view: &mut [u8], range: std::ops::Range<usize>) {
    for b in &mut view[range] {
        if *b != b'\n' {
            *b = b' ';
        }
    }
}

/// The end (exclusive) of the literal or comment that starts at `at`, and whether it is a
/// comment; `None` if no literal or comment starts there.
fn token_end(b: &[u8], at: usize) -> Option<(usize, bool)> {
    let next = |k: usize| b.get(at + k).copied();
    match b[at] {
        b'/' if next(1) == Some(b'/') => {
            let end = b[at..]
                .iter()
                .position(|&c| c == b'\n')
                .map_or(b.len(), |p| at + p);
            Some((end, true))
        }
        b'/' if next(1) == Some(b'*') => {
            let (mut depth, mut i) = (1, at + 2);
            while depth > 0 && i < b.len() {
                if b[i..].starts_with(b"/*") {
                    depth += 1;
                    i += 2;
                } else if b[i..].starts_with(b"*/") {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            Some((i, true))
        }
        b'"' => {
            let mut i = at + 1;
            while i < b.len() && b[i] != b'"' {
                i += if b[i] == b'\\' { 2 } else { 1 };
            }
            Some((i + 1, false))
        }
        b'r' if at == 0
            || !is_ident(b[at - 1])
            || (b[at - 1] == b'b' && (at < 2 || !is_ident(b[at - 2]))) =>
        {
            let hashes = b[at + 1..].iter().take_while(|&&c| c == b'#').count();
            if b.get(at + 1 + hashes) != Some(&b'"') {
                return None;
            }
            let mut close = vec![b'"'];
            close.extend(std::iter::repeat_n(b'#', hashes));
            let body = at + 2 + hashes;
            let end = b[body..]
                .windows(close.len())
                .position(|w| w == close.as_slice())?;
            Some((body + end + close.len(), false))
        }
        b'\'' if next(1) == Some(b'\\') => {
            let close = b[at + 3..].iter().position(|&c| c == b'\'')?;
            Some((at + 4 + close, false))
        }
        b'\'' => {
            let first = next(1)?;
            let width = match first {
                0x00..=0x7f => 1,
                0xc0..=0xdf => 2,
                0xe0..=0xef => 3,
                _ => 4,
            };
            // A lifetime or label unless one character and a closing quote follow.
            (b.get(at + 1 + width) == Some(&b'\'')).then_some((at + 2 + width, false))
        }
        _ => None,
    }
}

impl Source {
    fn read(path: PathBuf) -> Source {
        let text = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let mut code = text.clone();
        let mut i = 0;
        while i < text.len() {
            match token_end(&text, i) {
                Some((end, is_comment)) => {
                    let quotes = usize::from(!is_comment);
                    blank(&mut code, i + quotes..end - quotes);
                    i = end;
                }
                None => i += 1,
            }
        }
        let mut source = Source { path, text, code };
        source.strip_test_items();
        source
    }

    /// Blanks every item under `#[cfg(test)]`: through its first `;` or its braced body.
    fn strip_test_items(&mut self) {
        const ATTR: &[u8] = b"#[cfg(test)]";
        while let Some(start) = self.code.windows(ATTR.len()).position(|w| w == ATTR) {
            let mut depth = 0usize;
            let mut end = start + ATTR.len();
            while end < self.code.len() {
                match self.code[end] {
                    b';' if depth == 0 => break,
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                end += 1;
            }
            blank(&mut self.code, start..end + 1);
        }
    }

    /// Identifier tokens (and single punctuation bytes), with their offsets.
    fn tokens(&self) -> Vec<(usize, &str)> {
        let view = &self.code;
        let mut out = Vec::new();
        let mut i = 0;
        while i < view.len() {
            let b = view[i];
            if is_ident(b) {
                let end = view[i..]
                    .iter()
                    .position(|&c| !is_ident(c))
                    .map_or(view.len(), |p| i + p);
                if !b.is_ascii_digit() {
                    out.push((i, std::str::from_utf8(&view[i..end]).unwrap()));
                }
                i = end;
            } else {
                if b.is_ascii_punctuation() {
                    out.push((i, std::str::from_utf8(&view[i..i + 1]).unwrap()));
                }
                i += 1;
            }
        }
        out
    }

    /// Every `pub fn` and `pub const`.
    fn public_items(&self) -> Vec<PublicItem<'_>> {
        let tokens = self.tokens();
        let word = |k: usize| tokens.get(k).map_or("", |t| t.1);
        // What each open brace adds to the path of the items inside it: the type of an
        // `impl` block or the name of an inline module, if either opened it.
        let mut scopes: Vec<Option<&str>> = Vec::new();
        let mut opening = None;
        let mut items = Vec::new();
        for (k, &(at, token)) in tokens.iter().enumerate() {
            let item_start = k == 0 || matches!(word(k - 1), "}" | ";" | "{" | "]" | "unsafe");
            match token {
                "{" => scopes.push(opening.take()),
                "}" => {
                    scopes.pop();
                }
                ";" => opening = None,
                "impl" if item_start => opening = Some(impl_type(&tokens[k + 1..])),
                "mod" if word(k + 2) == "{" => opening = Some(word(k + 1)),
                _ => {}
            }
            let name_at = match (token, word(k + 1), word(k + 2), word(k + 3)) {
                ("pub", "fn", _, _) => k + 2,
                ("pub", "const" | "unsafe" | "async", "fn", _) => k + 3,
                ("pub", "const", _, ":") => k + 2,
                _ => continue,
            };
            let mut path: Vec<&str> = scopes.iter().flatten().copied().collect();
            path.push(word(name_at));
            items.push(PublicItem {
                pub_at: at,
                name_at: tokens[name_at].0,
                name: word(name_at),
                path: path.join("::"),
            });
        }
        items
    }

    fn line_of(&self, offset: usize) -> usize {
        1 + self.code[..offset].iter().filter(|&&b| b == b'\n').count()
    }
}

/// The type an `impl` header is for, given the tokens after `impl`: the last name of its
/// path (after `for` in a trait impl) before any generic arguments.
fn impl_type<'a>(header: &[(usize, &'a str)]) -> &'a str {
    let mut start = 0;
    if header.first().is_some_and(|t| t.1 == "<") {
        let mut depth = 0;
        for (k, &(_, t)) in header.iter().enumerate() {
            match t {
                "<" => depth += 1,
                ">" if header[k - 1].1 != "-" => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                start = k + 1;
                break;
            }
        }
    }
    let header = &header[start..];
    let end = header
        .iter()
        .position(|t| t.1 == "{" || t.1 == "where")
        .unwrap_or(header.len());
    let header = &header[..end];
    let ty = match header.iter().position(|t| t.1 == "for") {
        Some(f) => &header[f + 1..],
        None => header,
    };
    ty.iter()
        .map(|t| t.1)
        .take_while(|&t| t != "<")
        .filter(|t| t.bytes().next().is_some_and(|b| b.is_ascii_alphabetic()))
        .last()
        .unwrap_or("")
}

/// The module a file defines, as a path: its crate (or its bin or example), then the
/// modules below it.
fn module_path(root: &Path, file: &Path) -> String {
    let rel: Vec<&str> = file
        .strip_prefix(root)
        .unwrap_or(file)
        .iter()
        .map(|p| p.to_str().expect("UTF-8 path"))
        .collect();
    let mut path: Vec<&str> = match rel.as_slice() {
        ["crates", _, "src", "bin", rest @ ..] | ["examples", rest @ ..] => rest.to_vec(),
        ["crates", krate, "src", rest @ ..] => {
            [*krate].into_iter().chain(rest.iter().copied()).collect()
        }
        ["src", rest @ ..] => ["onlinetune_repro"]
            .into_iter()
            .chain(rest.iter().copied())
            .collect(),
        _ => rel.clone(),
    };
    if let Some(last) = path.pop() {
        let stem = last.strip_suffix(".rs").unwrap_or(last);
        if !matches!(stem, "lib" | "main" | "mod") || path.is_empty() {
            path.push(stem);
        }
    }
    path.join("::")
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every non-test source file: each crate's `src/` (shims excluded), the façade and examples.
fn non_test_sources(root: &Path) -> Vec<Source> {
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    rust_files(&root.join("examples"), &mut files);
    for entry in std::fs::read_dir(root.join("crates")).into_iter().flatten() {
        let krate = entry.expect("directory entry").path();
        if krate.file_name().is_some_and(|n| n != "shims") {
            rust_files(&krate.join("src"), &mut files);
        }
    }
    files.sort();
    files.into_iter().map(Source::read).collect()
}

/// A public item whose name has no use beyond its definitions.
struct Finding {
    path: String,
    line: usize,
    name: String,
}

fn items_without_a_non_test_caller(root: &Path) -> Vec<Finding> {
    let sources = non_test_sources(root);
    let mut uses: HashMap<&str, usize> = HashMap::new();
    for source in &sources {
        for (_, token) in source.tokens() {
            *uses.entry(token).or_default() += 1;
        }
    }
    let mut definitions: HashMap<&str, Vec<(&Source, usize)>> = HashMap::new();
    for source in &sources {
        for item in source.public_items() {
            definitions
                .entry(item.name)
                .or_default()
                .push((source, item.name_at));
        }
    }
    let mut found: Vec<Finding> = definitions
        .iter()
        .filter(|(name, sites)| uses.get(*name).copied().unwrap_or(0) <= sites.len())
        .flat_map(|(name, sites)| {
            sites.iter().map(|(source, offset)| Finding {
                path: source
                    .path
                    .strip_prefix(root)
                    .unwrap_or(&source.path)
                    .display()
                    .to_string(),
                line: source.line_of(*offset),
                name: name.to_string(),
            })
        })
        .collect();
    found.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    found
}

#[test]
fn every_public_item_has_a_non_test_caller_or_a_reason() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let found = items_without_a_non_test_caller(root);
    // A name finding is explained by a `KEEP` entry with that last segment; the compiler
    // probe below checks the entries whole, and that each one still holds.
    let kept: BTreeSet<&str> = KEEP
        .iter()
        .map(|k| k.0.rsplit("::").next().unwrap_or(k.0))
        .collect();
    let unexplained: Vec<String> = found
        .iter()
        .filter(|f| !kept.contains(f.name.as_str()))
        .map(|f| format!("{}:{} {}", f.path, f.line, f.name))
        .collect();
    assert!(
        unexplained.is_empty(),
        "public items with no non-test caller (delete them, or keep one in KEEP with its reason):\n  {}",
        unexplained.join("\n  ")
    );
}

/// Removes a directory tree when dropped, so a failed probe leaves no copy behind.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(command: &mut Command) -> std::process::Output {
    let output = command
        .output()
        .unwrap_or_else(|e| panic!("{command:?}: {e}"));
    assert!(
        output.status.success(),
        "{command:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

/// The compiler's answer. A `git archive` copy of `HEAD` (or of the revision
/// `PUBLIC_SURFACE_PROBE_REV` names) gets `#[deprecated(note = "probe#<n>")]` before every
/// `pub fn` and `pub const` of its non-test code, found as the name count finds them. Then
/// `cargo check` builds every library, bin and example of the copy, and no test: rustc
/// warns at each use of a deprecated item, inside its own crate too, so an item whose note
/// no warning prints has no non-test caller. Items defined twice under exclusive `cfg`s
/// share one qualified name, which is used if either definition is. Fails on a finding not
/// in [`KEEP`] and on a `KEEP` entry it no longer finds. Run it with
/// `cargo test --test public_surface -- --ignored`.
#[test]
#[ignore = "checks a whole copy of the workspace (about a minute); CI runs it"]
fn the_compiler_finds_no_public_item_without_a_non_test_caller() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let rev = std::env::var("PUBLIC_SURFACE_PROBE_REV").unwrap_or_else(|_| "HEAD".into());
    let scratch = ScratchDir(
        std::env::temp_dir().join(format!("public_surface_probe_{}", std::process::id())),
    );
    let copy = scratch.0.join("tree");
    std::fs::create_dir_all(&copy).unwrap();
    let archive = scratch.0.join("tree.tar");
    run(Command::new("git")
        .arg("-C")
        .arg(repo)
        .args(["archive", "--output"])
        .arg(&archive)
        .arg(&rev));
    run(Command::new("tar")
        .arg("-xf")
        .arg(&archive)
        .arg("-C")
        .arg(&copy));

    // `marked[n]` is the qualified name of the item whose note is `probe#<n>`.
    let mut marked: Vec<String> = Vec::new();
    for source in non_test_sources(&copy) {
        let module = module_path(&copy, &source.path);
        let mut text = source.text.clone();
        // Back to front, so the offsets of the items not yet marked still hold.
        for item in source.public_items().iter().rev() {
            let note = format!("#[deprecated(note = \"probe#{}\")] ", marked.len());
            marked.push(format!("{module}::{}", item.path));
            text.splice(item.pub_at..item.pub_at, note.bytes());
        }
        std::fs::write(&source.path, text).unwrap();
    }

    let started = Instant::now();
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let check = run(Command::new(cargo)
        .current_dir(&copy)
        .args([
            "check",
            "--offline",
            "--workspace",
            "--lib",
            "--bins",
            "--examples",
        ])
        // One line per warning, without the source snippets that would repeat the notes.
        .arg("--message-format=short")
        .env("CARGO_TARGET_DIR", scratch.0.join("target"))
        .env("RUSTFLAGS", "--cap-lints=warn"));
    let log = String::from_utf8_lossy(&check.stderr);
    let mut used: BTreeMap<&str, bool> = marked.iter().map(|n| (n.as_str(), false)).collect();
    for warning in log.split("probe#").skip(1) {
        let digits: String = warning.chars().take_while(char::is_ascii_digit).collect();
        let n: usize = digits.parse().expect("a probe note's number");
        used.insert(&marked[n], true);
    }
    let found: BTreeSet<&str> = used.iter().filter(|u| !u.1).map(|u| *u.0).collect();
    eprintln!(
        "probe of {rev}: {} public items marked, {} without a non-test caller, `cargo check` {:.0} s:",
        used.len(),
        found.len(),
        started.elapsed().as_secs_f64()
    );
    for name in &found {
        eprintln!("  {name}");
    }

    let kept: BTreeSet<&str> = KEEP.iter().map(|k| k.0).collect();
    let unexplained: Vec<&str> = found.difference(&kept).copied().collect();
    let stale: Vec<&str> = kept.difference(&found).copied().collect();
    assert!(
        unexplained.is_empty() && stale.is_empty(),
        "public items with no non-test caller (delete them, or keep one in KEEP with its \
         reason):\n  {}\nKEEP entries the probe no longer finds (drop them): {stale:?}",
        unexplained.join("\n  ")
    );
}

#[test]
fn the_scan_strips_comments_literals_and_test_items() {
    let dir = std::env::temp_dir().join(format!("public_surface_{}", std::process::id()));
    std::fs::create_dir_all(dir.join("src")).unwrap();
    std::fs::write(
        dir.join("src/lib.rs"),
        r##"
pub fn used() {}
pub fn named_in_a_comment() {} // named_in_a_comment()
/// ```
/// named_in_a_doc_test();
/// ```
pub fn named_in_a_doc_test() {}
pub fn called_by_a_test() {}
pub const LIMIT: usize = 3;
pub const fn const_fn() {}
pub(crate) fn crate_private() {}
fn caller<'a>(s: &'a str) -> char {
    used();
    let _ = r#"a "quoted" { brace"#;
    /* nested /* */ named_in_a_comment */
    '{'
}
#[cfg(test)]
mod tests {
    fn t() { super::called_by_a_test(); let _ = super::LIMIT; }
}
"##,
    )
    .unwrap();
    let found = items_without_a_non_test_caller(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    let names: Vec<&str> = found.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "named_in_a_comment",
            "named_in_a_doc_test",
            "called_by_a_test",
            "LIMIT",
            "const_fn"
        ]
    );
    assert_eq!((found[0].path.as_str(), found[0].line), ("src/lib.rs", 3));
}

#[test]
fn the_probe_names_an_item_by_its_module_impl_type_and_name() {
    let dir = std::env::temp_dir().join(format!("public_surface_paths_{}", std::process::id()));
    let file = dir.join("crates/demo/src/engine/mod.rs");
    std::fs::create_dir_all(file.parent().unwrap()).unwrap();
    std::fs::write(
        &file,
        r#"
pub fn free() {}
impl<F: Fn() -> u8> Holder<F> { pub fn held(&self) {} }
#[cfg(unix)]
impl std::fmt::Display for Shown { fn fmt(&self) {} }
pub mod inner { pub const LIMIT: u8 = 1; }
fn body() -> impl Iterator<Item = u8> { pub fn nested() {} std::iter::empty() }
"#,
    )
    .unwrap();
    let source = Source::read(file.clone());
    let module = module_path(&dir, &file);
    std::fs::remove_dir_all(&dir).unwrap();
    let paths: Vec<String> = source
        .public_items()
        .iter()
        .map(|item| format!("{module}::{}", item.path))
        .collect();
    assert_eq!(
        paths,
        [
            "demo::engine::free",
            "demo::engine::Holder::held",
            "demo::engine::inner::LIMIT",
            "demo::engine::nested"
        ]
    );
    let root = Path::new("/r");
    for (file, module) in [
        ("/r/crates/linalg/src/vecops.rs", "linalg::vecops"),
        ("/r/crates/fleet/src/lib.rs", "fleet"),
        ("/r/crates/bench/src/bin/fig8_overhead.rs", "fig8_overhead"),
        ("/r/crates/bench/src/bin/profile/main.rs", "profile"),
        ("/r/crates/bench/src/bin/profile/pass.rs", "profile::pass"),
        ("/r/examples/quickstart.rs", "quickstart"),
        ("/r/src/lib.rs", "onlinetune_repro"),
    ] {
        assert_eq!(module_path(root, Path::new(file)), module, "{file}");
    }
}
