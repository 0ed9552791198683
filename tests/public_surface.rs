//! No public item without a non-test caller.
//!
//! The scan reads every workspace crate's `src/` (the shims excluded), its bins, the façade
//! crate and `examples/`, and finds each `pub fn` and `pub const`. It then counts the
//! whole-word uses of each name in non-test code with comments and the text of string
//! literals stripped (an error label such as `op: "solve_upper"` is not a call): `#[cfg(test)]`
//! items, `tests/` directories and doc tests (which live in comments) count as tests. A name
//! that appears no more often than it is defined has no non-test caller, and fails the test
//! unless [`KEEP`] names it with its reason.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};

/// Public items kept without a non-test caller, each with its reason.
const KEEP: &[(&str, &str)] = &[
    (
        "decompose_reference",
        "the textbook Cholesky that the blocked `decompose` is tested bit-for-bit against",
    ),
    (
        "ulp_diff",
        "measures the distance the blocked-versus-reference Cholesky property bounds",
    ),
    (
        "synthetic_oltp",
        "the fixed two-knob generator the tuner and baseline unit tests substitute for a workload",
    ),
    (
        "events_dropped",
        "`TelemetryHandle::events_dropped` is how tests see the journal's overflow count",
    ),
    (
        "encode_query",
        "the one-query reference that `workload_embedding_is_average_of_query_embeddings` compares against",
    ),
    (
        "from_json",
        "the loaders `tests/regressions.rs`, `tests/scenario_fuzz.rs` and `tests/scenario_engine.rs` read regression, fuzz-case and scenario files with",
    ),
    (
        "advance",
        "`ManualClock::advance` steps the manual clock that telemetry tests time spans with",
    ),
    (
        "decompose",
        "`Cholesky::decompose` is the jitter-free factorization the linalg and gp tests compare against",
    ),
];

/// One source file with every comment and the contents of every string and character
/// literal blanked; line breaks are kept, so offsets still give line numbers.
struct Source {
    path: PathBuf,
    code: Vec<u8>,
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
        let mut source = Source { path, code };
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

    /// `(name, offset)` of every `pub fn` and `pub const`.
    fn public_items(&self) -> Vec<(&str, usize)> {
        let tokens = self.tokens();
        let word = |k: usize| tokens.get(k).map_or("", |t| t.1);
        let mut items = Vec::new();
        for (k, &(_, token)) in tokens.iter().enumerate() {
            let name_at = match (token, word(k + 1), word(k + 2), word(k + 3)) {
                ("pub", "fn", _, _) => k + 2,
                ("pub", "const" | "unsafe" | "async", "fn", _) => k + 3,
                ("pub", "const", _, ":") => k + 2,
                _ => continue,
            };
            items.push((word(name_at), tokens[name_at].0));
        }
        items
    }

    fn line_of(&self, offset: usize) -> usize {
        1 + self.code[..offset].iter().filter(|&&b| b == b'\n').count()
    }
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
        for (name, offset) in source.public_items() {
            definitions.entry(name).or_default().push((source, offset));
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
    let kept: BTreeSet<&str> = KEEP.iter().map(|k| k.0).collect();
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
    let found_names: BTreeSet<&str> = found.iter().map(|f| f.name.as_str()).collect();
    let stale: Vec<&str> = kept.difference(&found_names).copied().collect();
    assert!(
        stale.is_empty(),
        "KEEP entries the scan no longer finds (drop them): {stale:?}"
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
