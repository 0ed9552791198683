//! The JSON writer behind [`Serialize`].

use crate::Serialize;
use core::fmt::Write as _;

/// Appends JSON text, compact or indented by two spaces per level.
///
/// A container is written as `begin_*`, then [`Serializer::element`] or
/// [`Serializer::key`] before each item, then `end_*`. Object members keep the order they
/// are written in, so identical program states give identical bytes.
#[derive(Debug)]
pub struct Serializer {
    out: String,
    pretty: bool,
    depth: usize,
    /// Whether the innermost open container has no item yet. One flag is enough: a
    /// container only closes inside an item of its parent, which is then non-empty.
    empty: bool,
}

impl Serializer {
    /// A writer of compact JSON.
    pub fn compact() -> Self {
        Serializer {
            out: String::new(),
            pretty: false,
            depth: 0,
            empty: true,
        }
    }

    /// A writer of JSON indented by two spaces per level.
    pub fn pretty() -> Self {
        Serializer {
            pretty: true,
            ..Serializer::compact()
        }
    }

    /// The text written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes a number so that parsing the text recovers the exact same bits. Integral
    /// values below 10^15 print without a fraction, like serde_json; other finite values
    /// use Rust's shortest round-trip formatting; JSON has no Inf/NaN, so those are
    /// written as `null`, as serde_json does.
    pub fn f64(&mut self, n: f64) {
        if !n.is_finite() {
            self.null();
        } else if n == n.trunc() && n.abs() < 1e15 && !(n == 0.0 && n.is_sign_negative()) {
            self.write_fmt(format_args!("{}", n as i64));
        } else {
            self.write_fmt(format_args!("{n:?}"));
        }
    }

    /// Writes a string literal, escaping quotes, backslashes and control characters.
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        // Every byte that needs escaping is ASCII, and ASCII bytes never occur inside a
        // multi-byte UTF-8 sequence, so the runs between them are whole characters.
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
                continue;
            }
            self.out.push_str(&s[run..i]);
            match b {
                b'"' => self.out.push_str("\\\""),
                b'\\' => self.out.push_str("\\\\"),
                b'\n' => self.out.push_str("\\n"),
                b'\r' => self.out.push_str("\\r"),
                b'\t' => self.out.push_str("\\t"),
                _ => self.write_fmt(format_args!("\\u{b:04x}")),
            }
            run = i + 1;
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Starts the next array element.
    pub fn element(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.newline();
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Writes every item as one array.
    pub fn seq<'a, T: Serialize + 'a>(&mut self, items: impl IntoIterator<Item = &'a T>) {
        self.begin_array();
        for item in items {
            self.element();
            item.serialize(self);
        }
        self.end_array();
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Starts the next object member: writes its name, ready for the value.
    pub fn key(&mut self, name: &str) {
        self.element();
        self.str(name);
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.empty {
            self.newline();
        }
        self.out.push(bracket);
        self.empty = false;
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n(' ', 2 * self.depth));
        }
    }

    fn write_fmt(&mut self, args: core::fmt::Arguments<'_>) {
        self.out
            .write_fmt(args)
            .expect("formatting into a String cannot fail");
    }
}
