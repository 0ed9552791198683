//! The JSON reader behind [`Deserialize`](crate::Deserialize).

use crate::{Deserialize, Error};
use std::borrow::Cow;

/// Reads JSON values straight out of the input text, one token at a time.
///
/// A container is read as `begin_*`, then [`Deserializer::next_element`] or
/// [`Deserializer::next_key`] until it reports the end. Typed reads recurse only as deep
/// as the type being read; [`Deserializer::skip_value`] keeps its own stack, so nesting
/// in the input is bounded by memory, not by the thread's stack.
#[derive(Debug)]
pub struct Deserializer<'de> {
    text: &'de str,
    pos: usize,
    /// Whether the innermost open container has had no item yet. One flag is enough: a
    /// container only closes inside an item of its parent, which is then non-empty.
    first: bool,
}

impl<'de> Deserializer<'de> {
    /// A reader positioned at the start of `text`.
    pub fn new(text: &'de str) -> Self {
        Deserializer {
            text,
            pos: 0,
            first: true,
        }
    }

    /// Checks that only whitespace follows the value just read.
    pub fn end(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }

    /// An error at the current input position.
    pub fn error(&self, msg: impl core::fmt::Display) -> Error {
        Error::custom(format_args!("JSON error at byte {}: {msg}", self.pos))
    }

    /// Whether the next value is a string.
    pub fn next_is_string(&mut self) -> bool {
        self.peek() == Some(b'"')
    }

    /// Consumes a `null` if one comes next, reporting whether it did.
    pub fn null(&mut self) -> Result<bool, Error> {
        if self.peek() == Some(b'n') {
            self.literal("null")?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, Error> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.error("expected bool")),
        }
    }

    /// Reads a number.
    pub fn f64(&mut self) -> Result<f64, Error> {
        self.peek(); // skips whitespace
        let start = self.pos;
        let bytes = self.text.as_bytes();
        while bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        if token.is_empty() {
            return Err(self.error("expected number"));
        }
        token
            .parse()
            .map_err(|_| self.error(format_args!("invalid number `{token}`")))
    }

    /// Reads a string, borrowing it from the input when it holds no escapes.
    pub fn str(&mut self) -> Result<Cow<'de, str>, Error> {
        if self.peek() != Some(b'"') {
            return Err(self.error("expected string"));
        }
        self.pos += 1;
        let bytes = self.text.as_bytes();
        let mut run = self.pos;
        let mut owned: Option<String> = None;
        loop {
            let Some(&b) = bytes.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            match b {
                b'"' => {
                    // Quotes and backslashes are ASCII, so every slice boundary here is a
                    // character boundary.
                    let tail = &self.text[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                b'\\' => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(&self.text[run..self.pos]);
                    let escape = bytes.get(self.pos + 1).copied();
                    self.pos += 2;
                    match escape {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{0008}'),
                        Some(b'f') => s.push('\u{000C}'),
                        Some(b'u') => {
                            let code = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by the workspace's data.
                            s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        Some(_) => return Err(self.error("unknown escape")),
                        None => return Err(self.error("unterminated escape")),
                    }
                    run = self.pos;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.open(b'[')
    }

    /// Moves to the next array element, or past the closing `]` when there is none.
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.next_item(b']')
    }

    /// Reads the next array element, which must exist.
    pub fn element<T: Deserialize>(&mut self) -> Result<T, Error> {
        if !self.next_element()? {
            return Err(self.error("array too short"));
        }
        T::deserialize(self)
    }

    /// Closes an array whose elements have all been read.
    pub fn end_array(&mut self) -> Result<(), Error> {
        if self.next_element()? {
            return Err(self.error("array too long"));
        }
        Ok(())
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.open(b'{')
    }

    /// Reads the next member name and its `:`, or moves past the closing `}` and returns
    /// `None` when there is none.
    pub fn next_key(&mut self) -> Result<Option<Cow<'de, str>>, Error> {
        if !self.next_item(b'}')? {
            return Ok(None);
        }
        let key = self.str()?;
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Skips one value of any shape, checking its syntax.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        // The open containers, innermost last: `}` for objects, `]` for arrays.
        let mut open: Vec<u8> = Vec::new();
        loop {
            match self.peek() {
                Some(bracket @ (b'{' | b'[')) => {
                    self.open(bracket)?;
                    open.push(if bracket == b'{' { b'}' } else { b']' });
                }
                Some(b'"') => self.str().map(|_| ())?,
                Some(b't' | b'f') => self.bool().map(|_| ())?,
                Some(b'n') => self.null().map(|_| ())?,
                _ => self.f64().map(|_| ())?,
            }
            // Find the next value to skip, closing every container that has ended.
            loop {
                let Some(&close) = open.last() else {
                    return Ok(());
                };
                let more = if close == b'}' {
                    self.next_key()?.is_some()
                } else {
                    self.next_element()?
                };
                if more {
                    break;
                }
                open.pop();
            }
        }
    }

    /// The next byte after whitespace, without consuming it.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        match self.peek() {
            Some(next) if next == b => {
                self.pos += 1;
                Ok(())
            }
            Some(_) => Err(self.error(format_args!("expected `{}`", b as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), Error> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.error(format_args!("expected `{word}`")));
        }
        self.pos += word.len();
        Ok(())
    }

    fn open(&mut self, bracket: u8) -> Result<(), Error> {
        self.expect(bracket)?;
        self.first = true;
        Ok(())
    }

    /// Consumes the separator before the next item of the innermost container, or its
    /// closing bracket.
    fn next_item(&mut self, close: u8) -> Result<bool, Error> {
        let first = std::mem::replace(&mut self.first, false);
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                Ok(true)
            }
            Some(_) if first => Ok(true),
            Some(_) => Err(self.error(format_args!("expected `,` or `{}`", close as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }
}
