//! Offline stand-in for `serde`, sufficient for the PERQ crates.
//!
//! Real serde is a format-agnostic data model; this stand-in collapses
//! it to the one format the repo uses — JSON — so [`Serialize`] writes
//! JSON text directly and [`Deserialize`] reads it from a
//! [`de::Parser`]. The wire format matches `serde_json`'s defaults
//! (externally tagged enums, maps with stringified integer keys, tuples
//! as arrays, non-finite floats as `null`), so frames produced by either
//! build decode under the other. Its *speed* is its own: codec timings
//! from a `deps: "shims"` build measure this file, not serde_json.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hash};

/// A value that can write itself as JSON.
pub trait Serialize {
    /// Appends this value's JSON encoding to `out`.
    fn serialize_json(&self, out: &mut Vec<u8>);
}

/// A value that can be read back from JSON.
pub trait Deserialize: Sized {
    /// Parses one value at the parser's cursor.
    fn deserialize_json(p: &mut de::Parser<'_>) -> Result<Self, de::Error>;

    /// The value a struct field of this type takes when its key is
    /// absent (`Option` fields default to `None`, like real serde).
    fn missing() -> Option<Self> {
        None
    }
}

/// Serialization helpers used by generated code.
pub mod ser {
    /// Writes `s` as a JSON string literal.
    pub fn write_str(out: &mut Vec<u8>, s: &str) {
        out.push(b'"');
        for &b in s.as_bytes() {
            match b {
                b'"' => out.extend_from_slice(b"\\\""),
                b'\\' => out.extend_from_slice(b"\\\\"),
                b'\n' => out.extend_from_slice(b"\\n"),
                b'\r' => out.extend_from_slice(b"\\r"),
                b'\t' => out.extend_from_slice(b"\\t"),
                0x00..=0x1f => {
                    out.extend_from_slice(format!("\\u{b:04x}").as_bytes());
                }
                _ => out.push(b),
            }
        }
        out.push(b'"');
    }
}

/// Deserialization: the JSON parser and its error type.
pub mod de {
    use super::Deserialize;

    /// Owned deserialization (every [`Deserialize`] type in this
    /// stand-in).
    pub trait DeserializeOwned: Deserialize {}
    impl<T: Deserialize> DeserializeOwned for T {}

    /// A JSON syntax or shape error with its byte offset.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Error {
        /// What went wrong.
        pub msg: String,
        /// Byte offset in the input.
        pub at: usize,
    }

    impl std::fmt::Display for Error {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{} at byte {}", self.msg, self.at)
        }
    }

    impl std::error::Error for Error {}

    /// A cursor over JSON text.
    pub struct Parser<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        /// Starts parsing at the beginning of `buf`.
        pub fn new(buf: &'a [u8]) -> Self {
            Parser { buf, pos: 0 }
        }

        /// Builds an error at the current offset.
        pub fn error(&self, msg: impl Into<String>) -> Error {
            Error {
                msg: msg.into(),
                at: self.pos,
            }
        }

        fn skip_ws(&mut self) {
            while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.buf.get(self.pos) {
                self.pos += 1;
            }
        }

        /// The next non-whitespace byte, not consumed.
        pub fn peek(&mut self) -> Option<u8> {
            self.skip_ws();
            self.buf.get(self.pos).copied()
        }

        /// Consumes `byte` (after whitespace) or fails.
        pub fn expect(&mut self, byte: u8) -> Result<(), Error> {
            if self.peek() == Some(byte) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.error(format!("expected '{}'", byte as char)))
            }
        }

        /// Consumes `byte` if it is next; reports whether it did.
        pub fn eat(&mut self, byte: u8) -> bool {
            if self.peek() == Some(byte) {
                self.pos += 1;
                true
            } else {
                false
            }
        }

        /// Fails unless only whitespace remains.
        pub fn finish(&mut self) -> Result<(), Error> {
            match self.peek() {
                None => Ok(()),
                Some(_) => Err(self.error("trailing characters")),
            }
        }

        fn literal(&mut self, word: &[u8]) -> Result<(), Error> {
            self.skip_ws();
            if self.buf[self.pos..].starts_with(word) {
                self.pos += word.len();
                Ok(())
            } else {
                Err(self.error("invalid literal"))
            }
        }

        /// Parses `null`.
        pub fn parse_null(&mut self) -> Result<(), Error> {
            self.literal(b"null")
        }

        /// Parses `true` / `false`.
        pub fn parse_bool(&mut self) -> Result<bool, Error> {
            match self.peek() {
                Some(b't') => self.literal(b"true").map(|()| true),
                Some(b'f') => self.literal(b"false").map(|()| false),
                _ => Err(self.error("expected a boolean")),
            }
        }

        /// The text of the number at the cursor.
        pub fn number_text(&mut self) -> Result<&'a str, Error> {
            self.skip_ws();
            let start = self.pos;
            while let Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') = self.buf.get(self.pos)
            {
                self.pos += 1;
            }
            if start == self.pos {
                return Err(self.error("expected a number"));
            }
            // Number bytes are ASCII by construction.
            Ok(std::str::from_utf8(&self.buf[start..self.pos]).expect("ascii number"))
        }

        /// Parses a string literal.
        pub fn parse_string(&mut self) -> Result<String, Error> {
            self.expect(b'"')?;
            let mut out: Vec<u8> = Vec::new();
            loop {
                let Some(&b) = self.buf.get(self.pos) else {
                    return Err(self.error("unterminated string"));
                };
                self.pos += 1;
                match b {
                    b'"' => break,
                    b'\\' => {
                        let Some(&esc) = self.buf.get(self.pos) else {
                            return Err(self.error("unterminated escape"));
                        };
                        self.pos += 1;
                        match esc {
                            b'"' => out.push(b'"'),
                            b'\\' => out.push(b'\\'),
                            b'/' => out.push(b'/'),
                            b'b' => out.push(0x08),
                            b'f' => out.push(0x0c),
                            b'n' => out.push(b'\n'),
                            b'r' => out.push(b'\r'),
                            b't' => out.push(b'\t'),
                            b'u' => {
                                let mut code = self.hex4()?;
                                if (0xD800..0xDC00).contains(&code) {
                                    // Surrogate pair.
                                    if self.buf[self.pos..].starts_with(b"\\u") {
                                        self.pos += 2;
                                        let low = self.hex4()?;
                                        code = 0x10000
                                            + ((code - 0xD800) << 10)
                                            + (low.wrapping_sub(0xDC00) & 0x3FF);
                                    }
                                }
                                let ch = char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid unicode escape"))?;
                                let mut tmp = [0u8; 4];
                                out.extend_from_slice(ch.encode_utf8(&mut tmp).as_bytes());
                            }
                            _ => return Err(self.error("invalid escape")),
                        }
                    }
                    _ => out.push(b),
                }
            }
            String::from_utf8(out).map_err(|_| self.error("invalid utf-8 in string"))
        }

        fn hex4(&mut self) -> Result<u32, Error> {
            let digits = self
                .buf
                .get(self.pos..self.pos + 4)
                .ok_or_else(|| self.error("truncated unicode escape"))?;
            let text = std::str::from_utf8(digits).map_err(|_| self.error("bad escape"))?;
            let code = u32::from_str_radix(text, 16).map_err(|_| self.error("bad escape"))?;
            self.pos += 4;
            Ok(code)
        }

        /// Skips one value of any shape (unknown struct keys).
        pub fn skip_value(&mut self) -> Result<(), Error> {
            match self.peek() {
                Some(b'"') => self.parse_string().map(drop),
                Some(b'{') => {
                    self.pos += 1;
                    if self.eat(b'}') {
                        return Ok(());
                    }
                    loop {
                        self.parse_string()?;
                        self.expect(b':')?;
                        self.skip_value()?;
                        if !self.eat(b',') {
                            return self.expect(b'}');
                        }
                    }
                }
                Some(b'[') => {
                    self.pos += 1;
                    if self.eat(b']') {
                        return Ok(());
                    }
                    loop {
                        self.skip_value()?;
                        if !self.eat(b',') {
                            return self.expect(b']');
                        }
                    }
                }
                Some(b't' | b'f') => self.parse_bool().map(drop),
                Some(b'n') => self.parse_null(),
                Some(_) => self.number_text().map(drop),
                None => Err(self.error("unexpected end of input")),
            }
        }
    }
}

// ---- primitive impls -------------------------------------------------

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, out: &mut Vec<u8>) {
                use std::io::Write;
                write!(out, "{self}").expect("write to Vec");
            }
        }
        impl Deserialize for $t {
            fn deserialize_json(p: &mut de::Parser<'_>) -> Result<Self, de::Error> {
                let text = p.number_text()?;
                text.parse::<$t>().map_err(|_| p.error(concat!("invalid ", stringify!($t))))
            }
        }
    )*};
}
int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, out: &mut Vec<u8>) {
                use std::io::Write;
                if self.is_finite() {
                    // `{:?}` is the shortest round-trip form and always
                    // carries a `.0` or exponent, like serde_json's.
                    write!(out, "{self:?}").expect("write to Vec");
                } else {
                    out.extend_from_slice(b"null");
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize_json(p: &mut de::Parser<'_>) -> Result<Self, de::Error> {
                if p.peek() == Some(b'n') {
                    p.parse_null()?;
                    return Ok(<$t>::NAN);
                }
                let text = p.number_text()?;
                text.parse::<$t>().map_err(|_| p.error("invalid float"))
            }
        }
    )*};
}
float_impls!(f32, f64);

impl Serialize for bool {
    fn serialize_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(if *self { b"true" } else { b"false" });
    }
}

impl Deserialize for bool {
    fn deserialize_json(p: &mut de::Parser<'_>) -> Result<Self, de::Error> {
        p.parse_bool()
    }
}

impl Serialize for str {
    fn serialize_json(&self, out: &mut Vec<u8>) {
        ser::write_str(out, self);
    }
}

impl Serialize for String {
    fn serialize_json(&self, out: &mut Vec<u8>) {
        ser::write_str(out, self);
    }
}

impl Deserialize for String {
    fn deserialize_json(p: &mut de::Parser<'_>) -> Result<Self, de::Error> {
        p.parse_string()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_json(&self, out: &mut Vec<u8>) {
        (**self).serialize_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_json(&self, out: &mut Vec<u8>) {
        match self {
            Some(v) => v.serialize_json(out),
            None => out.extend_from_slice(b"null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_json(p: &mut de::Parser<'_>) -> Result<Self, de::Error> {
        if p.peek() == Some(b'n') {
            p.parse_null()?;
            Ok(None)
        } else {
            T::deserialize_json(p).map(Some)
        }
    }

    fn missing() -> Option<Self> {
        Some(None)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_json(&self, out: &mut Vec<u8>) {
        out.push(b'[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            v.serialize_json(out);
        }
        out.push(b']');
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_json(&self, out: &mut Vec<u8>) {
        self.as_slice().serialize_json(out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_json(p: &mut de::Parser<'_>) -> Result<Self, de::Error> {
        p.expect(b'[')?;
        let mut out = Vec::new();
        if p.eat(b']') {
            return Ok(out);
        }
        loop {
            out.push(T::deserialize_json(p)?);
            if !p.eat(b',') {
                p.expect(b']')?;
                return Ok(out);
            }
        }
    }
}

macro_rules! tuple_impls {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize_json(&self, out: &mut Vec<u8>) {
                out.push(b'[');
                $(
                    if $idx > 0 {
                        out.push(b',');
                    }
                    self.$idx.serialize_json(out);
                )+
                out.push(b']');
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize_json(p: &mut de::Parser<'_>) -> Result<Self, de::Error> {
                p.expect(b'[')?;
                let value = ($(
                    {
                        if $idx > 0 {
                            p.expect(b',')?;
                        }
                        $name::deserialize_json(p)?
                    },
                )+);
                p.expect(b']')?;
                Ok(value)
            }
        }
    )*};
}
tuple_impls! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// Map keys: JSON object keys are strings, so integer keys are quoted.
pub trait MapKey: Sized {
    /// The key as object-key text.
    fn to_key(&self) -> String;
    /// Parses object-key text back.
    fn from_key(text: &str) -> Option<Self>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(text: &str) -> Option<Self> {
        Some(text.to_string())
    }
}

macro_rules! int_keys {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(text: &str) -> Option<Self> {
                text.parse().ok()
            }
        }
    )*};
}
int_keys!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

fn write_map<'a, K: MapKey + 'a, V: Serialize + 'a>(
    out: &mut Vec<u8>,
    entries: impl Iterator<Item = (&'a K, &'a V)>,
) {
    out.push(b'{');
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            out.push(b',');
        }
        ser::write_str(out, &k.to_key());
        out.push(b':');
        v.serialize_json(out);
    }
    out.push(b'}');
}

fn read_map<K: MapKey, V: Deserialize>(
    p: &mut de::Parser<'_>,
    mut insert: impl FnMut(K, V),
) -> Result<(), de::Error> {
    p.expect(b'{')?;
    if p.eat(b'}') {
        return Ok(());
    }
    loop {
        let text = p.parse_string()?;
        let key = K::from_key(&text).ok_or_else(|| p.error("invalid map key"))?;
        p.expect(b':')?;
        insert(key, V::deserialize_json(p)?);
        if !p.eat(b',') {
            return p.expect(b'}');
        }
    }
}

impl<K: MapKey, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn serialize_json(&self, out: &mut Vec<u8>) {
        write_map(out, self.iter());
    }
}

impl<K: MapKey + Eq + Hash, V: Deserialize, S: BuildHasher + Default> Deserialize
    for HashMap<K, V, S>
{
    fn deserialize_json(p: &mut de::Parser<'_>) -> Result<Self, de::Error> {
        let mut map = HashMap::with_hasher(S::default());
        read_map(p, |k, v| {
            map.insert(k, v);
        })?;
        Ok(map)
    }
}

impl<K: MapKey, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize_json(&self, out: &mut Vec<u8>) {
        write_map(out, self.iter());
    }
}

impl<K: MapKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize_json(p: &mut de::Parser<'_>) -> Result<Self, de::Error> {
        let mut map = BTreeMap::new();
        read_map(p, |k, v| {
            map.insert(k, v);
        })?;
        Ok(map)
    }
}
