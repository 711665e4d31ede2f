//! Offline stand-in for the `serde_json` entry points the PERQ crates
//! use (`to_vec`, `to_string`, `from_slice`, `from_str`, `Error`). The
//! JSON reader and writer live in the `serde` stand-in.

use serde::de::{DeserializeOwned, Parser};
use serde::Serialize;

/// A JSON encoding or decoding failure.
pub type Error = serde::de::Error;

/// Result alias matching the real crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` to JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(128);
    value.serialize_json(&mut out);
    Ok(out)
}

/// Serializes `value` to a JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    // The writer only emits UTF-8: string contents pass through
    // unchanged and everything else is ASCII.
    Ok(String::from_utf8(to_vec(value)?).expect("serializer emits utf-8"))
}

/// Parses a value from JSON bytes; trailing non-whitespace is an error.
pub fn from_slice<T: DeserializeOwned>(bytes: &[u8]) -> Result<T> {
    let mut parser = Parser::new(bytes);
    let value = T::deserialize_json(&mut parser)?;
    parser.finish()?;
    Ok(value)
}

/// Parses a value from JSON text.
pub fn from_str<T: DeserializeOwned>(text: &str) -> Result<T> {
    from_slice(text.as_bytes())
}
