//! Offline shim for the subset of `serde` used by this workspace.
//!
//! Unlike real serde's data-model architecture, this shim speaks JSON directly and
//! streams: `Serialize` appends JSON text to a [`Serializer`], and `Deserialize` reads a
//! value straight out of the input bytes through a [`Deserializer`]. No intermediate tree
//! is built in either direction. The derive macros in the `serde_derive` shim generate
//! impls of these traits for structs and enums, and the `serde_json` shim wraps the two
//! ends as `to_string` / `from_str`.

pub use serde_derive::{Deserialize, Serialize};

mod de;
mod ser;

pub use de::Deserializer;
pub use ser::Serializer;

/// Serialization error (also used for deserialization).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Builds an error from any displayable message.
    pub fn custom<T: core::fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can write themselves as JSON text.
pub trait Serialize {
    /// Appends `self` to `out`.
    fn serialize(&self, out: &mut Serializer);
}

/// Types that can read themselves from JSON text.
pub trait Deserialize: Sized {
    /// Reads one value from `de`, leaving it positioned after that value.
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

impl Serialize for bool {
    fn serialize(&self, out: &mut Serializer) {
        out.bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        de.bool()
    }
}

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Serializer) {
                out.f64(*self as f64);
            }
        }
        impl Deserialize for $t {
            fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
                Ok(de.f64()? as $t)
            }
        }
    )*};
}

impl_float!(f32, f64);

/// Reads a number into an integer type exactly: it must be integral and inside the
/// type's range. The test is that converting it to the type and back gives the same
/// number, which accepts precisely the numbers the writer emits for that type (including
/// `2^64` for `u64::MAX` and `2^63` for `i64::MAX`, which an `f64` rounds up to).
macro_rules! read_exact_int {
    ($de:expr, $t:ty) => {{
        let n = $de.f64()?;
        let x = n as $t;
        if x as f64 == n {
            Ok(x)
        } else {
            Err($de.error(format_args!(concat!("{} is not a ", stringify!($t)), n)))
        }
    }};
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Serializer) {
                out.f64(*self as f64);
            }
        }
        impl Deserialize for $t {
            fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
                read_exact_int!(de, $t)
            }
        }
    )*};
}

impl_int!(u8, u16, u32, i8, i16, i32);

// 64-bit integers cannot always be represented as an f64 JSON number (precision ends at
// 2^53); values that would round are written as decimal strings instead, and
// deserialization accepts either form. Snapshot seeds and counters therefore round-trip
// exactly.
macro_rules! impl_int64 {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Serializer) {
                let n = *self as f64;
                if n as $t == *self {
                    out.f64(n);
                } else {
                    out.str(&self.to_string());
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
                if !de.next_is_string() {
                    return read_exact_int!(de, $t);
                }
                let text = de.str()?;
                text.parse::<$t>().map_err(|e| {
                    de.error(format_args!(concat!("bad ", stringify!($t), " `{}`: {}"), text, e))
                })
            }
        }
    )*};
}

impl_int64!(u64, usize, i64, isize);

impl Serialize for String {
    fn serialize(&self, out: &mut Serializer) {
        out.str(self);
    }
}

impl Deserialize for String {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        de.str().map(|s| s.into_owned())
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut Serializer) {
        out.str(self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut Serializer) {
        (**self).serialize(out);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut Serializer) {
        out.seq(self);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut Serializer) {
        self.as_slice().serialize(out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        de.begin_array()?;
        let mut items = Vec::new();
        while de.next_element()? {
            items.push(T::deserialize(de)?);
        }
        // Restored state keeps exactly its length, as a collected `Vec` would. Keeping the
        // doubling slack cost memory in every restored fleet and, in the fleet profile,
        // slowed the rounds that ran after a restore by 3-6% (2 vCPU).
        items.shrink_to_fit();
        Ok(items)
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn serialize(&self, out: &mut Serializer) {
        out.seq(self);
    }
}

impl<T: Deserialize> Deserialize for std::collections::VecDeque<T> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        Vec::deserialize(de).map(Self::from)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, out: &mut Serializer) {
        self.as_slice().serialize(out);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        let items: Vec<T> = Vec::deserialize(de)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| de.error(format_args!("expected array of length {N}, got {len}")))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut Serializer) {
        match self {
            Some(x) => x.serialize(out),
            None => out.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        if de.null()? {
            Ok(None)
        } else {
            T::deserialize(de).map(Some)
        }
    }
}

/// Tuples are arrays of their fields.
macro_rules! impl_tuple {
    ($($name:ident . $idx:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, out: &mut Serializer) {
                out.begin_array();
                $(
                    out.element();
                    self.$idx.serialize(out);
                )+
                out.end_array();
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
                de.begin_array()?;
                let value = ($(de.element::<$name>()?,)+);
                de.end_array()?;
                Ok(value)
            }
        }
    };
}

impl_tuple!(A.0, B.1);
impl_tuple!(A.0, B.1, C.2);

/// Maps are JSON objects keyed by the key's text; entries follow the map's own
/// (deterministic) order.
impl<K: AsRef<str>, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn serialize(&self, out: &mut Serializer) {
        out.begin_object();
        for (k, v) in self {
            out.key(k.as_ref());
            v.serialize(out);
        }
        out.end_object();
    }
}

/// Of duplicate keys the last one wins, as in [`BTreeMap::insert`](std::collections::BTreeMap::insert).
impl<K: Ord + core::str::FromStr, V: Deserialize> Deserialize for std::collections::BTreeMap<K, V>
where
    <K as core::str::FromStr>::Err: core::fmt::Display,
{
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        de.begin_object()?;
        let mut map = Self::new();
        while let Some(k) = de.next_key()? {
            let key = k
                .parse::<K>()
                .map_err(|e| de.error(format_args!("bad map key {k:?}: {e}")))?;
            map.insert(key, V::deserialize(de)?);
        }
        Ok(map)
    }
}
