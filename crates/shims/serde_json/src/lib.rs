//! Offline shim for the subset of `serde_json` used by this workspace:
//! [`to_string`], [`to_string_pretty`] and [`from_str`]. Text is written and read in
//! one pass between typed values and bytes, with no intermediate tree. Output is
//! deterministic (object members keep declaration order) and finite floats round-trip
//! bit-exactly.

use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// Serialization/deserialization error.
pub type Error = serde::Error;

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = Serializer::compact();
    value.serialize(&mut out);
    Ok(out.into_string())
}

/// Serializes `value` as JSON indented by two spaces per level.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = Serializer::pretty();
    value.serialize(&mut out);
    Ok(out.into_string())
}

/// Parses JSON text into any [`Deserialize`] type. Only whitespace may follow the value.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut de = Deserializer::new(text);
    let value = T::deserialize(&mut de)?;
    de.end()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    type Record = (f64, (Vec<Option<bool>>, String));

    #[test]
    fn roundtrip_compact() {
        let v: Record = (1.5, (vec![Some(true), None], "x\"y\n".to_string()));
        let text = to_string(&v).unwrap();
        assert_eq!(text, r#"[1.5,[[true,null],"x\"y\n"]]"#);
        let back: Record = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for x in [
            0.1,
            1.0 / 3.0,
            1e-300,
            123456789.123456,
            -0.25,
            2.0f64.powi(60),
        ] {
            let text = to_string(&x).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{x} -> {text} -> {back}");
        }
    }

    #[test]
    fn pretty_output_parses_back() {
        let v: Vec<(String, Vec<u32>)> =
            vec![("k".to_string(), vec![1, 2]), (String::new(), vec![])];
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains('\n'));
        let back: Vec<(String, Vec<u32>)> = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn large_u64_values_roundtrip_exactly() {
        for v in [u64::MAX, (1u64 << 53) + 1, 9_007_199_254_740_993, 0, 42] {
            let text = to_string(&v).unwrap();
            let back: u64 = from_str(&text).unwrap();
            assert_eq!(v, back, "{v} -> {text} -> {back}");
        }
        for v in [i64::MIN, -(1i64 << 53) - 1, i64::MAX] {
            let text = to_string(&v).unwrap();
            let back: i64 = from_str(&text).unwrap();
            assert_eq!(v, back, "{v} -> {text} -> {back}");
        }
    }

    #[test]
    fn negative_zero_keeps_its_sign_bit() {
        let text = to_string(&-0.0f64).unwrap();
        let back: f64 = from_str(&text).unwrap();
        assert_eq!(
            (-0.0f64).to_bits(),
            back.to_bits(),
            "-0.0 -> {text} -> {back}"
        );
    }

    #[test]
    fn unicode_strings_survive() {
        let v = "héllo → 世界".to_string();
        let back: String = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(v, back);
        let escaped: String = from_str(r#""é\/\b\f""#).unwrap();
        assert_eq!(escaped, "é/\u{8}\u{c}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Vec<u32>>("[1, 2").is_err());
        assert!(from_str::<u32>("12 34").is_err());
        assert!(from_str::<String>(r#""\q""#).is_err());
        assert!(from_str::<String>(r#""\u12""#).is_err());
        assert!(from_str::<f64>("1.2.3").is_err());
        assert!(from_str::<bool>("tru").is_err());
    }

    #[test]
    fn integers_are_read_exactly() {
        assert_eq!(from_str::<u8>("255").unwrap(), 255);
        assert_eq!(from_str::<i32>("-0.0").unwrap(), 0);
        assert_eq!(from_str::<usize>("4e3").unwrap(), 4000);
        for text in ["-1", "2.5", "1e300", "256"] {
            assert!(from_str::<u8>(text).is_err(), "{text}");
        }
        for text in ["-1", "2.5", "1e300", "1e20", "\"-1\"", "\"x\""] {
            assert!(from_str::<u64>(text).is_err(), "{text}");
        }
        assert!(from_str::<i64>("-1e19").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(1 << 20);
        assert!(from_str::<Vec<Vec<u32>>>(&deep).is_err());
        let mut de = Deserializer::new(&deep);
        assert!(de.skip_value().is_err());
        let balanced = format!("{}{}", "[".repeat(1 << 20), "]".repeat(1 << 20));
        let mut de = Deserializer::new(&balanced);
        de.skip_value().unwrap();
        de.end().unwrap();
    }
}
