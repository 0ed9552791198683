//! The JSON text contract of the serde shims.
//!
//! The first half pins the exact bytes `to_string` and `to_string_pretty` write for every
//! shape the derive supports and for the edge values snapshots can hold: WAL digests,
//! golden snapshots and the regression corpus all compare these bytes, so any change to
//! them is a format change. The second half pins what the reader accepts and rejects, which
//! snapshots written by older builds rely on.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Empty,
    Newtype(f64),
    Pair(u8, String),
    Rect { w: f64, h: f64 },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Edges {
    none: Option<u64>,
    some: Option<i32>,
    big: u64,
    min: i64,
    neg_zero: f64,
    e15: f64,
    e16: f64,
    escapes: String,
    unicode: String,
    empty_vec: Vec<u8>,
    vec: Vec<i32>,
    empty_map: BTreeMap<String, bool>,
    map: BTreeMap<String, Shape>,
    unit: Unit,
    shapes: Vec<Shape>,
}

fn edges() -> Edges {
    Edges {
        none: None,
        some: Some(-7),
        big: (1 << 53) + 1,
        min: i64::MIN,
        neg_zero: -0.0,
        e15: 1e15,
        e16: 1e16,
        escapes: "q\"b\\n\nr\rt\tc\u{1}\u{1f}/".to_string(),
        unicode: "héllo → 世界 🦀".to_string(),
        empty_vec: Vec::new(),
        vec: vec![1, -2, 3],
        empty_map: BTreeMap::new(),
        map: [
            ("b".to_string(), Shape::Empty),
            ("a".to_string(), Shape::Newtype(0.5)),
        ]
        .into_iter()
        .collect(),
        unit: Unit,
        shapes: vec![
            Shape::Empty,
            Shape::Newtype(2.0),
            Shape::Pair(3, "x".to_string()),
            Shape::Rect { w: 1.25, h: -4.0 },
        ],
    }
}

const COMPACT: &str = r#"{"none":null,"some":-7,"big":"9007199254740993","min":-9.223372036854776e18,"neg_zero":-0.0,"e15":1000000000000000.0,"e16":1e16,"escapes":"q\"b\\n\nr\rt\tc\u0001\u001f/","unicode":"héllo → 世界 🦀","empty_vec":[],"vec":[1,-2,3],"empty_map":{},"map":{"a":{"Newtype":0.5},"b":"Empty"},"unit":{},"shapes":["Empty",{"Newtype":2},{"Pair":[3,"x"]},{"Rect":{"w":1.25,"h":-4}}]}"#;

const PRETTY: &str = r#"{
  "none": null,
  "some": -7,
  "big": "9007199254740993",
  "min": -9.223372036854776e18,
  "neg_zero": -0.0,
  "e15": 1000000000000000.0,
  "e16": 1e16,
  "escapes": "q\"b\\n\nr\rt\tc\u0001\u001f/",
  "unicode": "héllo → 世界 🦀",
  "empty_vec": [],
  "vec": [
    1,
    -2,
    3
  ],
  "empty_map": {},
  "map": {
    "a": {
      "Newtype": 0.5
    },
    "b": "Empty"
  },
  "unit": {},
  "shapes": [
    "Empty",
    {
      "Newtype": 2
    },
    {
      "Pair": [
        3,
        "x"
      ]
    },
    {
      "Rect": {
        "w": 1.25,
        "h": -4
      }
    }
  ]
}"#;

#[test]
fn compact_text_is_pinned() {
    assert_eq!(serde_json::to_string(&edges()).unwrap(), COMPACT);
}

#[test]
fn pretty_text_is_pinned() {
    assert_eq!(serde_json::to_string_pretty(&edges()).unwrap(), PRETTY);
}

#[test]
fn pinned_text_reads_back_to_the_same_value() {
    for text in [COMPACT, PRETTY] {
        let back: Edges = serde_json::from_str(text).unwrap();
        assert_eq!(back, edges());
        assert_eq!(back.neg_zero.to_bits(), (-0.0f64).to_bits());
    }
}

#[test]
fn non_finite_floats_are_written_as_null() {
    let text = serde_json::to_string(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]).unwrap();
    assert_eq!(text, "[null,null,null]");
    assert_eq!(
        serde_json::to_string_pretty(&vec![f64::NAN]).unwrap(),
        "[\n  null\n]"
    );
}

#[test]
fn top_level_scalars_and_unit_shapes_are_pinned() {
    assert_eq!(serde_json::to_string(&Unit).unwrap(), "{}");
    assert_eq!(serde_json::to_string_pretty(&Unit).unwrap(), "{}");
    assert_eq!(serde_json::to_string(&Shape::Empty).unwrap(), "\"Empty\"");
    assert_eq!(
        serde_json::to_string(&u64::MAX).unwrap(),
        "1.8446744073709552e19"
    );
    assert_eq!(
        serde_json::to_string(&(1u64 << 60)).unwrap(),
        "1.152921504606847e18"
    );
    assert_eq!(serde_json::to_string(&None::<f64>).unwrap(), "null");
    assert_eq!(serde_json::to_string("a\u{7f}").unwrap(), "\"a\u{7f}\"");
}

// ---------------------------------------------------------------------------
// Reader contract
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Record {
    id: u32,
    label: String,
    #[serde(default)]
    extra: Vec<u32>,
    #[serde(default)]
    note: Option<String>,
}

fn read(text: &str) -> Result<Record, serde_json::Error> {
    serde_json::from_str(text)
}

#[test]
fn unknown_members_are_skipped_however_deeply_nested() {
    let text = r#"{"gone":{"a":[1,{"b":null,"c":[[],{}]}],"d":"}"},"id":7,
        "retired_workers":[true,false,-1.5e3,"x\"]"],"label":"l","tail":{}}"#;
    let record = read(text).unwrap();
    assert_eq!(record.id, 7);
    assert_eq!(record.label, "l");
}

#[test]
fn unknown_members_are_still_syntax_checked() {
    for text in [
        r#"{"id":1,"label":"l","gone":[1,}"#,
        r#"{"id":1,"label":"l","gone":{"a" 1}}"#,
        r#"{"id":1,"label":"l","gone":[1 2]}"#,
        r#"{"id":1,"label":"l","gone":nul}"#,
        r#"{"id":1,"label":"l","gone":"unterminated}"#,
    ] {
        assert!(read(text).is_err(), "{text}");
    }
}

#[test]
fn absent_default_members_take_their_default() {
    let record = read(r#"{"id":1,"label":"l"}"#).unwrap();
    assert_eq!(record.extra, Vec::<u32>::new());
    assert_eq!(record.note, None);
}

#[test]
fn an_absent_required_member_names_the_field_and_the_type() {
    let err = read(r#"{"id":1}"#).unwrap_err().to_string();
    assert!(err.contains("label"), "{err}");
    assert!(err.contains("Record"), "{err}");
}

#[test]
fn the_first_of_duplicate_members_wins() {
    let record = read(r#"{"id":1,"label":"first","id":2,"label":"second"}"#).unwrap();
    assert_eq!(record.id, 1);
    assert_eq!(record.label, "first");
}

#[test]
fn malformed_documents_are_errors() {
    for text in [
        r#"{"id":1,"label":"l""#,
        r#"{"id":1,"lab"#,
        r#"{"id":1,"label":"l"} x"#,
        r#"{"id":1,"label":"l"}}"#,
        r#"{"id":"1","label":"l"}"#,
        r#"{"id":1,"label":2}"#,
        r#"{"id":1,"label":"l","extra":{}}"#,
        r#"{"id":1,"label":"l",}"#,
        r#"{"id":1 "label":"l"}"#,
        r#"["id",1]"#,
        "",
    ] {
        assert!(read(text).is_err(), "{text}");
    }
    assert!(serde_json::from_str::<BTreeMap<String, u32>>(r#"{"a": }"#).is_err());
    assert!(serde_json::from_str::<Vec<u32>>("[1, 2").is_err());
    assert!(serde_json::from_str::<u32>("12 34").is_err());
}

#[test]
fn enum_variants_read_back_from_both_forms() {
    let shapes: Vec<Shape> =
        serde_json::from_str(r#"["Empty",{"Newtype":1},{"Pair":[2,"y"]},{"Rect":{"h":1,"w":2}}]"#)
            .unwrap();
    assert_eq!(
        shapes,
        vec![
            Shape::Empty,
            Shape::Newtype(1.0),
            Shape::Pair(2, "y".to_string()),
            Shape::Rect { w: 2.0, h: 1.0 },
        ]
    );
    for text in [
        r#""Square""#,
        r#"{"Empty":null}"#,
        r#"{"Pair":[2]}"#,
        r#"{"Pair":[2,"y",3]}"#,
        r#"{"Newtype":1,"Pair":[2,"y"]}"#,
        r#"{}"#,
        "3",
    ] {
        assert!(serde_json::from_str::<Shape>(text).is_err(), "{text}");
    }
}
