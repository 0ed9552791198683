//! Derive macros for the workspace `serde` shim.
//!
//! Supports the shapes the workspace actually uses:
//! structs with named fields, unit structs, and enums whose variants are
//! unit, tuple, or struct-like. Generic types are rejected with a compile
//! error. The token stream is parsed directly (no `syn`/`quote` — the build
//! environment has no crates.io access).

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum Shape {
    Struct {
        name: String,
        fields: Vec<Field>,
    },
    UnitStruct {
        name: String,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

#[derive(Debug)]
struct Field {
    name: String,
    /// Whether the field carries `#[serde(default)]`: deserialization fills a missing
    /// value with `Default::default()` instead of erroring (schema evolution).
    default: bool,
}

#[derive(Debug)]
struct Variant {
    name: String,
    kind: VariantKind,
}

#[derive(Debug)]
enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

/// Consumes leading attributes (`#[...]`, including expanded doc comments).
fn skip_attrs(toks: &[TokenTree], mut i: usize) -> usize {
    while i + 1 < toks.len() {
        match (&toks[i], &toks[i + 1]) {
            (TokenTree::Punct(p), TokenTree::Group(g))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                i += 2;
            }
            _ => break,
        }
    }
    i
}

/// Consumes an optional `pub` / `pub(...)` visibility.
fn skip_vis(toks: &[TokenTree], mut i: usize) -> usize {
    if let Some(TokenTree::Ident(id)) = toks.get(i) {
        if id.to_string() == "pub" {
            i += 1;
            if let Some(TokenTree::Group(g)) = toks.get(i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    i += 1;
                }
            }
        }
    }
    i
}

/// Whether the attribute tokens at `i` (`#` + bracket group) are `serde(default)`.
fn is_serde_default_attr(toks: &[TokenTree], i: usize) -> bool {
    let Some(TokenTree::Group(g)) = toks.get(i + 1) else {
        return false;
    };
    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
    match (inner.first(), inner.get(1)) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args)))
            if id.to_string() == "serde" && args.delimiter() == Delimiter::Parenthesis =>
        {
            args.stream()
                .into_iter()
                .any(|t| matches!(&t, TokenTree::Ident(a) if a.to_string() == "default"))
        }
        _ => false,
    }
}

/// Consumes leading attributes like [`skip_attrs`], additionally reporting whether one of
/// them was `#[serde(default)]`.
fn skip_attrs_noting_default(toks: &[TokenTree], mut i: usize) -> (usize, bool) {
    let mut default = false;
    while i + 1 < toks.len() {
        match (&toks[i], &toks[i + 1]) {
            (TokenTree::Punct(p), TokenTree::Group(g))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                default |= is_serde_default_attr(toks, i);
                i += 2;
            }
            _ => break,
        }
    }
    (i, default)
}

/// Parses `name: Type, ...` named fields, returning the field names and their
/// `#[serde(default)]` markers.
fn parse_named_fields(group: &proc_macro::Group) -> Result<Vec<Field>, String> {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let default;
        (i, default) = skip_attrs_noting_default(&toks, i);
        i = skip_vis(&toks, i);
        if i >= toks.len() {
            break;
        }
        let name = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => return Err(format!("expected field name, found {other}")),
        };
        i += 1;
        match &toks[i] {
            TokenTree::Punct(p) if p.as_char() == ':' => i += 1,
            other => return Err(format!("expected `:` after field `{name}`, found {other}")),
        }
        // Skip the type: consume until a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        while i < toks.len() {
            match &toks[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(Field { name, default });
    }
    Ok(fields)
}

/// Counts the fields of a tuple variant `( T, U, ... )`.
fn count_tuple_fields(group: &proc_macro::Group) -> usize {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    if toks.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut count = 1;
    let mut trailing_comma = false;
    for t in &toks {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                count += 1;
                trailing_comma = true;
                continue;
            }
            _ => {}
        }
        trailing_comma = false;
    }
    if trailing_comma {
        count -= 1;
    }
    count
}

fn parse_variants(group: &proc_macro::Group) -> Result<Vec<Variant>, String> {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        i = skip_attrs(&toks, i);
        if i >= toks.len() {
            break;
        }
        let name = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => return Err(format!("expected variant name, found {other}")),
        };
        i += 1;
        let kind = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g)?;
                i += 1;
                VariantKind::Struct(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g);
                i += 1;
                VariantKind::Tuple(n)
            }
            _ => VariantKind::Unit,
        };
        // Skip an explicit discriminant (`= expr`) and the separating comma.
        while i < toks.len() {
            match &toks[i] {
                TokenTree::Punct(p) if p.as_char() == ',' => {
                    i += 1;
                    break;
                }
                _ => i += 1,
            }
        }
        variants.push(Variant { name, kind });
    }
    Ok(variants)
}

fn parse_shape(input: TokenStream) -> Result<Shape, String> {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs(&toks, 0);
    i = skip_vis(&toks, i);
    let keyword = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, found {other:?}")),
    };
    i += 1;
    let name = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, found {other:?}")),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = toks.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "generic type `{name}` is not supported by the serde shim derive"
            ));
        }
    }
    // Find the body (brace group) or a terminating semicolon (unit struct).
    while i < toks.len() {
        match &toks[i] {
            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => {
                return match keyword.as_str() {
                    "struct" => Ok(Shape::Struct {
                        name,
                        fields: parse_named_fields(g)?,
                    }),
                    "enum" => Ok(Shape::Enum {
                        name,
                        variants: parse_variants(g)?,
                    }),
                    other => Err(format!("cannot derive for `{other}`")),
                };
            }
            TokenTree::Punct(p) if p.as_char() == ';' => {
                return if keyword == "struct" {
                    Ok(Shape::UnitStruct { name })
                } else {
                    Err("unexpected `;`".to_string())
                };
            }
            TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis => {
                return Err(format!(
                    "tuple struct `{name}` is not supported by the serde shim derive"
                ));
            }
            _ => i += 1,
        }
    }
    Err(format!("no body found for `{name}`"))
}

/// Statements writing `fields` (bound to the expressions `access(name)`) as one object.
fn write_object(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let members: String = fields
        .iter()
        .map(|f| {
            format!(
                "__out.key({:?}); ::serde::Serialize::serialize({}, __out);\n",
                f.name,
                access(&f.name)
            )
        })
        .collect();
    format!("__out.begin_object();\n{members}__out.end_object();\n")
}

/// Derives the workspace-shim `Serialize` trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let shape = match parse_shape(input) {
        Ok(s) => s,
        Err(e) => return compile_error(&e),
    };
    let (name, body) = match &shape {
        Shape::UnitStruct { name } => (name, write_object(&[], |_| String::new())),
        Shape::Struct { name, fields } => (name, write_object(fields, |f| format!("&self.{f}"))),
        Shape::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    let (pattern, value) = match &v.kind {
                        VariantKind::Unit => return format!("{name}::{vn} => __out.str({vn:?}),\n"),
                        VariantKind::Tuple(1) => (
                            "(__x0)".to_string(),
                            "::serde::Serialize::serialize(__x0, __out);\n".to_string(),
                        ),
                        VariantKind::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|k| format!("__x{k}")).collect();
                            let elements: String = binds
                                .iter()
                                .map(|b| {
                                    format!("__out.element(); ::serde::Serialize::serialize({b}, __out);\n")
                                })
                                .collect();
                            (
                                format!("({})", binds.join(", ")),
                                format!("__out.begin_array();\n{elements}__out.end_array();\n"),
                            )
                        }
                        VariantKind::Struct(fields) => {
                            let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                            (
                                format!(" {{ {} }}", binds.join(", ")),
                                write_object(fields, str::to_string),
                            )
                        }
                    };
                    // A data-carrying variant is an object with the variant's name as its
                    // single member.
                    format!(
                        "{name}::{vn}{pattern} => {{\n\
                           __out.begin_object(); __out.key({vn:?});\n{value}__out.end_object();\n\
                         }}\n"
                    )
                })
                .collect();
            (name, format!("match self {{\n{arms}}}\n"))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
           fn serialize(&self, __out: &mut ::serde::Serializer) {{\n{body}}}\n\
         }}"
    )
    .parse()
    .unwrap()
}

/// An expression reading one object into `path { fields }`, skipping unknown members,
/// keeping the first of duplicate members and filling absent `#[serde(default)]` members.
fn read_object(path: &str, fields: &[Field]) -> String {
    let slots: String = (0..fields.len())
        .map(|k| format!("let mut __f{k} = ::std::option::Option::None;\n"))
        .collect();
    let arms: String = fields
        .iter()
        .enumerate()
        .map(|(k, f)| {
            format!(
                "{:?} if __f{k}.is_none() => __f{k} = ::std::option::Option::Some(::serde::Deserialize::deserialize(__d)?),\n",
                f.name
            )
        })
        .collect();
    let inits: String = fields
        .iter()
        .enumerate()
        .map(|(k, f)| {
            let field = &f.name;
            if f.default {
                format!("{field}: __f{k}.unwrap_or_default(),\n")
            } else {
                format!(
                    "{field}: match __f{k} {{\n\
                       ::std::option::Option::Some(__v) => __v,\n\
                       ::std::option::Option::None => return ::std::result::Result::Err(__d.error({:?})),\n\
                     }},\n",
                    format!("missing field `{field}` in {path}")
                )
            }
        })
        .collect();
    format!(
        "{{\n{slots}\
           __d.begin_object()?;\n\
           while let ::std::option::Option::Some(__key) = __d.next_key()? {{\n\
             match &*__key {{\n{arms}_ => __d.skip_value()?,\n}}\n\
           }}\n\
           {path} {{\n{inits}}}\n\
         }}"
    )
}

/// Derives the workspace-shim `Deserialize` trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let shape = match parse_shape(input) {
        Ok(s) => s,
        Err(e) => return compile_error(&e),
    };
    let (name, body) = match &shape {
        Shape::UnitStruct { name } => (
            name,
            format!("__d.skip_value()?;\n::std::result::Result::Ok({name})\n"),
        ),
        Shape::Struct { name, fields } => (
            name,
            format!("::std::result::Result::Ok({})\n", read_object(name, fields)),
        ),
        Shape::Enum { name, variants } => {
            let unit_arms: String = variants
                .iter()
                .filter(|v| matches!(v.kind, VariantKind::Unit))
                .map(|v| {
                    format!(
                        "{:?} => ::std::result::Result::Ok({name}::{}),\n",
                        v.name, v.name
                    )
                })
                .collect();
            let data_arms: String = variants
                .iter()
                .filter_map(|v| {
                    let vn = &v.name;
                    let path = format!("{name}::{vn}");
                    let value = match &v.kind {
                        VariantKind::Unit => return None,
                        VariantKind::Tuple(1) => {
                            format!("{path}(::serde::Deserialize::deserialize(__d)?)")
                        }
                        VariantKind::Tuple(n) => format!(
                            "{{ __d.begin_array()?; let __v = {path}({}); __d.end_array()?; __v }}",
                            vec!["__d.element()?"; *n].join(", ")
                        ),
                        VariantKind::Struct(fields) => read_object(&path, fields),
                    };
                    Some(format!("{vn:?} => {value},\n"))
                })
                .collect();
            let unknown = format!(
                "::std::result::Result::Err(__d.error(format_args!(\"unknown variant `{{}}` of {name}\", __other)))"
            );
            // A unit variant is a string; a data-carrying one is an object whose single
            // member is named after the variant.
            let data = if data_arms.is_empty() {
                format!("::std::result::Result::Err(__d.error(\"cannot deserialize {name}\"))\n")
            } else {
                format!(
                    "__d.begin_object()?;\n\
                     let ::std::option::Option::Some(__tag) = __d.next_key()? else {{\n\
                       return ::std::result::Result::Err(__d.error(\"cannot deserialize {name}\"));\n\
                     }};\n\
                     let __value = match &*__tag {{\n{data_arms}__other => return {unknown},\n}};\n\
                     if __d.next_key()?.is_some() {{\n\
                       return ::std::result::Result::Err(__d.error(\"cannot deserialize {name}: more than one variant\"));\n\
                     }}\n\
                     ::std::result::Result::Ok(__value)\n"
                )
            };
            (
                name,
                format!(
                    "if __d.next_is_string() {{\n\
                       let __tag = __d.str()?;\n\
                       return match &*__tag {{\n{unit_arms}__other => {unknown},\n}};\n\
                     }}\n\
                     {data}"
                ),
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
           fn deserialize(__d: &mut ::serde::Deserializer<'_>) -> ::std::result::Result<Self, ::serde::Error> {{\n{body}}}\n\
         }}"
    )
    .parse()
    .unwrap()
}
