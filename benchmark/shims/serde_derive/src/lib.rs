//! `#[derive(Serialize, Deserialize)]` for the `serde` stand-in, written
//! against bare `proc_macro` (no syn/quote — nothing resolves offline).
//!
//! Supported shapes are exactly what the PERQ crates derive on:
//! non-generic structs with named fields, and enums whose variants are
//! unit or struct-like. Supported attributes: `#[serde(default)]` on a
//! container or a field, and `#[serde(rename_all = "snake_case")]` on a
//! container. Anything else is a compile error naming the limitation.

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Field {
    name: String,
    default: bool,
}

enum VariantShape {
    Unit,
    Struct(Vec<Field>),
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum Body {
    Struct(Vec<Field>),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    default: bool,
    snake_case: bool,
    body: Body,
}

/// What one `#[...]` attribute says, as far as this derive cares.
#[derive(Default)]
struct SerdeAttr {
    default: bool,
    snake_case: bool,
}

fn parse_attr(group: &proc_macro::Group, into: &mut SerdeAttr) -> Result<(), String> {
    let mut tokens = group.stream().into_iter();
    match tokens.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return Ok(()), // some other attribute (doc, derive, ...)
    }
    let Some(TokenTree::Group(args)) = tokens.next() else {
        return Err("malformed #[serde] attribute".into());
    };
    let args: Vec<TokenTree> = args.stream().into_iter().collect();
    let mut i = 0;
    while i < args.len() {
        match &args[i] {
            TokenTree::Ident(id) if id.to_string() == "default" => {
                into.default = true;
                i += 1;
            }
            TokenTree::Ident(id) if id.to_string() == "rename_all" => {
                let value = args.get(i + 2).map(|t| t.to_string()).unwrap_or_default();
                if value != "\"snake_case\"" {
                    return Err(format!("serde stand-in: unsupported rename_all = {value}"));
                }
                into.snake_case = true;
                i += 3;
            }
            TokenTree::Punct(p) if p.as_char() == ',' => i += 1,
            other => return Err(format!("serde stand-in: unsupported attribute `{other}`")),
        }
    }
    Ok(())
}

/// Parses `name: Type, ...` inside a brace group.
fn parse_fields(group: &proc_macro::Group) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let mut attr = SerdeAttr::default();
        // Attributes and visibility.
        loop {
            match tokens.get(i) {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                        parse_attr(g, &mut attr)?;
                    }
                    i += 2;
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    i += 1;
                    if let Some(TokenTree::Group(g)) = tokens.get(i) {
                        if g.delimiter() == Delimiter::Parenthesis {
                            i += 1;
                        }
                    }
                }
                _ => break,
            }
        }
        let Some(TokenTree::Ident(name)) = tokens.get(i) else {
            if i >= tokens.len() {
                break;
            }
            return Err("serde stand-in: expected a field name".into());
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            _ => return Err("serde stand-in: only named fields are supported".into()),
        }
        // Skip the type up to the next top-level comma.
        let mut angle = 0i32;
        while let Some(tok) = tokens.get(i) {
            if let TokenTree::Punct(p) = tok {
                match p.as_char() {
                    '<' => angle += 1,
                    '>' => angle -= 1,
                    ',' if angle == 0 => break,
                    _ => {}
                }
            }
            i += 1;
        }
        i += 1; // the comma
        fields.push(Field {
            name: name.to_string(),
            default: attr.default,
        });
    }
    Ok(fields)
}

fn parse_variants(group: &proc_macro::Group) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        while let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() != '#' {
                break;
            }
            i += 2; // `#` and its bracket group (docs, #[default])
        }
        let Some(TokenTree::Ident(name)) = tokens.get(i) else {
            break;
        };
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantShape::Struct(parse_fields(g)?)
            }
            Some(TokenTree::Group(_)) => {
                return Err("serde stand-in: tuple variants are not supported".into());
            }
            _ => VariantShape::Unit,
        };
        // Optional discriminant and the trailing comma.
        while let Some(tok) = tokens.get(i) {
            i += 1;
            if matches!(tok, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
        variants.push(Variant {
            name: name.to_string(),
            shape,
        });
    }
    Ok(variants)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut attr = SerdeAttr::default();
    let mut i = 0;
    let mut kind = None;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                    parse_attr(g, &mut attr)?;
                }
                i += 2;
            }
            TokenTree::Ident(id) if matches!(id.to_string().as_str(), "struct" | "enum") => {
                kind = Some(id.to_string());
                i += 1;
                break;
            }
            _ => i += 1, // visibility
        }
    }
    let kind = kind.ok_or("serde stand-in: expected a struct or enum")?;
    let Some(TokenTree::Ident(name)) = tokens.get(i) else {
        return Err("serde stand-in: expected a type name".into());
    };
    let body = match tokens.get(i + 1) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            if kind == "struct" {
                Body::Struct(parse_fields(g)?)
            } else {
                Body::Enum(parse_variants(g)?)
            }
        }
        _ => {
            return Err(
                "serde stand-in: generics, tuple structs and unit structs are not supported".into(),
            )
        }
    };
    Ok(Item {
        name: name.to_string(),
        default: attr.default,
        snake_case: attr.snake_case,
        body,
    })
}

fn snake_case(name: &str) -> String {
    let mut out = String::new();
    for (i, ch) in name.chars().enumerate() {
        if ch.is_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.extend(ch.to_lowercase());
        } else {
            out.push(ch);
        }
    }
    out
}

fn wire_name(item: &Item, variant: &str) -> String {
    if item.snake_case {
        snake_case(variant)
    } else {
        variant.to_string()
    }
}

/// Statements writing `"a":<a>,"b":<b>` for fields reachable as
/// `<prefix>name` (`self.` for structs, empty for bound variant fields).
fn write_fields(fields: &[Field], prefix: &str) -> String {
    let mut code = String::new();
    for (i, f) in fields.iter().enumerate() {
        let comma = if i > 0 { "," } else { "" };
        code += &format!(
            "out.extend_from_slice(b\"{comma}\\\"{name}\\\":\");\
             ::serde::Serialize::serialize_json(&{prefix}{name}, out);",
            name = f.name
        );
    }
    code
}

/// An expression block that parses `{ "a": .., "b": .. }` at `p` and
/// evaluates to `<ctor> { a, b }`.
fn read_fields(fields: &[Field], ctor: &str, container_default: Option<&str>) -> String {
    let mut code = String::from("{");
    for (i, _) in fields.iter().enumerate() {
        code += &format!("let mut f{i} = ::std::option::Option::None;");
    }
    code += "p.expect(b'{')?; if !p.eat(b'}') { loop { let key = p.parse_string()?; \
             p.expect(b':')?; match key.as_str() {";
    for (i, f) in fields.iter().enumerate() {
        code += &format!(
            "\"{}\" => f{i} = ::std::option::Option::Some(\
             ::serde::Deserialize::deserialize_json(p)?),",
            f.name
        );
    }
    code += "_ => p.skip_value()?, } if !p.eat(b',') { p.expect(b'}')?; break; } } }";
    if let Some(ty) = container_default {
        code += &format!("let dflt: {ty} = ::std::default::Default::default();");
    }
    code += &format!("{ctor} {{");
    for (i, f) in fields.iter().enumerate() {
        let fallback = if container_default.is_some() {
            format!("dflt.{}", f.name)
        } else if f.default {
            "::std::default::Default::default()".to_string()
        } else {
            format!(
                "match ::serde::Deserialize::missing() {{ \
                 ::std::option::Option::Some(v) => v, \
                 ::std::option::Option::None => \
                 return ::std::result::Result::Err(p.error(\"missing field `{}`\")) }}",
                f.name
            )
        };
        code += &format!(
            "{}: match f{i} {{ ::std::option::Option::Some(v) => v, \
             ::std::option::Option::None => {fallback} }},",
            f.name
        );
    }
    code += "} }";
    code
}

fn field_names(fields: &[Field]) -> String {
    fields
        .iter()
        .map(|f| f.name.as_str())
        .collect::<Vec<_>>()
        .join(", ")
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});")
        .parse()
        .expect("valid compile_error")
}

/// Derives the stand-in `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) => item,
        Err(msg) => return compile_error(&msg),
    };
    let body = match &item.body {
        Body::Struct(fields) => format!(
            "out.push(b'{{'); {} out.push(b'}}');",
            write_fields(fields, "self.")
        ),
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let wire = wire_name(&item, &v.name);
                match &v.shape {
                    VariantShape::Unit => {
                        arms += &format!(
                            "{}::{} => out.extend_from_slice(b\"\\\"{wire}\\\"\"),",
                            item.name, v.name
                        );
                    }
                    VariantShape::Struct(fields) => {
                        arms += &format!(
                            "{}::{} {{ {} }} => {{ \
                             out.extend_from_slice(b\"{{\\\"{wire}\\\":{{\"); {} \
                             out.extend_from_slice(b\"}}}}\"); }},",
                            item.name,
                            v.name,
                            field_names(fields),
                            write_fields(fields, "")
                        );
                    }
                }
            }
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {} {{ \
         fn serialize_json(&self, out: &mut ::std::vec::Vec<u8>) {{ {body} }} }}",
        item.name
    )
    .parse()
    .expect("generated Serialize impl parses")
}

/// Derives the stand-in `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) => item,
        Err(msg) => return compile_error(&msg),
    };
    let body = match &item.body {
        Body::Struct(fields) => {
            let dflt = item.default.then_some(item.name.as_str());
            format!(
                "::std::result::Result::Ok({})",
                read_fields(fields, &item.name, dflt)
            )
        }
        Body::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut struct_arms = String::new();
            for v in variants {
                let wire = wire_name(&item, &v.name);
                match &v.shape {
                    VariantShape::Unit => {
                        unit_arms += &format!("\"{wire}\" => {}::{},", item.name, v.name);
                    }
                    VariantShape::Struct(fields) => {
                        let ctor = format!("{}::{}", item.name, v.name);
                        struct_arms +=
                            &format!("\"{wire}\" => {},", read_fields(fields, &ctor, None));
                    }
                }
            }
            // An enum with no variants of one shape gets a plain error
            // on that branch (a `match` with only the diverging arm
            // would make the code after it unreachable).
            let unit_branch = if unit_arms.is_empty() {
                "::std::result::Result::Err(p.error(\"expected a variant object\"))".to_string()
            } else {
                format!(
                    "let name = p.parse_string()?; \
                     ::std::result::Result::Ok(match name.as_str() {{ {unit_arms} \
                     _ => return ::std::result::Result::Err(p.error(\"unknown variant\")) }})"
                )
            };
            let struct_branch = if struct_arms.is_empty() {
                "::std::result::Result::Err(p.error(\"expected a variant name\"))".to_string()
            } else {
                format!(
                    "p.expect(b'{{')?; let name = p.parse_string()?; p.expect(b':')?; \
                     let value = match name.as_str() {{ {struct_arms} \
                     _ => return ::std::result::Result::Err(p.error(\"unknown variant\")) }}; \
                     p.expect(b'}}')?; ::std::result::Result::Ok(value)"
                )
            };
            format!(
                "if p.peek() == ::std::option::Option::Some(b'\"') {{ {unit_branch} }} \
                 else {{ {struct_branch} }}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {} {{ \
         fn deserialize_json(p: &mut ::serde::de::Parser<'_>) \
         -> ::std::result::Result<Self, ::serde::de::Error> {{ {body} }} }}",
        item.name
    )
    .parse()
    .expect("generated Deserialize impl parses")
}
