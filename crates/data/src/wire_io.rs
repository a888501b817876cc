//! Wire serialization for schema-level types ([`Value`], [`Attribute`],
//! [`Schema`]).
//!
//! These encoders feed the durability layer: streaming snapshots persist the
//! frozen [`Schema`] next to the [`crate::FrozenEncoder`], the write-ahead
//! log journals ingested rows as `Vec<Value>`, and the server's wire format
//! carries request rows the same way. Every encoding is
//! byte-exact (floats travel as raw IEEE-754 bits) and every decoder returns
//! a typed [`WireError`] on truncated or malformed input — never a panic.

use crate::schema::{AttrKind, Attribute, Role, Schema};
use crate::value::Value;
use crate::wire::{self, Reader, WireError};

/// Append one [`Value`] (tag byte + payload) to `out`.
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Num(x) => {
            out.push(0);
            wire::put_f64(out, *x);
        }
        Value::Label(s) => {
            out.push(1);
            wire::put_str(out, s);
        }
        Value::CatIndex(i) => {
            out.push(2);
            wire::put_u32(out, *i);
        }
    }
}

/// Decode one [`Value`] written by [`put_value`].
pub fn get_value(r: &mut Reader<'_>) -> Result<Value, WireError> {
    let tag = r.take(1)?[0];
    Ok(match tag {
        0 => Value::Num(r.get_f64()?),
        1 => Value::Label(r.get_string()?),
        2 => Value::CatIndex(r.get_u32()?),
        t => {
            return Err(WireError::UnknownTag {
                what: "value kind",
                tag: t as u64,
            })
        }
    })
}

/// Append a row of values with a leading length.
pub fn put_row(out: &mut Vec<u8>, row: &[Value]) {
    wire::put_usize(out, row.len());
    for v in row {
        put_value(out, v);
    }
}

/// Decode a row written by [`put_row`].
pub fn get_row(r: &mut Reader<'_>) -> Result<Vec<Value>, WireError> {
    // A value is at least 1 tag byte, so the count is bounded by the bytes
    // actually present — a corrupt length fails here, before allocation.
    let n = r.get_len(1)?;
    (0..n).map(|_| get_value(r)).collect()
}

fn role_tag(role: Role) -> u8 {
    match role {
        Role::NonSensitive => 0,
        Role::Sensitive => 1,
        Role::Auxiliary => 2,
    }
}

fn role_from_tag(tag: u8) -> Result<Role, WireError> {
    Ok(match tag {
        0 => Role::NonSensitive,
        1 => Role::Sensitive,
        2 => Role::Auxiliary,
        t => {
            return Err(WireError::UnknownTag {
                what: "attribute role",
                tag: t as u64,
            })
        }
    })
}

/// Append one [`Attribute`] declaration to `out`.
pub fn put_attribute(out: &mut Vec<u8>, attr: &Attribute) {
    wire::put_str(out, &attr.name);
    out.push(role_tag(attr.role));
    match &attr.kind {
        AttrKind::Numeric => out.push(0),
        AttrKind::Categorical { values } => {
            out.push(1);
            wire::put_usize(out, values.len());
            for v in values {
                wire::put_str(out, v);
            }
        }
    }
}

/// Decode one [`Attribute`] written by [`put_attribute`].
pub fn get_attribute(r: &mut Reader<'_>) -> Result<Attribute, WireError> {
    let name = r.get_string()?;
    let role = role_from_tag(r.take(1)?[0])?;
    let kind = match r.take(1)?[0] {
        0 => AttrKind::Numeric,
        1 => {
            // Each label costs at least its 8-byte length prefix.
            let n = r.get_len(8)?;
            let values = (0..n)
                .map(|_| r.get_string())
                .collect::<Result<Vec<_>, _>>()?;
            AttrKind::Categorical { values }
        }
        t => {
            return Err(WireError::UnknownTag {
                what: "attribute kind",
                tag: t as u64,
            })
        }
    };
    Ok(Attribute { name, role, kind })
}

/// Append a whole [`Schema`] to `out`.
pub fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    wire::put_usize(out, schema.len());
    for (_, attr) in schema.iter() {
        put_attribute(out, attr);
    }
}

/// Decode a [`Schema`] written by [`put_schema`], re-running the same
/// validation as interactive construction (unique names, non-empty unique
/// domains). A decoded schema that would be rejected by
/// [`Schema::push`](crate::Schema) surfaces as [`WireError::Invalid`].
pub fn get_schema(r: &mut Reader<'_>) -> Result<Schema, WireError> {
    // An attribute costs at least an 8-byte name length prefix.
    let n = r.get_len(8)?;
    let mut schema = Schema::new();
    for _ in 0..n {
        let attr = get_attribute(r)?;
        schema
            .push(attr)
            .map_err(|_| WireError::Invalid { what: "schema" })?;
    }
    Ok(schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Reader;

    fn sample_schema() -> Schema {
        let mut s = Schema::new();
        s.push(Attribute {
            name: "score".into(),
            role: Role::NonSensitive,
            kind: AttrKind::Numeric,
        })
        .unwrap();
        s.push(Attribute {
            name: "gender".into(),
            role: Role::Sensitive,
            kind: AttrKind::Categorical {
                values: vec!["female".into(), "male".into()],
            },
        })
        .unwrap();
        s.push(Attribute {
            name: "note".into(),
            role: Role::Auxiliary,
            kind: AttrKind::Categorical {
                values: vec!["a".into(), "b".into(), "c".into()],
            },
        })
        .unwrap();
        s
    }

    #[test]
    fn value_round_trip() {
        for v in [
            Value::Num(1.5),
            Value::Num(f64::NEG_INFINITY),
            Value::Num(-0.0),
            Value::Label("hello".into()),
            Value::Label(String::new()),
            Value::CatIndex(7),
        ] {
            let mut out = Vec::new();
            put_value(&mut out, &v);
            let mut r = Reader::new(&out);
            let back = get_value(&mut r).unwrap();
            r.expect_empty().unwrap();
            // Compare NaN-safely via the display/debug form of raw bits.
            match (&v, &back) {
                (Value::Num(a), Value::Num(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(v, back),
            }
        }
    }

    #[test]
    fn row_round_trip() {
        let row = vec![
            Value::Num(2.0),
            Value::Label("x".into()),
            Value::CatIndex(3),
        ];
        let mut out = Vec::new();
        put_row(&mut out, &row);
        let mut r = Reader::new(&out);
        assert_eq!(get_row(&mut r).unwrap(), row);
        r.expect_empty().unwrap();
    }

    #[test]
    fn schema_round_trip() {
        let schema = sample_schema();
        let mut out = Vec::new();
        put_schema(&mut out, &schema);
        let mut r = Reader::new(&out);
        let back = get_schema(&mut r).unwrap();
        r.expect_empty().unwrap();
        assert_eq!(schema, back);
    }

    #[test]
    fn unknown_tags_are_typed_errors() {
        let mut out = Vec::new();
        put_value(&mut out, &Value::CatIndex(1));
        out[0] = 9;
        assert!(matches!(
            get_value(&mut Reader::new(&out)),
            Err(WireError::UnknownTag {
                what: "value kind",
                ..
            })
        ));
    }

    #[test]
    fn duplicate_attribute_decodes_to_invalid() {
        let attr = Attribute {
            name: "dup".into(),
            role: Role::NonSensitive,
            kind: AttrKind::Numeric,
        };
        let mut out = Vec::new();
        crate::wire::put_usize(&mut out, 2);
        put_attribute(&mut out, &attr);
        put_attribute(&mut out, &attr);
        assert!(matches!(
            get_schema(&mut Reader::new(&out)),
            Err(WireError::Invalid { what: "schema" })
        ));
    }

    #[test]
    fn truncation_never_panics() {
        let schema = sample_schema();
        let mut out = Vec::new();
        put_schema(&mut out, &schema);
        for cut in 0..out.len() {
            // Every strict prefix must fail with a typed error.
            assert!(get_schema(&mut Reader::new(&out[..cut])).is_err());
        }
    }
}
