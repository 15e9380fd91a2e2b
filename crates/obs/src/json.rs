//! Hand-written JSON decoding: the one path from a parsed [`Value`] tree
//! back to a typed value. Each type read back from disk implements
//! [`FromJson`] next to its definition and reads exactly what its
//! `Serialize` derive writes: structs as objects, `None` as `null`, enums
//! externally tagged.
//!
//! Every error starts with the path of the offending value, such as
//! `artifact.ops[0].Conv2d.stride: must be positive`. Children decode
//! under an empty path that is prefixed with their index or name only
//! on failure, so a decode that succeeds formats no path at all.

pub use serde_json::Value;

/// A type decoded from a parsed JSON tree.
pub trait FromJson: Sized {
    /// Decodes `v`, found at path `ctx`. Every error message starts
    /// with `ctx` and says what was expected there.
    fn from_json(v: &Value, ctx: &str) -> Result<Self, String>;
}

/// Parses `text` and decodes it as a `T` rooted at path `ctx`; a parse
/// error starts with `ctx` too.
pub fn parse<T: FromJson>(text: &str, ctx: &str) -> Result<T, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| format!("{ctx}: {e}"))?;
    T::from_json(&v, ctx)
}

/// Decodes member `name` of the object `v` at path `ctx`. An absent
/// member reads as `None` for an `Option` and is the error
/// `<ctx>.<name>: missing` for anything else.
pub fn field<T: FromJson>(v: &Value, ctx: &str, name: &str) -> Result<T, String> {
    match v.get(name) {
        Some(member) => T::from_json(member, "").map_err(|e| format!("{ctx}.{name}{e}")),
        None => T::from_json(&Value::Null, "").map_err(|_| format!("{ctx}.{name}: missing")),
    }
}

/// Splits an externally tagged enum value at path `ctx` into its
/// variant name and body: a unit variant is a bare string (its body
/// reads as `null`), any other variant an object with one member.
pub fn variant<'v>(v: &'v Value, ctx: &str) -> Result<(&'v str, &'v Value), String> {
    const UNIT: &Value = &Value::Null;
    if let Some(name) = v.as_str() {
        return Ok((name, UNIT));
    }
    v.as_object()
        .filter(|m| m.len() == 1)
        .and_then(|m| m.iter().next())
        .map(|(name, body)| (name.as_str(), body))
        .ok_or_else(|| format!("{ctx}: expected a variant"))
}

/// Decodes element `i` of the array at path `ctx`.
fn element<T: FromJson>(v: &Value, ctx: &str, i: usize) -> Result<T, String> {
    T::from_json(v, "").map_err(|e| format!("{ctx}[{i}]{e}"))
}

macro_rules! integer {
    ($($t:ty => $get:ident, $what:literal;)*) => {$(
        impl FromJson for $t {
            fn from_json(v: &Value, ctx: &str) -> Result<Self, String> {
                v.$get()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| format!("{ctx}: expected {}", $what))
            }
        }
    )*};
}

integer! {
    u32 => as_u64, "an unsigned 32-bit integer";
    u64 => as_u64, "an unsigned integer";
    usize => as_u64, "an unsigned integer";
    i32 => as_i64, "a signed 32-bit integer";
}

impl FromJson for f32 {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, String> {
        v.as_f64()
            .map(|f| f as f32)
            .ok_or_else(|| format!("{ctx}: expected a number"))
    }
}

impl FromJson for bool {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, String> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("{ctx}: expected a boolean")),
        }
    }
}

impl FromJson for String {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("{ctx}: expected a string"))
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, String> {
        match v {
            Value::Null => Ok(None),
            v => T::from_json(v, ctx).map(Some),
        }
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, String> {
        let items = v
            .as_array()
            .ok_or_else(|| format!("{ctx}: expected an array"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| element(item, ctx, i))
            .collect()
    }
}

/// A pair is a two-element array, as `Serialize` writes it.
impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, String> {
        match v.as_array().map(Vec::as_slice) {
            Some([a, b]) => Ok((element(a, ctx, 0)?, element(b, ctx, 1)?)),
            _ => Err(format!("{ctx}: expected a two-element array")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode<T: FromJson>(text: &str) -> Result<T, String> {
        parse(text, "doc")
    }

    #[test]
    fn scalars_decode_and_reject_other_kinds() {
        assert_eq!(decode::<u32>("7"), Ok(7));
        assert_eq!(decode::<i32>("-7"), Ok(-7));
        assert_eq!(decode::<f32>("0.5"), Ok(0.5));
        assert_eq!(decode::<bool>("true"), Ok(true));
        assert_eq!(decode::<String>("\"s\""), Ok("s".to_string()));
        assert_eq!(
            decode::<u32>("-1"),
            Err("doc: expected an unsigned 32-bit integer".to_string())
        );
        assert_eq!(
            decode::<u32>("4294967296"),
            Err("doc: expected an unsigned 32-bit integer".to_string())
        );
        assert_eq!(
            decode::<f32>("null"),
            Err("doc: expected a number".to_string())
        );
        assert!(decode::<u32>("{").unwrap_err().starts_with("doc: "));
    }

    #[test]
    fn f32_round_trips_bit_exactly_through_text() {
        for x in [0.1f32, -3.4e38, 1.0e-45, 16_777_217.0, f32::MIN_POSITIVE] {
            let text = serde_json::to_string(&x).unwrap();
            assert_eq!(decode::<f32>(&text).unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn errors_carry_the_full_path() {
        let v: Value = serde_json::from_str(r#"{"a": [[1, 2], ["x", 3]], "n": null}"#).unwrap();
        let pairs: Result<Vec<(String, u32)>, _> = field(&v, "doc", "a");
        assert_eq!(pairs, Err("doc.a[0][0]: expected a string".to_string()));
        let nums: Result<Vec<Vec<u32>>, _> = field(&v, "doc", "a");
        assert_eq!(
            nums,
            Err("doc.a[1][0]: expected an unsigned 32-bit integer".to_string())
        );
        assert_eq!(
            field::<u32>(&v, "doc", "gone"),
            Err("doc.gone: missing".to_string())
        );
        assert_eq!(field::<Option<u32>>(&v, "doc", "gone"), Ok(None));
        assert_eq!(field::<Option<u32>>(&v, "doc", "n"), Ok(None));
        assert_eq!(
            field::<u32>(&v, "doc", "n"),
            Err("doc.n: expected an unsigned 32-bit integer".to_string())
        );
    }

    #[test]
    fn variants_are_names_or_single_member_objects() {
        let unit: Value = serde_json::from_str("\"Relu\"").unwrap();
        assert_eq!(variant(&unit, "op"), Ok(("Relu", &Value::Null)));
        let tagged: Value = serde_json::from_str(r#"{"Pool": {"w": 2}}"#).unwrap();
        let (name, body) = variant(&tagged, "op").unwrap();
        assert_eq!((name, field::<u32>(body, "op.Pool", "w")), ("Pool", Ok(2)));
        for bad in ["{}", r#"{"A": 1, "B": 2}"#, "3"] {
            let v: Value = serde_json::from_str(bad).unwrap();
            assert_eq!(variant(&v, "op"), Err("op: expected a variant".to_string()));
        }
    }
}
