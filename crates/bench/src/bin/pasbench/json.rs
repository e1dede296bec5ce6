//! JSON values for the benchmark's own files: `BENCHMARK.json`, the
//! committed digests, and run records and results files.
//!
//! The `bench` crate, which also builds these sources as its `pasbench`
//! binary, has `serde_json` but not `serde`, so nothing here derives.
//! Strings are escaped and unescaped by `serde_json`; this module only
//! handles the structure around them.

use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number; written as `null` when not finite.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Fields in the order they were written.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object of `fields`.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// Field `key` of an object.
    pub fn get(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(fields) => {
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v).ok_or(format!("no {key:?}"))
            }
            _ => Err(format!("no {key:?} in a non-object")),
        }
    }

    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Json::Num(x) => Ok(*x),
            // A value that was not finite when written.
            Json::Null => Ok(f64::NAN),
            other => Err(format!("expected a number, found {other}")),
        }
    }

    pub fn as_u64(&self) -> Result<u64, String> {
        let x = self.as_f64()?;
        if x >= 0.0 && x.fract() == 0.0 && x < 2f64.powi(53) {
            Ok(x as u64)
        } else {
            Err(format!("expected a whole number, found {x}"))
        }
    }

    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected true or false, found {other}")),
        }
    }

    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected a string, found {other}")),
        }
    }

    pub fn as_arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(format!("expected an array, found {other}")),
        }
    }

    pub fn as_obj(&self) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(fields) => Ok(fields),
            other => Err(format!("expected an object, found {other}")),
        }
    }
}

fn quoted(s: &str) -> String {
    serde_json::to_string(s).expect("a string always serializes")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => f.write_str(&quoted(s)),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    write!(f, "{}{item}", if i == 0 { "" } else { ", " })?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    write!(f, "{}{}: {v}", if i == 0 { "" } else { ", " }, quoted(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, at: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.at != text.len() {
        return Err(format!("trailing text at byte {}", p.at));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl<'a> Parser<'a> {
    fn rest(&self) -> &'a str {
        &self.text[self.at..]
    }

    fn skip_ws(&mut self) {
        let rest = self.rest();
        self.at += rest.len() - rest.trim_start().len();
    }

    /// Consumes `c` after any whitespace, if it comes next.
    fn eat(&mut self, c: char) -> bool {
        self.skip_ws();
        let found = self.rest().starts_with(c);
        if found {
            self.at += 1;
        }
        found
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!("expected {c:?} at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        if self.eat('{') {
            let mut fields = Vec::new();
            if !self.eat('}') {
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(':')?;
                    fields.push((key, self.value()?));
                    if self.eat('}') {
                        break;
                    }
                    self.expect(',')?;
                }
            }
            Ok(Json::Obj(fields))
        } else if self.eat('[') {
            let mut items = Vec::new();
            if !self.eat(']') {
                loop {
                    items.push(self.value()?);
                    if self.eat(']') {
                        break;
                    }
                    self.expect(',')?;
                }
            }
            Ok(Json::Arr(items))
        } else if self.rest().starts_with('"') {
            self.string().map(Json::Str)
        } else {
            let rest = self.rest();
            let len = rest.find([',', ']', '}', ' ', '\t', '\n', '\r']).unwrap_or(rest.len());
            let token = &rest[..len];
            let value = match token {
                "null" => Json::Null,
                "true" => Json::Bool(true),
                "false" => Json::Bool(false),
                _ => Json::Num(
                    token
                        .parse()
                        .map_err(|_| format!("bad value {token:?} at byte {}", self.at))?,
                ),
            };
            self.at += len;
            Ok(value)
        }
    }

    /// A string literal starting here, unescaped.
    fn string(&mut self) -> Result<String, String> {
        let rest = self.rest();
        if !rest.starts_with('"') {
            return Err(format!("expected a string at byte {}", self.at));
        }
        let mut escaped = false;
        let close = rest[1..]
            .char_indices()
            .find(|&(_, c)| {
                let close = c == '"' && !escaped;
                escaped = c == '\\' && !escaped;
                close
            })
            .ok_or(format!("unterminated string at byte {}", self.at))?
            .0;
        let literal = &rest[..close + 2];
        self.at += literal.len();
        serde_json::from_str(literal).map_err(|e| format!("bad string {literal}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_through_text() {
        let v = Json::obj([
            ("name", Json::str("a \"quoted\" \\ name\n")),
            ("n", Json::Num(2.5)),
            ("whole", Json::Num(37031.0)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Bool(false), Json::Null])),
            ("empty", Json::Obj(Vec::new())),
            ("none", Json::Arr(Vec::new())),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text), Ok(v.clone()));
        assert_eq!(v.get("whole").and_then(Json::as_u64), Ok(37031));
        assert_eq!(v.get("name").and_then(Json::as_str), Ok("a \"quoted\" \\ name\n"));
        assert!(v.get("missing").is_err());
    }

    #[test]
    fn pretty_printed_documents_parse() {
        let v = parse("{\n  \"a\": [ 1 , -2.5e3 ],\n  \"b\" : { }\n}\n").expect("valid JSON");
        let a: Vec<f64> = v
            .get("a")
            .and_then(Json::as_arr)
            .expect("an array")
            .iter()
            .map(|x| x.as_f64().expect("a number"))
            .collect();
        assert_eq!(a, [1.0, -2500.0]);
        assert_eq!(v.get("b").and_then(Json::as_obj).map(<[_]>::len), Ok(0));
    }

    #[test]
    fn malformed_documents_are_refused() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "\"open", "[1] 2", "tru"] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn a_number_that_was_not_finite_reads_back_as_nan() {
        let text = Json::Num(f64::NAN).to_string();
        assert_eq!(text, "null");
        assert!(parse(&text).and_then(|v| v.as_f64()).expect("a number").is_nan());
    }
}
