//! A linear-time JSON reader for the trace file and the server's replies.
//!
//! `nautilus_util::json`'s parser re-validates the rest of its input as
//! UTF-8 for every character of a string, so it takes quadratic time: a
//! trace of tens of megabytes does not parse within a run. This reader
//! builds the same [`Json`] tree in one pass.

use nautilus_util::json::Json;

/// Parses a JSON document into a [`Json`] tree in time linear in its
/// length.
pub fn parse(bytes: &[u8]) -> Result<Json, String> {
    std::str::from_utf8(bytes).map_err(|e| format!("not UTF-8: {e}"))?;
    let mut r = Reader { b: bytes, pos: 0 };
    let v = r.value(0)?;
    r.ws();
    if r.pos != bytes.len() {
        return Err(r.err("trailing bytes"));
    }
    Ok(v)
}

struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn err(&self, msg: &str) -> String {
        format!("JSON: {msg} at byte {}", self.pos)
    }

    fn ws(&mut self) {
        while self.b.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    /// Consumes `c` if it is next.
    fn maybe(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.b.get(self.pos) == Some(&c);
        self.pos += usize::from(hit);
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > 64 {
            return Err(self.err("nesting too deep"));
        }
        self.ws();
        match self.b.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                if !self.maybe(b'}') {
                    loop {
                        self.ws();
                        let key = self.string()?;
                        self.eat(b':')?;
                        pairs.push((key, self.value(depth + 1)?));
                        if !self.maybe(b',') {
                            self.eat(b'}')?;
                            break;
                        }
                    }
                }
                Ok(Json::Obj(pairs))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if !self.maybe(b']') {
                    loop {
                        items.push(self.value(depth + 1)?);
                        if !self.maybe(b',') {
                            self.eat(b']')?;
                            break;
                        }
                    }
                }
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("unknown literal"))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .b
            .get(self.pos)
            .is_some_and(|c| b"+-.eE0123456789".contains(c))
        {
            self.pos += 1;
        }
        let text =
            std::str::from_utf8(&self.b[start..self.pos]).map_err(|_| self.err("bad number"))?;
        if let Ok(i) = text.parse::<i128>() {
            return Ok(Json::Int(i));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.b.get(self.pos) != Some(&b'"') {
            return Err(self.err("expected a string"));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let run = self.b[self.pos..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .ok_or_else(|| self.err("unterminated string"))?;
            out.extend_from_slice(&self.b[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.b[self.pos - 1] == b'"' {
                break;
            }
            let esc = *self
                .b
                .get(self.pos)
                .ok_or_else(|| self.err("unterminated escape"))?;
            self.pos += 1;
            let c = match esc {
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'b' => '\u{08}',
                b'f' => '\u{0C}',
                b'u' => {
                    let hex = self
                        .b
                        .get(self.pos..self.pos + 4)
                        .ok_or_else(|| self.err("short escape"))?;
                    self.pos += 4;
                    let code = std::str::from_utf8(hex)
                        .ok()
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| self.err("bad escape"))?;
                    char::from_u32(code).unwrap_or('\u{FFFD}')
                }
                other => other as char,
            };
            let mut buf = [0u8; 4];
            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
        }
        String::from_utf8(out).map_err(|_| self.err("bad UTF-8 in string"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_back_what_the_serializer_writes() {
        let doc = Json::obj([(
            "traceEvents",
            Json::Arr(vec![
                Json::obj([
                    ("name", Json::Str("a \"quoted\" \\ name\u{e9}\n".into())),
                    ("ts", Json::Int(7)),
                ]),
                Json::obj([("value", Json::Int(-3)), ("x", Json::Num(1.5e-7))]),
                Json::obj([
                    ("y", Json::Null),
                    ("z", Json::Bool(true)),
                    ("e", Json::Arr(vec![])),
                ]),
            ]),
        )]);
        for text in [doc.to_string(), doc.to_string_pretty()] {
            assert_eq!(parse(text.as_bytes()).expect("parses"), doc);
        }
    }

    #[test]
    fn rejects_truncated_or_trailing_input() {
        assert!(parse(b"{\"traceEvents\": [").is_err());
        assert!(parse(b"[1, 2] x").is_err());
        assert!(parse(b"\"open").is_err());
    }
}
