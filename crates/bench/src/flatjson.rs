//! Hand-rolled flat JSON (the workspace deliberately has no serde).
//!
//! One grammar serves both durable artefacts and live wire traffic: the
//! journals ([`crate::journal`]) and the worker protocol
//! ([`crate::worker`]) exchange single-line objects whose
//! values are unsigned numbers, strings, bools, or null — nothing
//! nested, nothing signed, nothing floating.

/// A value in a flat object: unsigned number, string, bool, or null.
/// That is the whole grammar the journal and the worker protocol need.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Jv {
    U(u64),
    S(String),
    B(bool),
    Null,
}

/// Escapes a string for a JSON literal (quotes, backslashes, control
/// characters — panic payloads can contain anything).
pub(crate) fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parses one flat JSON object line (`{"k":v,...}`) into key/value
/// pairs. Returns `None` on any malformation — the caller decides
/// whether that means "torn trailing line", "corrupt journal", or
/// "protocol violation".
pub(crate) fn parse_flat(line: &str) -> Option<Vec<(String, Jv)>> {
    let mut c = line.trim().chars().peekable();
    let mut out: Vec<(String, Jv)> = Vec::new();
    if c.next()? != '{' {
        return None;
    }
    // Members are separated by exactly one comma, and a key appears at
    // most once: `Obj::get` returns the first match, so a repeated key
    // would let a later value hide behind an earlier one.
    let mut more = c.peek() != Some(&'}');
    if !more {
        c.next();
    }
    while more {
        let key = parse_string(&mut c)?;
        if out.iter().any(|(k, _)| *k == key) {
            return None;
        }
        if c.next()? != ':' {
            return None;
        }
        let val = match c.peek()? {
            '"' => Jv::S(parse_string(&mut c)?),
            't' => parse_lit(&mut c, "true", Jv::B(true))?,
            'f' => parse_lit(&mut c, "false", Jv::B(false))?,
            'n' => parse_lit(&mut c, "null", Jv::Null)?,
            d if d.is_ascii_digit() => {
                let mut n: u64 = 0;
                while c.peek().is_some_and(char::is_ascii_digit) {
                    n = n
                        .checked_mul(10)?
                        .checked_add(c.next()? as u64 - '0' as u64)?;
                }
                Jv::U(n)
            }
            _ => return None,
        };
        out.push((key, val));
        more = match c.next()? {
            ',' => true,
            '}' => false,
            _ => return None,
        };
    }
    // Trailing garbage after the closing brace is a malformed line.
    if c.next().is_some() {
        return None;
    }
    Some(out)
}

fn parse_string(c: &mut std::iter::Peekable<std::str::Chars>) -> Option<String> {
    if c.next()? != '"' {
        return None;
    }
    let mut s = String::new();
    loop {
        match c.next()? {
            '"' => return Some(s),
            '\\' => match c.next()? {
                '"' => s.push('"'),
                '\\' => s.push('\\'),
                'n' => s.push('\n'),
                'r' => s.push('\r'),
                't' => s.push('\t'),
                'u' => {
                    let mut v = 0u32;
                    for _ in 0..4 {
                        v = v * 16 + c.next()?.to_digit(16)?;
                    }
                    s.push(char::from_u32(v)?);
                }
                _ => return None,
            },
            ch => s.push(ch),
        }
    }
}

fn parse_lit(c: &mut std::iter::Peekable<std::str::Chars>, lit: &str, val: Jv) -> Option<Jv> {
    for expect in lit.chars() {
        if c.next()? != expect {
            return None;
        }
    }
    Some(val)
}

/// Key/value accessor over one parsed line.
pub(crate) struct Obj(pub(crate) Vec<(String, Jv)>);

impl Obj {
    pub(crate) fn get(&self, key: &str) -> Option<&Jv> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
    pub(crate) fn u64(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            Jv::U(n) => Some(*n),
            _ => None,
        }
    }
    pub(crate) fn str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Jv::S(s) => Some(s),
            _ => None,
        }
    }
    pub(crate) fn bool(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            Jv::B(b) => Some(*b),
            _ => None,
        }
    }
    /// `Some(None)` for an explicit `null`, `Some(Some(n))` for a
    /// number, `None` for a missing or mistyped key.
    pub(crate) fn opt_u64(&self, key: &str) -> Option<Option<u64>> {
        match self.get(key)? {
            Jv::Null => Some(None),
            Jv::U(n) => Some(Some(*n)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaped_strings_roundtrip() {
        let nasty = "quote\" slash\\ newline\n tab\t bell\u{7}";
        let line = format!("{{\"s\":\"{}\"}}", esc(nasty));
        let obj = Obj(parse_flat(&line).unwrap());
        assert_eq!(obj.str("s"), Some(nasty));
    }

    #[test]
    fn typed_accessors_reject_mistyped_keys() {
        let obj = Obj(parse_flat("{\"n\":7,\"s\":\"x\",\"b\":true,\"z\":null}").unwrap());
        assert_eq!(obj.u64("n"), Some(7));
        assert_eq!(obj.u64("s"), None);
        assert_eq!(obj.str("s"), Some("x"));
        assert_eq!(obj.str("n"), None);
        assert_eq!(obj.bool("b"), Some(true));
        assert_eq!(obj.opt_u64("z"), Some(None));
        assert_eq!(obj.opt_u64("n"), Some(Some(7)));
        assert_eq!(obj.opt_u64("missing"), None);
    }

    #[test]
    fn malformed_objects_parse_to_none() {
        for bad in [
            "",
            "{",
            "{}garbage",
            "{\"i\":}",
            "{\"i\":1",
            "{\"i\":18446744073709551616}", // u64 overflow
            "not json at all",
            "{\"i\":-1}",       // signed numbers are outside the grammar
            "{\"a\":1\"b\":2}", // members need a comma between them
            "{,\"a\":1}",
            "{\"a\":1,\"a\":2}", // a repeated key is ambiguous
        ] {
            assert!(parse_flat(bad).is_none(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn kernel_names_with_quotes_survive_a_header_shaped_line() {
        // Nothing stops a workload registry from naming a kernel with
        // quotes or backslashes; the journal header must bind it
        // loss-free or the resume identity check would misfire.
        let name = r#"hevc_"lowdelay"_qp\32"#;
        let line = format!(
            "{{\"kind\":\"nfp-journal\",\"kernel\":\"{}\",\"injections\":4}}",
            esc(name)
        );
        let obj = Obj(parse_flat(&line).unwrap());
        assert_eq!(obj.str("kernel"), Some(name));
        assert_eq!(obj.u64("injections"), Some(4));
        // And the escaping itself is stable under a second round-trip.
        let again = format!("{{\"kernel\":\"{}\"}}", esc(obj.str("kernel").unwrap()));
        assert_eq!(Obj(parse_flat(&again).unwrap()).str("kernel"), Some(name));
    }

    #[test]
    fn count_fields_saturate_nowhere_and_overflow_to_none() {
        // The largest representable count parses exactly...
        let max = format!("{{\"n\":{}}}", u64::MAX);
        assert_eq!(Obj(parse_flat(&max).unwrap()).u64("n"), Some(u64::MAX));
        // ...one more, and absurdly long digit strings, reject the
        // whole line rather than wrapping or saturating a count.
        assert!(parse_flat("{\"n\":18446744073709551616}").is_none());
        let huge = format!("{{\"n\":{}9}}", u64::MAX);
        assert!(parse_flat(&huge).is_none());
        assert!(parse_flat(&format!("{{\"n\":1{}}}", "0".repeat(40))).is_none());
    }

    #[test]
    fn trailing_garbage_rejects_the_line() {
        for bad in [
            "{\"a\":1}{\"b\":2}", // two objects on one line
            "{\"a\":1},",         // journal lines never end in commas
            "{\"a\":1}x",
            "{\"a\":1}}",
            "{\"a\":\"s\"}\"tail\"",
        ] {
            assert!(parse_flat(bad).is_none(), "accepted: {bad:?}");
        }
        // Surrounding whitespace is not garbage: readers hand over
        // `read_line` output with the newline still attached.
        assert!(parse_flat("  {\"a\":1}\n").is_some());
    }
}
