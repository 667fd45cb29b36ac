//! The TOML frontend of the manifest loader: parses the manifest grammar —
//! and nothing else — into a [`serde_json::Value`] tree, which then
//! deserializes through the workspace's derived [`serde::Deserialize`]
//! impls, so the TOML and JSON paths share every manifest type and every
//! validation rule.
//!
//! The grammar is what a [`Manifest`](fraz_data::manifest::Manifest) can
//! use: comments, bare `key = value` lines, `[[fields]]`-style sections,
//! basic and literal strings (with `\uXXXX`/`\UXXXXXXXX` escapes), integers
//! with `_` separators, floats, and one- or multi-line arrays of those
//! scalars.  A manifest has nothing nested below a section and no boolean
//! field, so the rest of TOML — `[table]` headers, dotted or quoted keys,
//! inline tables, nested arrays, booleans, dates, multi-line strings — is
//! one line-numbered "not part of the manifest grammar" error, and the
//! parser has no recursion to guard.

use serde_json::{Map, Value};

/// A TOML syntax or structure error with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// What went wrong.
    pub message: String,
    /// 1-based line of the offending character.
    pub line: usize,
}

impl std::fmt::Display for TomlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at line {}", self.message, self.line)
    }
}

impl std::error::Error for TomlError {}

/// Parse a manifest document into a JSON value tree: the top-level keys
/// become the root object, each `[[name]]` section one object of the array
/// `name`.
pub fn parse(input: &str) -> Result<Value, TomlError> {
    let mut parser = Parser {
        text: input,
        pos: 0,
    };
    let mut root = Map::new();
    // One `(name, table)` per `[[name]]` header, in document order.
    let mut sections: Vec<(String, Map)> = Vec::new();
    loop {
        parser.skip_trivia();
        match parser.peek() {
            None => break,
            Some(b'[') => {
                let name = parser.header()?;
                if root.get(&name).is_some() {
                    return Err(parser.err(format!(
                        "`[[{name}]]` conflicts with an earlier non-array definition"
                    )));
                }
                sections.push((name, Map::new()));
            }
            Some(_) => {
                let key = parser.key()?;
                parser.expect(b'=')?;
                parser.skip_spaces();
                let value = parser.value()?;
                let table = sections.last_mut().map_or(&mut root, |(_, table)| table);
                if table.get(&key).is_some() {
                    return Err(parser.err(format!("duplicate key `{key}`")));
                }
                table.insert(key, value);
            }
        }
        // Every check above ran before the line ends, so its error names
        // the statement's own line.
        parser.end_of_line()?;
    }
    // Stable, so each name's tables keep their document order.
    sections.sort_by(|a, b| a.0.cmp(&b.0));
    let mut sections = sections.into_iter().peekable();
    while let Some((name, table)) = sections.next() {
        let mut tables = vec![Value::Object(table)];
        while let Some((_, table)) = sections.next_if(|(next, _)| *next == name) {
            tables.push(Value::Object(table));
        }
        root.insert(name, Value::Array(tables));
    }
    Ok(Value::Object(root))
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> TomlError {
        let seen = &self.text.as_bytes()[..self.pos.min(self.text.len())];
        TomlError {
            message: message.into(),
            line: 1 + seen.iter().filter(|&&b| b == b'\n').count(),
        }
    }

    /// The one error for TOML a manifest cannot use.
    fn unsupported(&self, what: &str) -> TomlError {
        self.err(format!("{what} are not part of the manifest grammar"))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consume and return the run of bytes `keep` accepts.  Every caller
    /// stops at an ASCII byte, so the run is whole characters.
    fn take_while(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(&keep) {
            self.pos += 1;
        }
        &self.text[start..self.pos]
    }

    /// Skip spaces and tabs (not newlines).
    fn skip_spaces(&mut self) {
        self.take_while(|b| b == b' ' || b == b'\t');
    }

    /// Skip whitespace, newlines and comments — between statements and
    /// inside arrays.
    fn skip_trivia(&mut self) {
        self.take_while(|b| b.is_ascii_whitespace());
        while self.peek() == Some(b'#') {
            self.take_while(|b| b != b'\n');
            self.take_while(|b| b.is_ascii_whitespace());
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), TomlError> {
        self.skip_spaces();
        if self.peek() != Some(b) {
            return Err(self.err(format!("expected `{}`", b as char)));
        }
        self.pos += 1;
        Ok(())
    }

    /// A statement must end here: only spaces may precede the comment, line
    /// break or end of input that [`Parser::skip_trivia`] then consumes.
    fn end_of_line(&mut self) -> Result<(), TomlError> {
        self.skip_spaces();
        match self.peek() {
            None | Some(b'\n' | b'\r' | b'#') => Ok(()),
            Some(b) => Err(self.err(format!("expected end of line, found `{}`", b as char))),
        }
    }

    /// A run of the bytes bare keys, numbers and booleans are made of.
    fn word(&mut self) -> &'a str {
        self.take_while(|b| b.is_ascii_alphanumeric() || b"_-+.".contains(&b))
    }

    /// A bare key: ASCII letters, digits, `_` and `-` (a `+` passes, to be
    /// named as an unknown field with every other key a manifest lacks).
    fn key(&mut self) -> Result<String, TomlError> {
        self.skip_spaces();
        let key = self.word();
        match self.peek() {
            _ if key.contains('.') => Err(self.unsupported("dotted keys")),
            Some(b'"' | b'\'') if key.is_empty() => Err(self.unsupported("quoted keys")),
            _ if key.is_empty() => Err(self.err("expected a key")),
            _ => Ok(key.to_string()),
        }
    }

    /// A `[[name]]` section header; returns `name`.
    fn header(&mut self) -> Result<String, TomlError> {
        if self.text.as_bytes().get(self.pos + 1) != Some(&b'[') {
            return Err(self.unsupported("`[table]` headers"));
        }
        self.pos += 2;
        let name = self.key()?;
        self.expect(b']')?;
        self.expect(b']')?;
        Ok(name)
    }

    /// A scalar, or a `[…]` array of scalars that may span lines.
    fn value(&mut self) -> Result<Value, TomlError> {
        if self.peek() != Some(b'[') {
            return self.scalar();
        }
        let mut items = Vec::new();
        loop {
            self.pos += 1; // the opening `[`, or the `,` after an item
            self.skip_trivia();
            match self.peek() {
                Some(b']') => break,
                Some(b'[') => return Err(self.unsupported("nested arrays")),
                _ => items.push(self.scalar()?),
            }
            self.skip_trivia();
            match self.peek() {
                Some(b',') => {}
                Some(b']') => break,
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
        self.pos += 1;
        Ok(Value::Array(items))
    }

    fn scalar(&mut self) -> Result<Value, TomlError> {
        match self.peek() {
            Some(quote @ (b'"' | b'\'')) => self.string(quote).map(Value::String),
            Some(b'{') => Err(self.unsupported("inline tables")),
            _ => match self.word() {
                "" => Err(self.err("expected a value")),
                "true" | "false" => Err(self.unsupported("booleans")),
                word => self.number(word),
            },
        }
    }

    /// A single-line string: basic (`"…"`, with escapes) or literal (`'…'`).
    fn string(&mut self, quote: u8) -> Result<String, TomlError> {
        self.pos += 1; // opening quote, checked by the caller
        if self.text.as_bytes()[self.pos..].starts_with(&[quote, quote]) {
            return Err(self.unsupported("multi-line strings"));
        }
        let mut out = String::new();
        loop {
            // A backslash means something in a basic string only.
            out += self.take_while(|b| b != b'\n' && b != quote && (b != b'\\' || quote != b'"'));
            match self.peek() {
                Some(b'\\') => out.push(self.escape()?),
                Some(b) if b == quote => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The character a backslash escape at the cursor stands for.
    fn escape(&mut self) -> Result<char, TomlError> {
        self.pos += 2; // the backslash and the escape letter
        Ok(match self.text.as_bytes().get(self.pos - 1) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(&letter @ (b'u' | b'U')) => {
                let digits = if letter == b'u' { 4 } else { 8 };
                let hex = self.text.get(self.pos..self.pos + digits).unwrap_or("");
                self.pos += digits;
                let code = u32::from_str_radix(hex, 16).ok().and_then(char::from_u32);
                return code.ok_or_else(|| self.err("invalid unicode escape"));
            }
            _ => return Err(self.err("invalid escape")),
        })
    }

    fn number(&self, word: &str) -> Result<Value, TomlError> {
        let text = word.replace('_', "");
        // `2020-05-27`: a `-` past the sign with no exponent to own it.
        if text.len() > 4 && text[1..].contains('-') && !text.contains(['e', 'E']) {
            return Err(self.unsupported("dates"));
        }
        // What remains is JSON's number grammar behind one optional `+`:
        // no leading zeros, digits on both sides of a `.`, a signed exponent.
        let json = match text.strip_prefix('+') {
            Some(unsigned) if !unsigned.starts_with('-') => unsigned,
            _ => &text,
        };
        match serde_json::from_str(json) {
            Ok(number @ Value::Number(_)) if !word.starts_with('_') && !word.ends_with('_') => {
                Ok(number)
            }
            _ => Err(self.err(format!("invalid value `{word}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fraz_data::manifest::Manifest;

    #[test]
    fn sections_arrays_and_scalars() {
        let v = parse(
            r#"
# A manifest-shaped document.
application = "hurricane"
target_ratio = 10.0
workers = 4

[[fields]]
name = "CLOUDf"
dims = [100, 500, 500]

[[fields]]
name = "PRECIPf"
dims = [ 100,
         500, # trailing comment
         500 ]
files = ['a.f32', "b.f32",]
target_ratio = 16.0
"#,
        )
        .unwrap();
        assert_eq!(
            v.get("application").and_then(Value::as_str),
            Some("hurricane")
        );
        assert_eq!(v.get("target_ratio").and_then(Value::as_f64), Some(10.0));
        assert_eq!(v.get("workers").and_then(Value::as_f64), Some(4.0));
        let fields = match v.get("fields") {
            Some(Value::Array(a)) => a,
            other => panic!("fields should be an array, got {other:?}"),
        };
        assert_eq!(fields.len(), 2);
        assert_eq!(
            fields[1].get("name").and_then(Value::as_str),
            Some("PRECIPf")
        );
        assert_eq!(
            fields[1].get("dims"),
            Some(&serde_json::json!([100, 500, 500]))
        );
        assert_eq!(
            fields[1].get("files"),
            Some(&serde_json::json!(["a.f32", "b.f32"]))
        );
        assert_eq!(parse("").unwrap(), serde_json::json!({}));
    }

    #[test]
    fn the_two_forms_this_grammar_stopped_accepting_have_pinned_messages() {
        // Both parsed before the grammar was narrowed to the manifest's; a
        // manifest never needed either spelling.
        let err = parse("application = \"t\"\nfields = [{ name = \"a\" }]\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "inline tables are not part of the manifest grammar at line 2"
        );
        let err = parse("\"application\" = \"t\"\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "quoted keys are not part of the manifest grammar at line 1"
        );
    }

    #[test]
    fn toml_a_manifest_cannot_use_is_one_located_error() {
        // Each of these was already rejected one layer down, as an unknown
        // or mistyped manifest field.
        for (document, what) in [
            ("a = 1\n[defaults]\ntolerance = 0.1\n", "`[table]` headers"),
            ("a = 1\n\nb.c = 2\n", "dotted keys"),
            ("[[fields]]\n[[fields.files]]\n", "dotted keys"),
            ("[[fields]]\n'name' = 1\n", "quoted keys"),
            ("a = 1\nc = { d = 2 }\n", "inline tables"),
            ("a = 1\ndims = [[1, 2], [3]]\n", "nested arrays"),
            ("a = 1\nstrict = false\n", "booleans"),
            ("a = 1\nflags = [1, true]\n", "booleans"),
        ] {
            let err = parse(document).unwrap_err();
            assert_eq!(
                err.message,
                format!("{what} are not part of the manifest grammar"),
                "{document:?}"
            );
            assert!(err.line >= 2, "{document:?}: {err}");
        }
        let err = parse("a = tomato\n").unwrap_err();
        assert_eq!(err.to_string(), "invalid value `tomato` at line 1");
    }

    #[test]
    fn strings_escapes_and_literals() {
        let v = parse(r#"a = "new\nline \u00e9" "#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_str), Some("new\nline é"));
        let v = parse(r"b = 'C:\raw\path*'").unwrap();
        assert_eq!(v.get("b").and_then(Value::as_str), Some(r"C:\raw\path*"));
    }

    #[test]
    fn numbers_with_underscores_and_signs() {
        let v = parse("a = 1_000\nb = -3\nc = +2.5e2\n").unwrap();
        assert_eq!(v.get("a").and_then(Value::as_f64), Some(1000.0));
        assert_eq!(v.get("b").and_then(Value::as_f64), Some(-3.0));
        assert_eq!(v.get("c").and_then(Value::as_f64), Some(250.0));
    }

    #[test]
    fn invalid_number_shapes_are_rejected() {
        for bad in [
            "a = ++4\n",
            "a = .5\n",
            "a = 1.\n",
            "a = 04\n",
            "a = 1e\n",
            "a = 1.2.3\n",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.to_string().contains("invalid"), "{bad:?}: {err}");
        }
        // Exponent leading zeros are legal TOML; plain zero stays valid.
        assert!(parse("a = 1e07\nb = 0\nc = 0.5\n").is_ok());
    }

    #[test]
    fn errors_are_located_and_readable() {
        let err = parse("a = 1\nb = \n").unwrap_err();
        assert_eq!(err.line, 2);

        let err = parse("a = 1\na = 2\n").unwrap_err();
        assert!(err.to_string().contains("duplicate key `a`"), "{err}");
        assert_eq!(err.line, 2, "duplicate-key errors name the key's own line");

        let err = parse("d = 2020-05-27\n").unwrap_err();
        assert!(err.to_string().contains("date"), "{err}");

        let err = parse("s = \"\"\"x\"\"\"\n").unwrap_err();
        assert!(err.to_string().contains("multi-line"), "{err}");

        let err = parse("x = 1 y = 2\n").unwrap_err();
        assert!(err.to_string().contains("end of line"), "{err}");
    }

    #[test]
    fn deep_nesting_is_an_error_with_flat_stack_use() {
        // Nothing in the grammar nests, so nothing in the parser recurses:
        // the second bracket is already the error, however many follow.
        let nested = format!("a = {}\n", "[".repeat(100_000));
        let err = parse(&nested).unwrap_err();
        assert!(err.to_string().contains("nested arrays"), "{err}");
        let tables = format!("a = {}\n", "{ k = ".repeat(100_000));
        let err = parse(&tables).unwrap_err();
        assert!(err.to_string().contains("inline tables"), "{err}");
        let headers = format!("{}\n", "[".repeat(100_000));
        assert!(parse(&headers).is_err());
    }

    #[test]
    fn array_of_tables_conflict_is_rejected() {
        let err = parse("fields = 1\n[[fields]]\n").unwrap_err();
        assert!(err.to_string().contains("conflicts"), "{err}");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn every_readme_toml_block_is_a_valid_manifest() {
        let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(readme).unwrap();
        let mut blocks = 0;
        for block in readme.split("```toml\n").skip(1) {
            let block = block.split("```").next().unwrap();
            let value = parse(block).unwrap_or_else(|e| panic!("{e} in\n{block}"));
            Manifest::from_value(value).unwrap_or_else(|e| panic!("{e} in\n{block}"));
            blocks += 1;
        }
        assert!(blocks >= 2, "README lost its manifest examples");
    }
}
