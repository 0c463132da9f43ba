//! The one record codec of the campaign layer: how a record becomes a line
//! of JSON and back, and how such lines are appended to and replayed from a
//! file. `journal.jsonl`, `telemetry.jsonl`, `campaign.jsonl` and the JSONL
//! export each describe *what* their line holds; *how* lives here, once.
//!
//! [`Line`] writes an object: floats in Rust's shortest-round-trip `Display`
//! (so parsing reproduces the exact bits), content keys as 16 hex digits.
//! [`parse`] reads one back, strictly — exactly one object and nothing after
//! it, no duplicate key, `\u` escapes of exactly four hex digits, finite
//! numbers, arrays of numbers only, bounded nesting — so a line that [`Line`]
//! could not have written is an `Err`: never a panic, never a record that
//! merely looks like one. [`Object`]'s readers tell *missing* from
//! *malformed* and read integers exactly (a seed above 2^53 does not survive
//! `f64`; `-1`, `1.5` or `1e3` in an integer field is corruption, not a value
//! to round). [`records`] is the tolerant file loop — unreadable lines are
//! counted and skipped, because the expected corruption is one final write
//! cut short by the crash that makes resuming worthwhile — and [`AppendLog`]
//! the append-only file under the journal and the telemetry log. (No serde
//! runtime in this environment, hence the hand-written tokenizer.)

use std::fmt::{self, Write as _};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Builds one JSON object, field by field, in call order.
#[derive(Debug, Default)]
pub struct Line(String);

impl Line {
    /// Starts a field — separator, quoted key, colon — and hands back the
    /// buffer for its value.
    fn key(&mut self, key: &str) -> &mut String {
        if self.0.is_empty() {
            // Growing by doubling from nothing doubled the cost of rendering
            // a journal line (measured: 2.4 µs against 1.3 µs).
            self.0.reserve(512);
        } else {
            self.0.push(',');
        }
        quote(&mut self.0, key);
        self.0.push(':');
        &mut self.0
    }

    fn raw(&mut self, key: &str, value: impl fmt::Display) -> &mut Self {
        write!(self.key(key), "{value}").expect("a String accepts any write");
        self
    }

    /// A string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        quote(self.key(key), value);
        self
    }

    /// An exact non-negative integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, value)
    }

    /// A float field.
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.raw(key, value)
    }

    /// A content key or hash: 16 lower-case hex digits in a string.
    pub fn hex16(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, format_args!("\"{value:016x}\""))
    }

    /// An array-of-floats field.
    pub fn f64s(&mut self, key: &str, values: &[f64]) -> &mut Self {
        let items: Vec<String> = values.iter().map(f64::to_string).collect();
        self.raw(key, format_args!("[{}]", items.join(",")))
    }

    /// A `true` marker field.
    pub fn flag(&mut self, key: &str) -> &mut Self {
        self.raw(key, true)
    }

    /// A nested object field.
    pub fn obj(&mut self, key: &str, value: &Line) -> &mut Self {
        self.raw(key, format_args!("{{{}}}", value.0))
    }

    /// The finished line (no trailing newline).
    #[must_use]
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.0)
    }
}

/// Appends `text` as a JSON string literal.
fn quote(out: &mut String, text: &str) {
    out.push('"');
    if text.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        for c in text.chars() {
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
    } else {
        // Keys and most values need no escape: copy them whole.
        out.push_str(text);
    }
    out.push('"');
}

/// A parsed JSON value (the subset [`Line`] writes).
#[derive(Debug)]
enum Json {
    True,
    /// A token of digits only that fits `u64`, kept exact.
    Int(u64),
    Num(f64),
    Str(String),
    Nums(Vec<f64>),
    Obj(Object),
}

impl Json {
    fn as_f64(&self) -> Option<f64> {
        match self {
            // Nearest-even, exactly what parsing the same digits as `f64` gives.
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// A parsed JSON object. Every reader returns `Err` naming the field when it
/// is missing or is not exactly the asked-for kind.
#[derive(Debug)]
pub struct Object(Vec<(String, Json)>);

impl Object {
    fn get(&self, key: &str) -> Option<&Json> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn read<'a, T>(
        &'a self,
        key: &str,
        kind: &str,
        project: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        let value = self
            .get(key)
            .ok_or_else(|| format!("missing field {key:?}"))?;
        project(value).ok_or_else(|| format!("field {key:?} is not {kind}"))
    }

    /// The object's keys, in line order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(k, _)| k.as_str())
    }

    /// A string field.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.read(key, "a string", |v| match v {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        })
    }

    /// An exact non-negative integer field that fits `T` (`u64`, `usize`,
    /// `u32`).
    pub fn int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        self.read(key, "a non-negative integer in range", |v| match v {
            Json::Int(n) => T::try_from(*n).ok(),
            _ => None,
        })
    }

    /// An integer field that may be absent (`Ok(None)`); present but
    /// malformed is still an error.
    pub fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        self.get(key).map(|_| self.int(key)).transpose()
    }

    /// A finite number field.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.read(key, "a number", Json::as_f64)
    }

    /// A content key or hash written by [`Line::hex16`].
    pub fn hex16(&self, key: &str) -> Result<u64, String> {
        let digits = self.str(key)?;
        // `from_str_radix` alone would take a sign and any length.
        (digits.len() == 16 && digits.bytes().all(|b| b.is_ascii_hexdigit()))
            .then(|| u64::from_str_radix(digits, 16).ok())
            .flatten()
            .ok_or_else(|| format!("field {key:?} is not a 16-digit hex key"))
    }

    /// An array-of-numbers field.
    pub fn f64s(&self, key: &str) -> Result<&[f64], String> {
        self.read(key, "an array of numbers", |v| match v {
            Json::Nums(values) => Some(values.as_slice()),
            _ => None,
        })
    }

    /// Whether the `true` marker written by [`Line::flag`] is present.
    #[must_use]
    pub fn flag(&self, key: &str) -> bool {
        matches!(self.get(key), Some(Json::True))
    }

    /// A nested object field.
    pub fn obj(&self, key: &str) -> Result<&Object, String> {
        self.read(key, "an object", |v| match v {
            Json::Obj(object) => Some(object),
            _ => None,
        })
    }
}

/// Parses one line as exactly one JSON object.
pub fn parse(line: &str) -> Result<Object, String> {
    let mut parser = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    let object = parser.object(0)?;
    match parser.peek() {
        None => Ok(object),
        Some(_) => Err(format!("bytes after the record at {}", parser.pos)),
    }
}

/// Records nest three objects deep at most (line → `metrics` → one stat);
/// anything much deeper is corruption, refused before it can exhaust the
/// stack.
const MAX_DEPTH: usize = 8;

/// A recursive-descent parser over the subset [`Line`] writes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&mut self) -> Option<u8> {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    /// After an element of an array or object: whether a `,` (another
    /// element follows) rather than the closing byte was consumed.
    fn more(&mut self, close: u8) -> Result<bool, String> {
        let found = self.peek();
        if found != Some(b',') && found != Some(close) {
            let close = char::from(close);
            return Err(format!("expected ',' or {close:?} at byte {}", self.pos));
        }
        self.pos += 1;
        Ok(found == Some(b','))
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(depth).map(Json::Obj),
            Some(b'[') => self.numbers().map(Json::Nums),
            Some(b'"') => self.string().map(Json::Str),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(b't') if self.bytes[self.pos..].starts_with(b"true") => {
                self.pos += 4;
                Ok(Json::True)
            }
            other => Err(format!("unexpected token {other:?} at byte {}", self.pos)),
        }
    }

    fn numbers(&mut self) -> Result<Vec<f64>, String> {
        self.expect(b'[')?;
        let mut values = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(values);
        }
        loop {
            self.peek();
            let number = self.number()?;
            values.push(number.as_f64().expect("number() yields Int or Num"));
            if !self.more(b']')? {
                return Ok(values);
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Object, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nested deeper than {MAX_DEPTH} objects"));
        }
        self.expect(b'{')?;
        let mut object = Object(Vec::new());
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(object);
        }
        loop {
            let key = self.string()?;
            if object.get(&key).is_some() {
                return Err(format!("duplicate key {key:?}"));
            }
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            object.0.push((key, value));
            if !self.more(b'}')? {
                return Ok(object);
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            // `from_str_radix` alone would take a sign.
                            let code = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|hex| std::str::from_utf8(hex).ok())
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            out.push(code);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input came from &str, so the
                    // byte stream is valid UTF-8).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        if let Ok(n) = token.parse::<u64>() {
            return Ok(Json::Int(n));
        }
        match token.parse::<f64>() {
            // `1e999` parses to infinity; no writer here emits one.
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(format!("bad number at byte {start}")),
        }
    }
}

/// Feeds every non-blank line of `text` to `parse_line`: the records that
/// parsed, in file order, and the number of lines that did not.
pub fn records<T>(
    text: &str,
    mut parse_line: impl FnMut(&str) -> Result<T, String>,
) -> (Vec<T>, usize) {
    let mut parsed = Vec::new();
    let mut skipped = 0;
    for line in text.lines().filter(|line| !line.trim().is_empty()) {
        match parse_line(line) {
            Ok(record) => parsed.push(record),
            Err(_) => skipped += 1,
        }
    }
    (parsed, skipped)
}

/// An append-only file of records, one per line, shared by worker threads.
#[derive(Debug)]
pub struct AppendLog {
    path: PathBuf,
    file: Mutex<File>,
    skipped_lines: usize,
}

impl AppendLog {
    /// Opens (creating if needed) `dir/file_name` for appending. Whatever
    /// the file already holds goes through `replay`, which returns the
    /// caller's loaded state and how many lines it could not read.
    pub fn open<T>(
        dir: &Path,
        file_name: &str,
        replay: impl FnOnce(&str) -> (T, usize),
    ) -> std::io::Result<(AppendLog, T)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(file_name);
        let existing = std::fs::read_to_string(&path).unwrap_or_default();
        let (state, skipped_lines) = replay(&existing);
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        // A file not ending in '\n' was interrupted mid-write; appending
        // straight after would glue the first new record onto the partial
        // line and corrupt it too.
        if !existing.is_empty() && !existing.ends_with('\n') {
            file.write_all(b"\n")?;
        }
        let file = Mutex::new(file);
        let log = AppendLog {
            path,
            file,
            skipped_lines,
        };
        Ok((log, state))
    }

    /// The file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of unreadable lines skipped at open time.
    #[must_use]
    pub fn skipped_lines(&self) -> usize {
        self.skipped_lines
    }

    /// Appends one record and flushes, so a crash immediately after loses at
    /// most the line being written. Safe to call from worker threads; the
    /// line and its newline go down in one `write` on the append-mode
    /// handle, so concurrent shard *processes* sharing a directory cannot
    /// interleave within a record either.
    pub fn append(&self, mut line: String) -> std::io::Result<()> {
        line.push('\n');
        let mut file = self.file.lock().expect("append-log file lock poisoned");
        file.write_all(line.as_bytes())?;
        file.flush()
    }
}

/// A fresh scratch directory path for a test (not created).
#[cfg(test)]
pub(crate) fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("vanet-runner-{tag}-{}-{n}", std::process::id()))
}
