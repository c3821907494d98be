//! The one record store, [`Log`], that the decision journal and the span
//! log both are. A record type lists its fields once, in [`Record::walk`],
//! and four codecs walk it: the packed encoder and decoder behind [`Log`]
//! (a few bytes a record), and the NDJSON writer and reader (one flat
//! object per line; sim time and shortest round-trip floats, so a seed
//! always writes the same bytes).

// Fast-path module: a malformed input surfaces as a Result/Option,
// never a process abort (DESIGN.md §6.9, rule F1).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use core::fmt::Write;
use core::iter::FusedIterator;
use core::marker::PhantomData;

/// What a log retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Record nothing (default). Recording sites gate on [`Log::enabled`],
    /// so this mode is free on the hot path.
    Off,
    /// Record everything up to a hard record limit; records past it are
    /// dropped and counted in [`Log::dropped`].
    Full(usize),
}

/// A record type a [`Log`] can store and NDJSON can carry.
pub trait Record: Sized {
    /// The wire key of the field that names the record's kind.
    const KIND_KEY: &'static str;
    /// The kind names, indexed by the tag the packed header carries.
    const KINDS: &'static [&'static str];

    /// A zero-valued record of kind `tag` for the readers to fill in.
    fn blank(tag: u8) -> Option<Self>;

    /// Hands every field, in wire order, to `c` to read or overwrite: the
    /// record's schema, the one place its fields and keys are listed.
    fn walk<C: Codec>(&mut self, c: &mut C) -> Result<(), String>;

    /// Appends `self` as one flat JSON object (no trailing newline).
    fn write_json(mut self, out: &mut String) {
        out.push('{');
        // The writer has no failure path.
        let _ = self.walk(&mut Writer { out, first: true });
        out.push('}');
    }

    /// Parses one NDJSON line: every key must be one the schema reads.
    fn parse_json(line: &str) -> Result<Self, String> {
        let mut obj = Object::parse(line)?;
        let kind = obj.str(Self::KIND_KEY)?;
        let mut rec = (Self::KINDS.iter().position(|k| *k == kind))
            .and_then(|tag| Self::blank(tag as u8))
            .ok_or_else(|| format!("field {:?}: unknown value {kind:?}", Self::KIND_KEY))?;
        rec.walk(&mut obj)?;
        obj.finish()?;
        Ok(rec)
    }
}

/// One field of a record as [`Record::walk`] hands it to a codec, and
/// how it is packed. Up to four *sticky* fields (`Time`, `Sticky`, `Hash`)
/// own a slot each, in walk order: one that repeats the previous record's
/// value in its slot is a header flag, not stored. Up to four *coded*
/// fields (`Sticky`, `Hash`, `Flagged`) own a dictionary of recent values
/// each, in walk order: a value not flagged as a repeat is a tag byte,
/// either its index there or a literal marker followed by the value,
/// which the dictionary then learns.
pub enum Field<'a> {
    /// The timestamp, key [`AT`]: sticky, else a zigzag varint delta.
    Time(&'a mut u64),
    /// The record's kind, `names[tag]`: the header's low nibble.
    Kind(&'a mut dyn Uint, &'static [&'static str]),
    /// One of `names`, held as its index: a varint.
    Label(&'a mut dyn Uint, &'static [&'static str]),
    /// An unsigned integer: a varint.
    Int(&'a mut dyn Uint),
    /// An integer whose bit 63 is a flag: coded, the literal a varint of
    /// it rotated left.
    Flagged(&'a mut u64),
    /// An integer that often repeats: sticky, else coded, the literal a
    /// varint.
    Sticky(&'a mut dyn Uint),
    /// A hash that often repeats: sticky, else coded, the literal its
    /// eight bytes.
    Hash(&'a mut u64),
    /// A float: its eight bytes, so `-0.0` and NaN payloads survive.
    Float(&'a mut f64),
    /// An optional index, `null` on the wire when absent.
    Opt(&'a mut Option<usize>),
    /// An integer array, length first.
    Ints(&'a mut Vec<u64>),
    /// A float array, length first.
    Floats(&'a mut Vec<f64>),
}

/// One pass over a record's fields: NDJSON or packed, read or write.
pub trait Codec {
    /// Handles the field under wire key `key`.
    fn field(&mut self, key: &'static str, f: Field<'_>) -> Result<(), String>;
}

/// An integer-like field: read as a `u64`, set from one only if it fits.
pub trait Uint {
    /// The value as a `u64`.
    fn get(&self) -> u64;
    /// Sets the value; false (and unchanged) when `v` is out of range.
    fn set(&mut self, v: u64) -> bool;
}

macro_rules! uint {
    ($($t:ty),*) => {$(
        impl Uint for $t {
            #[inline]
            fn get(&self) -> u64 {
                *self as u64
            }
            #[inline]
            fn set(&mut self, v: u64) -> bool {
                <$t>::try_from(v).map(|v| *self = v).is_ok()
            }
        }
    )*};
}
uint!(u8, u16, u32, u64, usize);

/// The timestamp's wire key, shared by every record type.
pub const AT: &str = "at";

/// An append-only packed record store.
///
/// Records are kept as one byte stream in recording order. Each is a
/// header byte — the kind tag in the low nibble, one "same as before"
/// flag per sticky slot above it — followed by its fields in walk order,
/// each stored as its [`Field`] variant says (DESIGN.md §6.11).
#[derive(Debug, Clone)]
pub struct Log<R> {
    mode: Mode,
    bytes: Vec<u8>,
    len: usize,
    /// What the next record is coded against: allocated with the first
    /// retained record (an `Off` log never has one), dropped by
    /// [`Log::take`].
    state: Option<Box<Predictor>>,
    dropped: u64,
    record: PhantomData<fn() -> R>,
}

impl<R: Record> Log<R> {
    /// New log in the given mode.
    pub fn new(mode: Mode) -> Log<R> {
        // The kind tag is the header byte's low nibble: a record type with
        // a 17th kind fails the build, not the decoder.
        const { assert!(R::KINDS.len() <= 16) };
        Log {
            mode,
            bytes: Vec::new(),
            len: 0,
            state: None,
            dropped: 0,
            record: PhantomData,
        }
    }

    /// Disabled log; [`Log::push`] is a no-op.
    pub fn off() -> Log<R> {
        Log::new(Mode::Off)
    }

    /// Cheap hot-path gate: should callers bother building records?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.mode != Mode::Off
    }

    /// Appends a record: a no-op when off, a counted drop at the cap
    /// (which is in records, not bytes).
    #[inline]
    pub fn push(&mut self, mut rec: R) {
        let Mode::Full(cap) = self.mode else {
            return;
        };
        if self.len >= cap {
            self.dropped += 1;
            return;
        }
        let mut enc = Encoder {
            start: self.bytes.len(),
            out: &mut self.bytes,
            buf: [0; 64],
            n: 1,
            header: 0,
            state: self.state.get_or_insert_with(Box::default),
            slot: 0,
            dict: 0,
        };
        // The encoder has no failure path.
        let _ = rec.walk(&mut enc);
        enc.out.extend_from_slice(&enc.buf[..enc.n]);
        enc.out[enc.start] = enc.header;
        self.len += 1;
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records rejected by the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Bytes the retained records occupy in the packed stream.
    pub fn retained_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Decodes the retained records, in recording order.
    pub fn iter(&self) -> Iter<'_, R> {
        Iter {
            bytes: &self.bytes,
            state: None,
            remaining: self.len,
            record: PhantomData,
        }
    }

    /// Drains the retained records: decodes the stream once and leaves
    /// the log empty (the drop count stays).
    pub fn take(&mut self) -> Vec<R> {
        let out: Vec<R> = self.iter().collect();
        debug_assert_eq!(out.len(), self.len, "packed stream decoded short");
        *self = Log {
            dropped: self.dropped,
            ..Log::new(self.mode)
        };
        out
    }

    /// The retained records as NDJSON, oldest first.
    pub fn to_ndjson(&self) -> String {
        to_ndjson(self.iter())
    }
}

/// Decoding iterator over a [`Log`]'s retained records. It mirrors the
/// encoder's predictor, so a record that fails to decode (a truncated or
/// foreign stream) ends the iteration for good.
#[derive(Debug, Clone)]
pub struct Iter<'a, R> {
    bytes: &'a [u8],
    /// Allocated on the first decoded record, as the log's own is.
    state: Option<Box<Predictor>>,
    remaining: usize,
    record: PhantomData<fn() -> R>,
}

impl<R: Record> Iter<'_, R> {
    #[inline]
    fn decode(&mut self) -> Option<R> {
        let (&header, rest) = self.bytes.split_first().filter(|_| self.remaining > 0)?;
        let mut rec = R::blank(header & KIND_MASK)?;
        let mut dec = Decoder {
            bytes: rest,
            header,
            state: self.state.get_or_insert_with(Box::default),
            slot: 0,
            dict: 0,
        };
        rec.walk(&mut dec).ok()?;
        self.bytes = dec.bytes;
        self.remaining -= 1;
        Some(rec)
    }
}

impl<R: Record> Iterator for Iter<'_, R> {
    type Item = R;

    #[inline]
    fn next(&mut self) -> Option<R> {
        let rec = self.decode();
        if rec.is_none() {
            // A failed record may have half-updated the predictor.
            self.bytes = &[];
            self.remaining = 0;
        }
        rec
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<R: Record> FusedIterator for Iter<'_, R> {}

/// The header byte's kind tag; a flag per sticky slot sits above it.
const KIND_MASK: u8 = 0x0f;
const SAME: u8 = 0x10;

/// Entries in each coded field's dictionary.
const DICT_LEN: usize = 128;

/// The tag byte of a coded field whose value is not in its dictionary:
/// the value follows, and the dictionary learns it. A tag below it is an
/// index into the dictionary.
const LITERAL: u8 = 0x80;

/// What both ends of a packed stream predict a record from: the last
/// value of each sticky slot, and a direct-mapped dictionary of recent
/// values per coded field. All zero at the start of a stream.
#[derive(Debug, Clone)]
struct Predictor {
    slots: [u64; 4],
    dicts: [[u64; DICT_LEN]; 4],
}

impl Default for Predictor {
    fn default() -> Predictor {
        Predictor {
            slots: [0; 4],
            dicts: [[0; DICT_LEN]; 4],
        }
    }
}

/// A value's entry in its field's dictionary: the top seven bits of a
/// multiplicative (Fibonacci) hash, so ids, addresses and lengths that
/// differ only in their low bits spread over the table.
#[inline]
fn entry(v: u64) -> usize {
    (v.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 57) as usize
}

/// The packed encoder. A record is staged on the stack and appended in
/// one copy; only a record longer than the stage (an array field) spills.
struct Encoder<'a> {
    out: &'a mut Vec<u8>,
    /// Where the record starts in `out`: its header byte.
    start: usize,
    /// The record's unspilled tail (from the header's place, `buf[0]`,
    /// until a spill).
    buf: [u8; 64],
    n: usize,
    header: u8,
    state: &'a mut Predictor,
    slot: usize,
    dict: usize,
}

impl Encoder<'_> {
    /// Makes room for `len` more bytes on the stage.
    #[inline]
    fn room(&mut self, len: usize) {
        if self.n + len > self.buf.len() {
            self.out.extend_from_slice(&self.buf[..self.n]);
            self.n = 0;
        }
    }

    /// Appends `v` as a little-endian base-128 varint.
    #[inline]
    fn varint(&mut self, mut v: u64) {
        self.room(10);
        while v >= 0x80 {
            self.buf[self.n] = v as u8 | 0x80;
            self.n += 1;
            v >>= 7;
        }
        self.buf[self.n] = v as u8;
        self.n += 1;
    }

    #[inline]
    fn raw(&mut self, v: u64) {
        self.room(8);
        self.buf[self.n..self.n + 8].copy_from_slice(&v.to_le_bytes());
        self.n += 8;
    }

    /// Claims the next sticky slot for `v`. A repeat sets the slot's
    /// header flag and returns `None`; otherwise the slot's old value
    /// comes back and `v` must be stored.
    #[inline]
    fn sticky(&mut self, v: u64) -> Option<u64> {
        let i = self.slot;
        self.slot += 1;
        let old = std::mem::replace(&mut self.state.slots[i], v);
        if old == v {
            self.header |= SAME << i;
            return None;
        }
        Some(old)
    }

    /// Claims the next coded field's dictionary.
    #[inline]
    fn dict(&mut self) -> usize {
        self.dict += 1;
        self.dict - 1
    }

    /// Codes `v` against dictionary `d`. A value it holds is its index,
    /// one byte; otherwise [`LITERAL`] goes out, the dictionary learns
    /// `v`, and true comes back: `v` must follow.
    #[inline]
    fn coded(&mut self, d: usize, v: u64) -> bool {
        let i = entry(v);
        let known = std::mem::replace(&mut self.state.dicts[d][i], v) == v;
        self.room(1);
        self.buf[self.n] = if known { i as u8 } else { LITERAL };
        self.n += 1;
        !known
    }
}

impl Codec for Encoder<'_> {
    // Forced inline, with the walks: each `Field` then folds to its one
    // arm and each `dyn Uint` call to a direct one, which is what keeps
    // the generic codec as cheap as a hand-written one.
    #[inline(always)]
    fn field(&mut self, _: &'static str, f: Field<'_>) -> Result<(), String> {
        match f {
            Field::Time(v) => {
                if let Some(old) = self.sticky(*v) {
                    // Mostly small and forward, but not always: a service
                    // start is stamped with its admission time.
                    let d = v.wrapping_sub(old) as i64;
                    self.varint(((d << 1) ^ (d >> 63)) as u64);
                }
            }
            Field::Kind(v, _) => self.header |= v.get() as u8 & KIND_MASK,
            Field::Label(v, _) | Field::Int(v) => self.varint(v.get()),
            Field::Flagged(v) => {
                let d = self.dict();
                if self.coded(d, *v) {
                    self.varint(v.rotate_left(1));
                }
            }
            Field::Sticky(v) => {
                let d = self.dict();
                if self.sticky(v.get()).is_some() && self.coded(d, v.get()) {
                    self.varint(v.get());
                }
            }
            Field::Hash(v) => {
                let d = self.dict();
                if self.sticky(*v).is_some() && self.coded(d, *v) {
                    self.raw(*v);
                }
            }
            Field::Float(v) => self.raw(v.to_bits()),
            Field::Opt(v) => {
                self.varint(u64::from(v.is_some()));
                v.iter().for_each(|&v| self.varint(v as u64));
            }
            Field::Ints(vs) => {
                self.varint(vs.len() as u64);
                vs.iter().for_each(|&v| self.varint(v));
            }
            Field::Floats(vs) => {
                self.varint(vs.len() as u64);
                vs.iter().for_each(|v| self.raw(v.to_bits()));
            }
        }
        Ok(())
    }
}

/// The packed decoder, the encoder's inverse. A stream holds only what
/// the encoder wrote, so a failure (a truncated or foreign stream) just
/// ends the iteration and carries no message.
struct Decoder<'a, 's> {
    bytes: &'a [u8],
    header: u8,
    state: &'s mut Predictor,
    slot: usize,
    dict: usize,
}

impl Decoder<'_, '_> {
    #[inline]
    fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let (&byte, rest) = self.bytes.split_first()?;
            self.bytes = rest;
            v |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return Some(v);
            }
        }
        None
    }

    fn raw(&mut self) -> Option<u64> {
        let (raw, rest) = self.bytes.split_first_chunk::<8>()?;
        self.bytes = rest;
        Some(u64::from_le_bytes(*raw))
    }

    /// The next sticky slot's value: its last one when the header flags
    /// a repeat, else what `read` makes of the stream and the old value.
    #[inline]
    fn sticky(&mut self, read: impl FnOnce(&mut Self, u64) -> Option<u64>) -> Option<u64> {
        let i = self.slot;
        self.slot += 1;
        if self.header & (SAME << i) == 0 {
            self.state.slots[i] = read(self, self.state.slots[i])?;
        }
        Some(self.state.slots[i])
    }

    /// Claims the next coded field's dictionary.
    #[inline]
    fn dict(&mut self) -> usize {
        self.dict += 1;
        self.dict - 1
    }

    /// A value coded against dictionary `d`: an entry when its tag is an
    /// index, else the literal `read` takes from the stream, which the
    /// dictionary learns.
    #[inline]
    fn coded(&mut self, d: usize, read: fn(&mut Self) -> Option<u64>) -> Option<u64> {
        let (&tag, rest) = self.bytes.split_first()?;
        self.bytes = rest;
        if tag != LITERAL {
            return self.state.dicts[d].get(usize::from(tag)).copied();
        }
        let v = read(self)?;
        self.state.dicts[d][entry(v)] = v;
        Some(v)
    }

    /// An array length. Every element takes at least a byte, so a longer
    /// run is corrupt, and must not reserve memory on its way to failing.
    fn len(&mut self) -> Option<usize> {
        let n = usize::try_from(self.varint()?).ok()?;
        (n <= self.bytes.len()).then_some(n)
    }

    // Forced inline, as the encoder's `field` is.
    #[inline(always)]
    fn read(&mut self, f: Field<'_>) -> Option<()> {
        match f {
            Field::Time(v) => {
                *v = self.sticky(|d, old| {
                    let zz = d.varint()?;
                    Some(old.wrapping_add(((zz >> 1) as i64 ^ -((zz & 1) as i64)) as u64))
                })?;
            }
            Field::Kind(v, _) => v.set(u64::from(self.header & KIND_MASK)).then_some(())?,
            Field::Label(v, _) | Field::Int(v) => v.set(self.varint()?).then_some(())?,
            Field::Flagged(v) => {
                let d = self.dict();
                *v = self.coded(d, |s| Some(s.varint()?.rotate_right(1)))?;
            }
            Field::Sticky(v) => {
                let d = self.dict();
                v.set(self.sticky(|s, _| s.coded(d, Self::varint))?)
                    .then_some(())?
            }
            Field::Hash(v) => {
                let d = self.dict();
                *v = self.sticky(|s, _| s.coded(d, Self::raw))?;
            }
            Field::Float(v) => *v = f64::from_bits(self.raw()?),
            Field::Opt(v) => {
                *v = None;
                if self.varint()? != 0 {
                    v.insert(0).set(self.varint()?).then_some(())?;
                }
            }
            Field::Ints(vs) => {
                *vs = (0..self.len()?)
                    .map(|_| self.varint())
                    .collect::<Option<_>>()?
            }
            Field::Floats(vs) => {
                let n = self.len()?;
                *vs = (0..n)
                    .map(|_| self.raw().map(f64::from_bits))
                    .collect::<Option<_>>()?;
            }
        }
        Some(())
    }
}

impl Codec for Decoder<'_, '_> {
    #[inline(always)]
    fn field(&mut self, _: &'static str, f: Field<'_>) -> Result<(), String> {
        self.read(f).ok_or_else(String::new)
    }
}

/// Serializes records as NDJSON, one object per line.
pub fn to_ndjson<R: Record>(records: impl IntoIterator<Item = R>) -> String {
    let mut out = String::new();
    for rec in records {
        rec.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// Parses a full NDJSON document (blank lines skipped). Fails on the
/// first malformed line with its 1-based line number.
pub fn parse_ndjson<R: Record>(text: &str) -> Result<Vec<R>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if !line.trim().is_empty() {
            out.push(R::parse_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
        }
    }
    Ok(out)
}

/// Parses a full NDJSON document, tolerating a truncated *final* line.
///
/// A capture cut off mid-write (killed process, partial copy, `tail` of
/// a growing file) ends in half a line: it is dropped and the flag says
/// so. A malformed line anywhere *else* is still an error — interior
/// corruption is not truncation, and an analysis must not skip holes.
pub fn parse_ndjson_lossy<R: Record>(text: &str) -> Result<(Vec<R>, bool), String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .peekable();
    let mut out = Vec::new();
    while let Some((lineno, line)) = lines.next() {
        match R::parse_json(line) {
            Ok(rec) => out.push(rec),
            Err(_) if lines.peek().is_none() => return Ok((out, true)),
            Err(e) => return Err(format!("line {}: {e}", lineno + 1)),
        }
    }
    Ok((out, false))
}

/// The NDJSON writer: appends each field as `"key":value`.
struct Writer<'a> {
    out: &'a mut String,
    first: bool,
}

impl Codec for Writer<'_> {
    fn field(&mut self, key: &'static str, f: Field<'_>) -> Result<(), String> {
        let out = &mut *self.out;
        if !std::mem::take(&mut self.first) {
            out.push(',');
        }
        // `{:?}` is the shortest representation that round-trips through
        // `str::parse::<f64>()`, which is what makes log-derived metrics
        // bit-exact against the live experiment.
        let _ = match f {
            Field::Time(v) | Field::Flagged(v) | Field::Hash(v) => write!(out, "\"{key}\":{v}"),
            Field::Int(v) | Field::Sticky(v) => write!(out, "\"{key}\":{}", v.get()),
            Field::Kind(v, names) | Field::Label(v, names) => {
                let name = names.get(v.get() as usize).copied().unwrap_or_default();
                write!(out, "\"{key}\":\"{name}\"")
            }
            Field::Float(v) => write!(out, "\"{key}\":{v:?}"),
            Field::Opt(Some(v)) => write!(out, "\"{key}\":{v}"),
            Field::Opt(None) => write!(out, "\"{key}\":null"),
            Field::Ints(vs) => write!(out, "\"{key}\":[{}]", join(vs, u64::to_string)),
            Field::Floats(vs) => write!(out, "\"{key}\":[{}]", join(vs, |v| format!("{v:?}"))),
        };
        Ok(())
    }
}

fn join<T>(vs: &[T], item: impl Fn(&T) -> String) -> String {
    vs.iter().map(item).collect::<Vec<_>>().join(",")
}

/// A flat JSON value: the wire format only needs numbers, strings, null
/// and number arrays. Numbers and arrays keep their raw text, which the
/// field that reads them lexes by its type: an integer field parses
/// exactly, where routing a u64 through f64 would silently round
/// timestamps and deltas above 2^53.
#[derive(Debug, Clone)]
enum Val<'a> {
    Num(&'a str),
    Str(&'a str),
    Null,
    Arr(&'a str),
}

/// One NDJSON line lexed into its fields, and the NDJSON reader: each
/// field the schema hands it takes its key, and a key no field took is
/// an error.
#[derive(Debug)]
struct Object<'a> {
    fields: Vec<(&'a str, Val<'a>, bool)>,
}

/// An integer on the wire is a plain digit run, and nothing else is
/// one: a sign, fraction or exponent could only be coerced, and a
/// coerced timestamp or index corrupts an analysis quietly.
fn lex_uint(raw: &str) -> Result<u64, String> {
    if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("bad integer {raw:?}: expected a digit run"));
    }
    raw.parse::<u64>()
        .map_err(|e| format!("bad integer {raw:?}: {e}"))
}

/// A float on the wire is finite: the writer never emits an infinity,
/// so one can only come from an out-of-range literal.
fn lex_float(raw: &str) -> Result<f64, String> {
    match raw.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        Ok(_) => Err(format!("bad number {raw:?}: not finite")),
        Err(e) => Err(format!("bad number {raw:?}: {e}")),
    }
}

/// A string without quotes or escapes: the wire's strings are fixed
/// names.
fn lex_str(raw: &str) -> Option<&str> {
    let s = raw.strip_prefix('"')?.strip_suffix('"')?;
    (!s.contains(['"', '\\'])).then_some(s)
}

/// Splits an object or array body at its commas outside brackets. A
/// comma or bracket inside a string leaves a piece no lexer accepts.
fn split_top(body: &str) -> impl Iterator<Item = &str> {
    let mut depth = 0i32;
    body.split(move |c: char| {
        depth += i32::from(c == '[') - i32::from(c == ']');
        c == ',' && depth == 0
    })
    .map(str::trim)
}

impl<'a> Object<'a> {
    /// Lexes one line: a flat object, each key once, nothing after it.
    fn parse(line: &'a str) -> Result<Object<'a>, String> {
        let body = (line.trim().strip_prefix('{'))
            .and_then(|b| b.strip_suffix('}'))
            .ok_or("expected one {...} object")?;
        let mut fields: Vec<(&'a str, Val<'a>, bool)> = Vec::with_capacity(8);
        for item in split_top(body).filter(|_| !body.trim().is_empty()) {
            let (key, raw) = item
                .split_once(':')
                .ok_or_else(|| format!("expected \"key\":value, got {item:?}"))?;
            let key = lex_str(key.trim()).ok_or_else(|| format!("bad key {key:?}"))?;
            let val =
                Object::value(raw.trim()).ok_or_else(|| format!("field {key:?}: bad string"))?;
            if fields.iter().any(|(k, _, _)| *k == key) {
                return Err(format!("duplicate field {key:?}"));
            }
            fields.push((key, val, false));
        }
        Ok(Object { fields })
    }

    /// A value's kind, from its first character; `None` for a malformed
    /// string.
    fn value(raw: &'a str) -> Option<Val<'a>> {
        Some(
            match raw.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
                Some(body) => Val::Arr(body),
                None if raw == "null" => Val::Null,
                None if raw.starts_with('"') => Val::Str(lex_str(raw)?),
                None => Val::Num(raw),
            },
        )
    }

    /// The value under `key`, marked as read.
    fn take(&mut self, key: &str) -> Result<&Val<'a>, String> {
        let field = self
            .fields
            .iter_mut()
            .find(|(k, _, _)| *k == key)
            .ok_or_else(|| format!("missing field {key:?}"))?;
        field.2 = true;
        Ok(&field.1)
    }

    /// A string field.
    fn str(&mut self, key: &str) -> Result<&'a str, String> {
        match self.take(key)? {
            Val::Str(s) => Ok(*s),
            v => Err(format!("field {key:?}: expected string, got {v:?}")),
        }
    }

    /// Fails on the first key no field took.
    fn finish(&self) -> Result<(), String> {
        match self.fields.iter().find(|(_, _, read)| !read) {
            Some((key, _, _)) => Err(format!("unknown field {key:?}")),
            None => Ok(()),
        }
    }
}

/// An array body's elements, each lexed by `lex`.
fn lex_all<T>(body: &str, lex: fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    match body.trim() {
        "" => Ok(Vec::new()),
        body => body.split(',').map(|r| lex(r.trim())).collect(),
    }
}

impl Codec for Object<'_> {
    fn field(&mut self, key: &'static str, f: Field<'_>) -> Result<(), String> {
        let uint = |v: &mut dyn Uint, raw: &str| {
            let x = lex_uint(raw)?;
            (v.set(x).then_some(())).ok_or_else(|| format!("{x} is out of range"))
        };
        let u64 = |v: &mut u64, raw: &str| lex_uint(raw).map(|x| *v = x);
        if let Field::Kind(v, names) | Field::Label(v, names) = f {
            let s = self.str(key)?;
            let i = names.iter().position(|n| *n == s);
            return (i.filter(|&i| v.set(i as u64)).map(|_| ()))
                .ok_or_else(|| format!("field {key:?}: unknown value {s:?}"));
        }
        match (f, self.take(key)?) {
            (Field::Time(v) | Field::Flagged(v) | Field::Hash(v), Val::Num(raw)) => u64(v, raw),
            (Field::Int(v) | Field::Sticky(v), Val::Num(raw)) => uint(v, raw),
            (Field::Float(v), Val::Num(raw)) => lex_float(raw).map(|x| *v = x),
            (Field::Opt(v), Val::Null) => {
                *v = None;
                Ok(())
            }
            (Field::Opt(v), Val::Num(raw)) => uint(v.insert(0), raw),
            (Field::Ints(v), Val::Arr(a)) => lex_all(a, lex_uint).map(|x| *v = x),
            (Field::Floats(v), Val::Arr(a)) => lex_all(a, lex_float).map(|x| *v = x),
            (_, v) => Err(format!("unexpected value {v:?}")),
        }
        .map_err(|e| format!("field {key:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{HopKind, HopRecord};

    #[test]
    fn a_stream_cut_mid_record_yields_its_prefix_then_ends_for_good() {
        let hop = |at, trace| HopRecord {
            at,
            trace,
            kind: HopKind::LbForward,
            node: 1,
            a: 2,
            b: 118,
        };
        let records = [hop(1_000, 7), hop(2_000, 8), hop(3_000, 9)];
        let mut log = Log::new(Mode::Full(8));
        records.into_iter().for_each(|r| log.push(r));
        // The last record ends in its new trace id's eight raw bytes and
        // `b`'s one-byte tag: cut it inside the trace id.
        log.bytes.truncate(log.bytes.len() - 5);
        let mut iter = log.iter();
        assert_eq!(iter.by_ref().take(2).collect::<Vec<_>>(), records[..2]);
        assert_eq!(iter.next(), None);
        assert_eq!(iter.size_hint(), (0, Some(0)));
        assert!((0..3).all(|_| iter.next().is_none()));
    }
}
