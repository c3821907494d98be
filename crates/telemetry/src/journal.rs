//! Deterministic decision journal: a structured, sim-time-stamped event
//! stream recording *why* the load balancer acted — sample emissions,
//! ensemble epoch decisions, weight shifts, health transitions, gossip
//! merges, ECMP shard remaps, and flow re-pins.
//!
//! Events are exportable as NDJSON (one flat JSON object per line) via a
//! hand-rolled writer, and re-loadable via the line parser in this module,
//! so analyzers never need a serde dependency. Emission is deterministic:
//! timestamps are simulation time, never wall clock, and the writer's
//! float formatting is the shortest round-trip representation, so the
//! same seed produces byte-identical NDJSON.
//!
//! The journal doubles as the **flight recorder**: in [`JournalMode::Ring`]
//! it keeps only the last N events, cheap enough to leave on in chaos
//! runs, and [`Journal::to_ndjson`] dumps the retained causal history
//! when something goes wrong (invariant violation, `no_backend` drop,
//! test failure).

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

/// What the journal retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalMode {
    /// Record nothing (default). All emission sites are gated on
    /// [`Journal::enabled`], so this mode is free on the hot path.
    Off,
    /// Flight recorder: bounded ring buffer of the last N events.
    Ring(usize),
    /// Full capture up to a hard event limit; events past the limit are
    /// dropped and counted in [`Journal::overflow`].
    Full(usize),
}

impl JournalMode {
    /// True when events should be recorded at all.
    pub fn enabled(&self) -> bool {
        !matches!(self, JournalMode::Off)
    }
}

/// Why a weight vector was re-recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightCause {
    /// Initial weights at node start.
    Init,
    /// The in-band controller shifted weight.
    Controller,
    /// A gossip merge blended peer weights in.
    Gossip,
    /// The health tracker ejected/readmitted a backend (or lost all of
    /// them — the `no_backend` zero-weight record).
    Health,
}

impl WeightCause {
    /// Stable wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            WeightCause::Init => "init",
            WeightCause::Controller => "controller",
            WeightCause::Gossip => "gossip",
            WeightCause::Health => "health",
        }
    }

    fn from_str(s: &str) -> Option<WeightCause> {
        match s {
            "init" => Some(WeightCause::Init),
            "controller" => Some(WeightCause::Controller),
            "gossip" => Some(WeightCause::Gossip),
            "health" => Some(WeightCause::Health),
            _ => None,
        }
    }
}

/// One journal record. All timestamps (`at`) are simulation nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// An in-band T_LB sample was extracted from a flow.
    Sample {
        /// Sim time the sample was observed at the LB.
        at: u64,
        /// Backend the flow is pinned to.
        backend: usize,
        /// Client IPv4 (the VIP side is implicit).
        src_ip: u32,
        /// Client source port.
        src_port: u16,
        /// The ensemble member δ (ns) that produced the sample.
        delta: u64,
        /// The measured T_LB in nanoseconds.
        t_lb: u64,
    },
    /// An ensemble epoch closed and a δ was (re-)chosen.
    EpochDecision {
        /// Sim time of the epoch boundary.
        at: u64,
        /// Backend whose ensemble decided.
        backend: usize,
        /// Per-δ sample counts for the finished epoch.
        counts: Vec<u64>,
        /// Index of the chosen ensemble member.
        chosen: usize,
        /// δ (ns) of the chosen member.
        delta: u64,
    },
    /// The weight vector was recorded (start, controller shift, gossip
    /// merge, or health rebuild).
    WeightUpdate {
        /// Sim time of the update.
        at: u64,
        /// Which subsystem produced it.
        cause: WeightCause,
        /// Backend that lost the most weight, if any lost weight.
        victim: Option<usize>,
        /// Total weight mass moved off decreasing backends.
        moved: f64,
        /// The full post-update weight vector.
        weights: Vec<f64>,
    },
    /// A backend health state transition.
    HealthTransition {
        /// Sim time of the health epoch that fired the transition.
        at: u64,
        /// Backend index.
        backend: usize,
        /// State before (wire name, e.g. "healthy").
        from: &'static str,
        /// State after.
        to: &'static str,
        /// What fired it (wire name, e.g. "silence", "abort_burst").
        trigger: &'static str,
    },
    /// Peer weights were blended into the local vector.
    GossipMerge {
        /// Sim time of the merge.
        at: u64,
        /// Blend factor toward the peer mean.
        mix: f64,
        /// Local weights before the merge.
        before: Vec<f64>,
        /// Local weights after the merge.
        after: Vec<f64>,
    },
    /// An affinity-pinned flow was moved to a new backend.
    FlowRepin {
        /// Sim time of the re-pin.
        at: u64,
        /// Client IPv4.
        src_ip: u32,
        /// Client source port.
        src_port: u16,
        /// Previous backend.
        from: usize,
        /// New backend.
        to: usize,
    },
    /// Every backend is ejected; the node started dropping.
    NoBackend {
        /// Sim time the node entered the no-backend state.
        at: u64,
    },
    /// An ECMP route changed its member set (shard remap).
    ShardRemap {
        /// Sim time of the route update.
        at: u64,
        /// Destination IPv4 the route covers.
        dst: u32,
        /// Link ids before the update.
        before: Vec<u64>,
        /// Link ids after the update.
        after: Vec<u64>,
    },
}

impl JournalEvent {
    /// Sim timestamp of the event.
    pub fn at(&self) -> u64 {
        match self {
            JournalEvent::Sample { at, .. }
            | JournalEvent::EpochDecision { at, .. }
            | JournalEvent::WeightUpdate { at, .. }
            | JournalEvent::HealthTransition { at, .. }
            | JournalEvent::GossipMerge { at, .. }
            | JournalEvent::FlowRepin { at, .. }
            | JournalEvent::NoBackend { at }
            | JournalEvent::ShardRemap { at, .. } => *at,
        }
    }

    /// Stable wire name of the event kind (the `"ev"` field).
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEvent::Sample { .. } => "sample",
            JournalEvent::EpochDecision { .. } => "epoch_decision",
            JournalEvent::WeightUpdate { .. } => "weight_update",
            JournalEvent::HealthTransition { .. } => "health",
            JournalEvent::GossipMerge { .. } => "gossip_merge",
            JournalEvent::FlowRepin { .. } => "flow_repin",
            JournalEvent::NoBackend { .. } => "no_backend",
            JournalEvent::ShardRemap { .. } => "shard_remap",
        }
    }
}

/// The event store. Cloneable so experiment results can carry a copy.
#[derive(Debug, Clone)]
pub struct Journal {
    mode: JournalMode,
    events: Vec<JournalEvent>,
    /// Ring mode: index of the oldest retained event.
    head: usize,
    /// Events not retained (ring overwrites or full-mode cap hits).
    overflow: u64,
}

impl Journal {
    /// New journal in the given mode.
    pub fn new(mode: JournalMode) -> Journal {
        Journal {
            mode,
            events: Vec::new(),
            head: 0,
            overflow: 0,
        }
    }

    /// Disabled journal; [`Journal::push`] is a no-op.
    pub fn off() -> Journal {
        Journal::new(JournalMode::Off)
    }

    /// The configured mode.
    pub fn mode(&self) -> JournalMode {
        self.mode
    }

    /// Cheap hot-path gate: should callers bother building events?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.mode.enabled()
    }

    /// Record an event (no-op when disabled; ring mode evicts oldest).
    pub fn push(&mut self, ev: JournalEvent) {
        match self.mode {
            JournalMode::Off => {}
            JournalMode::Ring(cap) => {
                if cap == 0 {
                    self.overflow += 1;
                } else if self.events.len() < cap {
                    self.events.push(ev);
                } else {
                    self.events[self.head] = ev;
                    self.head = (self.head + 1) % cap;
                    self.overflow += 1;
                }
            }
            JournalMode::Full(cap) => {
                if self.events.len() < cap {
                    self.events.push(ev);
                } else {
                    self.overflow += 1;
                }
            }
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events not retained (overwritten in ring mode, dropped past the
    /// full-mode cap).
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Retained events in chronological order (ring unrolled).
    pub fn events(&self) -> impl Iterator<Item = &JournalEvent> {
        let (tail, init) = self.events.split_at(self.head.min(self.events.len()));
        init.iter().chain(tail.iter())
    }

    /// Serialize retained events as NDJSON, oldest first.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            write_event(&mut out, ev);
            out.push('\n');
        }
        out
    }
}

fn push_u64(out: &mut String, key: &str, v: u64) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&v.to_string());
}

fn push_f64(out: &mut String, key: &str, v: f64) {
    out.push('"');
    out.push_str(key);
    // `{:?}` is the shortest representation that round-trips through
    // `str::parse::<f64>()`, which is what makes journal-derived metrics
    // bit-exact against the live experiment.
    out.push_str(&format!("\":{v:?}"));
}

fn push_str(out: &mut String, key: &str, v: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    out.push_str(v);
    out.push('"');
}

fn push_u64_arr(out: &mut String, key: &str, vs: &[u64]) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":[");
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

fn push_f64_arr(out: &mut String, key: &str, vs: &[f64]) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":[");
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{v:?}"));
    }
    out.push(']');
}

/// Append one event as a single flat JSON object (no trailing newline).
pub fn write_event(out: &mut String, ev: &JournalEvent) {
    out.push('{');
    push_u64(out, "at", ev.at());
    out.push(',');
    push_str(out, "ev", ev.kind());
    match ev {
        JournalEvent::Sample {
            backend,
            src_ip,
            src_port,
            delta,
            t_lb,
            ..
        } => {
            out.push(',');
            push_u64(out, "backend", *backend as u64);
            out.push(',');
            push_u64(out, "src_ip", u64::from(*src_ip));
            out.push(',');
            push_u64(out, "src_port", u64::from(*src_port));
            out.push(',');
            push_u64(out, "delta", *delta);
            out.push(',');
            push_u64(out, "t_lb", *t_lb);
        }
        JournalEvent::EpochDecision {
            backend,
            counts,
            chosen,
            delta,
            ..
        } => {
            out.push(',');
            push_u64(out, "backend", *backend as u64);
            out.push(',');
            push_u64_arr(out, "counts", counts);
            out.push(',');
            push_u64(out, "chosen", *chosen as u64);
            out.push(',');
            push_u64(out, "delta", *delta);
        }
        JournalEvent::WeightUpdate {
            cause,
            victim,
            moved,
            weights,
            ..
        } => {
            out.push(',');
            push_str(out, "cause", cause.as_str());
            out.push(',');
            match victim {
                Some(v) => push_u64(out, "victim", *v as u64),
                None => out.push_str("\"victim\":null"),
            }
            out.push(',');
            push_f64(out, "moved", *moved);
            out.push(',');
            push_f64_arr(out, "weights", weights);
        }
        JournalEvent::HealthTransition {
            backend,
            from,
            to,
            trigger,
            ..
        } => {
            out.push(',');
            push_u64(out, "backend", *backend as u64);
            out.push(',');
            push_str(out, "from", from);
            out.push(',');
            push_str(out, "to", to);
            out.push(',');
            push_str(out, "trigger", trigger);
        }
        JournalEvent::GossipMerge {
            mix, before, after, ..
        } => {
            out.push(',');
            push_f64(out, "mix", *mix);
            out.push(',');
            push_f64_arr(out, "before", before);
            out.push(',');
            push_f64_arr(out, "after", after);
        }
        JournalEvent::FlowRepin {
            src_ip,
            src_port,
            from,
            to,
            ..
        } => {
            out.push(',');
            push_u64(out, "src_ip", u64::from(*src_ip));
            out.push(',');
            push_u64(out, "src_port", u64::from(*src_port));
            out.push(',');
            push_u64(out, "from", *from as u64);
            out.push(',');
            push_u64(out, "to", *to as u64);
        }
        JournalEvent::NoBackend { .. } => {}
        JournalEvent::ShardRemap {
            dst, before, after, ..
        } => {
            out.push(',');
            push_u64(out, "dst", u64::from(*dst));
            out.push(',');
            push_u64_arr(out, "before", before);
            out.push(',');
            push_u64_arr(out, "after", after);
        }
    }
    out.push('}');
}

/// Flat per-line JSON value: the journal wire format only needs numbers,
/// strings, null, and numeric arrays. Numbers keep their raw lexeme so
/// integer fields parse exactly — routing a u64 through f64 would
/// silently round timestamps and deltas above 2^53.
#[derive(Debug, Clone)]
enum Val {
    Num(String),
    Str(String),
    Null,
    Arr(Vec<String>),
}

fn lex_u64(raw: &str) -> Result<u64, String> {
    // Written u64s are plain digit runs, and nothing else is an integer:
    // a sign, fraction or exponent could only be coerced, and a coerced
    // timestamp or index corrupts an analysis quietly.
    if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("bad integer {raw:?}: expected a digit run"));
    }
    raw.parse::<u64>()
        .map_err(|e| format!("bad integer {raw:?}: {e}"))
}

fn lex_f64(raw: &str) -> Result<f64, String> {
    raw.parse::<f64>()
        .map_err(|e| format!("bad number {raw:?}: {e}"))
}

struct Fields {
    pairs: Vec<(String, Val)>,
}

impl Fields {
    fn get(&self, key: &str) -> Result<&Val, String> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        match self.get(key)? {
            Val::Num(raw) => lex_u64(raw).map_err(|e| format!("field {key:?}: {e}")),
            v => Err(format!("field {key:?}: expected number, got {v:?}")),
        }
    }

    /// An integer field of a narrower type: out of range is an error,
    /// never a wrap.
    fn uint<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let v = self.u64(key)?;
        T::try_from(v).map_err(|_| format!("field {key:?}: {v} is out of range"))
    }

    fn f64(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            Val::Num(raw) => lex_f64(raw).map_err(|e| format!("field {key:?}: {e}")),
            v => Err(format!("field {key:?}: expected number, got {v:?}")),
        }
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        match self.get(key)? {
            Val::Str(s) => Ok(s),
            v => Err(format!("field {key:?}: expected string, got {v:?}")),
        }
    }

    fn f64_arr(&self, key: &str) -> Result<Vec<f64>, String> {
        match self.get(key)? {
            Val::Arr(a) => a
                .iter()
                .map(|raw| lex_f64(raw).map_err(|e| format!("field {key:?}: {e}")))
                .collect(),
            v => Err(format!("field {key:?}: expected array, got {v:?}")),
        }
    }

    fn u64_arr(&self, key: &str) -> Result<Vec<u64>, String> {
        match self.get(key)? {
            Val::Arr(a) => a
                .iter()
                .map(|raw| lex_u64(raw).map_err(|e| format!("field {key:?}: {e}")))
                .collect(),
            v => Err(format!("field {key:?}: expected array, got {v:?}")),
        }
    }

    fn opt_usize(&self, key: &str) -> Result<Option<usize>, String> {
        match self.get(key)? {
            Val::Null => Ok(None),
            Val::Num(_) => self.uint(key).map(Some),
            v => Err(format!("field {key:?}: expected number|null, got {v:?}")),
        }
    }
}

fn parse_fields(line: &str) -> Result<Fields, String> {
    let bytes = line.as_bytes();
    let mut i = 0usize;
    let err = |msg: &str, at: usize| format!("{msg} at byte {at}");
    let skip_ws = |i: &mut usize| {
        while bytes.get(*i).is_some_and(|b| b.is_ascii_whitespace()) {
            *i += 1;
        }
    };
    skip_ws(&mut i);
    if bytes.get(i) != Some(&b'{') {
        return Err(err("expected '{'", i));
    }
    i += 1;
    let mut pairs = Vec::new();
    skip_ws(&mut i);
    if bytes.get(i) == Some(&b'}') {
        return Ok(Fields { pairs });
    }
    loop {
        skip_ws(&mut i);
        let key = parse_string(bytes, &mut i)?;
        skip_ws(&mut i);
        if bytes.get(i) != Some(&b':') {
            return Err(err("expected ':'", i));
        }
        i += 1;
        skip_ws(&mut i);
        let val = parse_val(bytes, &mut i)?;
        if pairs.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate field {key:?}"));
        }
        pairs.push((key, val));
        skip_ws(&mut i);
        match bytes.get(i) {
            Some(&b',') => i += 1,
            Some(&b'}') => {
                i += 1;
                skip_ws(&mut i);
                if i != bytes.len() {
                    return Err(err("trailing bytes after object", i));
                }
                return Ok(Fields { pairs });
            }
            _ => return Err(err("expected ',' or '}'", i)),
        }
    }
}

fn parse_string(bytes: &[u8], i: &mut usize) -> Result<String, String> {
    if bytes.get(*i) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {}", *i));
    }
    *i += 1;
    let start = *i;
    while let Some(&b) = bytes.get(*i) {
        if b == b'"' {
            let s = core::str::from_utf8(&bytes[start..*i])
                .map_err(|e| format!("invalid utf-8 in string: {e}"))?;
            *i += 1;
            // Journal strings are fixed wire names; no escapes to handle.
            return Ok(s.to_string());
        }
        if b == b'\\' {
            return Err(format!("unexpected escape at byte {}", *i));
        }
        *i += 1;
    }
    Err("unterminated string".to_string())
}

fn parse_val(bytes: &[u8], i: &mut usize) -> Result<Val, String> {
    match bytes.get(*i) {
        Some(&b'"') => Ok(Val::Str(parse_string(bytes, i)?)),
        Some(&b'n') => {
            if bytes[*i..].starts_with(b"null") {
                *i += 4;
                Ok(Val::Null)
            } else {
                Err(format!("bad literal at byte {}", *i))
            }
        }
        Some(&b'[') => {
            *i += 1;
            let mut arr = Vec::new();
            loop {
                while bytes.get(*i).is_some_and(|b| b.is_ascii_whitespace()) {
                    *i += 1;
                }
                if bytes.get(*i) == Some(&b']') {
                    *i += 1;
                    return Ok(Val::Arr(arr));
                }
                arr.push(parse_num(bytes, i)?);
                while bytes.get(*i).is_some_and(|b| b.is_ascii_whitespace()) {
                    *i += 1;
                }
                match bytes.get(*i) {
                    Some(&b',') => *i += 1,
                    Some(&b']') => {
                        *i += 1;
                        return Ok(Val::Arr(arr));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *i)),
                }
            }
        }
        Some(_) => Ok(Val::Num(parse_num(bytes, i)?)),
        None => Err("unexpected end of line".to_string()),
    }
}

fn parse_num(bytes: &[u8], i: &mut usize) -> Result<String, String> {
    let start = *i;
    while bytes
        .get(*i)
        .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
    {
        *i += 1;
    }
    let s = core::str::from_utf8(&bytes[start..*i])
        .map_err(|e| format!("invalid utf-8 in number: {e}"))?;
    // Validate the shape here so malformed lines fail at the lexer with
    // a byte offset; the typed accessors re-parse the raw lexeme.
    s.parse::<f64>()
        .map_err(|e| format!("bad number {s:?} at byte {start}: {e}"))?;
    Ok(s.to_string())
}

/// Parse one NDJSON line back into an event.
pub fn parse_event(line: &str) -> Result<JournalEvent, String> {
    let f = parse_fields(line)?;
    let at = f.u64("at")?;
    match f.str("ev")? {
        "sample" => Ok(JournalEvent::Sample {
            at,
            backend: f.uint("backend")?,
            src_ip: f.uint("src_ip")?,
            src_port: f.uint("src_port")?,
            delta: f.u64("delta")?,
            t_lb: f.u64("t_lb")?,
        }),
        "epoch_decision" => Ok(JournalEvent::EpochDecision {
            at,
            backend: f.uint("backend")?,
            counts: f.u64_arr("counts")?,
            chosen: f.uint("chosen")?,
            delta: f.u64("delta")?,
        }),
        "weight_update" => {
            let cause = WeightCause::from_str(f.str("cause")?)
                .ok_or_else(|| format!("unknown weight cause {:?}", f.str("cause")))?;
            Ok(JournalEvent::WeightUpdate {
                at,
                cause,
                victim: f.opt_usize("victim")?,
                moved: f.f64("moved")?,
                weights: f.f64_arr("weights")?,
            })
        }
        "health" => Ok(JournalEvent::HealthTransition {
            at,
            backend: f.uint("backend")?,
            from: intern_health(f.str("from")?)?,
            to: intern_health(f.str("to")?)?,
            trigger: intern_trigger(f.str("trigger")?)?,
        }),
        "gossip_merge" => Ok(JournalEvent::GossipMerge {
            at,
            mix: f.f64("mix")?,
            before: f.f64_arr("before")?,
            after: f.f64_arr("after")?,
        }),
        "flow_repin" => Ok(JournalEvent::FlowRepin {
            at,
            src_ip: f.uint("src_ip")?,
            src_port: f.uint("src_port")?,
            from: f.uint("from")?,
            to: f.uint("to")?,
        }),
        "no_backend" => Ok(JournalEvent::NoBackend { at }),
        "shard_remap" => Ok(JournalEvent::ShardRemap {
            at,
            dst: f.uint("dst")?,
            before: f.u64_arr("before")?,
            after: f.u64_arr("after")?,
        }),
        other => Err(format!("unknown event kind {other:?}")),
    }
}

/// Health-state wire names, interned so parsed events compare equal to
/// emitted ones.
fn intern_health(s: &str) -> Result<&'static str, String> {
    match s {
        "healthy" => Ok("healthy"),
        "suspect" => Ok("suspect"),
        "ejected" => Ok("ejected"),
        "probation" => Ok("probation"),
        other => Err(format!("unknown health state {other:?}")),
    }
}

fn intern_trigger(s: &str) -> Result<&'static str, String> {
    match s {
        "silence" => Ok("silence"),
        "abort_burst" => Ok("abort_burst"),
        "probe_silent" => Ok("probe_silent"),
        "probation_timeout" => Ok("probation_timeout"),
        "samples_returned" => Ok("samples_returned"),
        other => Err(format!("unknown health trigger {other:?}")),
    }
}

/// Parse a full NDJSON document (blank lines skipped). Fails on the
/// first malformed line with its 1-based line number.
pub fn parse_ndjson(text: &str) -> Result<Vec<JournalEvent>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_event(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    Ok(out)
}

/// Parse a full NDJSON document, tolerating a truncated *final* line.
///
/// A capture cut off mid-write (killed process, partial copy, `tail`
/// of a growing file) ends in half a line; hard-failing the whole
/// document over it would make every in-flight capture unreadable.
/// This variant drops a malformed final non-blank line and reports the
/// drop via the returned flag instead. Malformed lines anywhere *else*
/// are still errors — interior corruption is not truncation, and
/// silently skipping it would let analyses run on a journal with holes.
pub fn parse_ndjson_lossy(text: &str) -> Result<(Vec<JournalEvent>, bool), String> {
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    let mut out = Vec::with_capacity(lines.len());
    for (pos, &(lineno, line)) in lines.iter().enumerate() {
        match parse_event(line) {
            Ok(ev) => out.push(ev),
            Err(_) if pos + 1 == lines.len() => return Ok((out, true)),
            Err(e) => return Err(format!("line {}: {e}", lineno + 1)),
        }
    }
    Ok((out, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::Sample {
                at: 1_000,
                backend: 1,
                src_ip: 0x0a00_0001,
                src_port: 40_000,
                delta: 64_000,
                t_lb: 123_456,
            },
            JournalEvent::EpochDecision {
                at: 2_000,
                backend: 0,
                counts: vec![9, 7, 2, 0],
                chosen: 1,
                delta: 128_000,
            },
            JournalEvent::WeightUpdate {
                at: 3_000,
                cause: WeightCause::Controller,
                victim: Some(0),
                moved: 0.125,
                weights: vec![0.375, 0.625],
            },
            JournalEvent::WeightUpdate {
                at: 3_500,
                cause: WeightCause::Init,
                victim: None,
                moved: 0.0,
                weights: vec![0.5, 0.5],
            },
            JournalEvent::HealthTransition {
                at: 4_000,
                backend: 0,
                from: "healthy",
                to: "suspect",
                trigger: "silence",
            },
            JournalEvent::GossipMerge {
                at: 5_000,
                mix: 0.5,
                before: vec![0.4, 0.6],
                after: vec![0.45, 0.55],
            },
            JournalEvent::FlowRepin {
                at: 6_000,
                src_ip: 0x0a00_0002,
                src_port: 31,
                from: 0,
                to: 1,
            },
            JournalEvent::NoBackend { at: 7_000 },
            JournalEvent::ShardRemap {
                at: 8_000,
                dst: 0x0a63_0001,
                before: vec![3, 4],
                after: vec![4],
            },
        ]
    }

    #[test]
    fn roundtrip_every_event_kind() {
        let mut j = Journal::new(JournalMode::Full(1024));
        for ev in sample_events() {
            j.push(ev);
        }
        let text = j.to_ndjson();
        let parsed = parse_ndjson(&text).unwrap();
        assert_eq!(parsed, sample_events());
        // Writer is canonical: re-serializing the parse is byte-identical.
        let mut again = String::new();
        for ev in &parsed {
            write_event(&mut again, ev);
            again.push('\n');
        }
        assert_eq!(again, text);
    }

    #[test]
    fn float_shortest_repr_roundtrips() {
        let w = JournalEvent::WeightUpdate {
            at: 1,
            cause: WeightCause::Gossip,
            victim: Some(2),
            moved: 0.1 + 0.2, // 0.30000000000000004
            weights: vec![1.0 / 3.0, 1e-7, 123_456.789_012_345],
        };
        let mut line = String::new();
        write_event(&mut line, &w);
        assert_eq!(parse_event(&line).unwrap(), w);
    }

    #[test]
    fn off_mode_records_nothing() {
        let mut j = Journal::off();
        assert!(!j.enabled());
        j.push(JournalEvent::NoBackend { at: 1 });
        assert!(j.is_empty());
        assert_eq!(j.to_ndjson(), "");
        assert_eq!(parse_ndjson("").unwrap(), vec![]);
    }

    #[test]
    fn ring_keeps_last_n_in_order() {
        let mut j = Journal::new(JournalMode::Ring(3));
        for at in 0..10 {
            j.push(JournalEvent::NoBackend { at });
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.overflow(), 7);
        let ats: Vec<u64> = j.events().map(|e| e.at()).collect();
        assert_eq!(ats, vec![7, 8, 9]);
        // Dump is chronological too.
        let parsed = parse_ndjson(&j.to_ndjson()).unwrap();
        assert_eq!(parsed.iter().map(|e| e.at()).collect::<Vec<_>>(), ats);
    }

    #[test]
    fn ring_capacity_boundaries_keep_exactly_last_n() {
        // cap = 1: only the newest event ever survives a wrap.
        let mut j = Journal::new(JournalMode::Ring(1));
        for at in 0..5 {
            j.push(JournalEvent::NoBackend { at });
        }
        assert_eq!(j.len(), 1);
        assert_eq!(j.overflow(), 4);
        assert_eq!(j.events().map(|e| e.at()).collect::<Vec<_>>(), vec![4]);
        // cap = n exactly: no wrap, no overflow, order preserved.
        let mut j = Journal::new(JournalMode::Ring(4));
        for at in 0..4 {
            j.push(JournalEvent::NoBackend { at });
        }
        assert_eq!(j.len(), 4);
        assert_eq!(j.overflow(), 0);
        assert_eq!(
            j.events().map(|e| e.at()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        // One more push wraps: exactly the last 4, chronological.
        j.push(JournalEvent::NoBackend { at: 4 });
        assert_eq!(j.len(), 4);
        assert_eq!(j.overflow(), 1);
        assert_eq!(
            j.events().map(|e| e.at()).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        // cap = 0 ring: degenerate flight recorder, everything overflows.
        let mut j = Journal::new(JournalMode::Ring(0));
        j.push(JournalEvent::NoBackend { at: 9 });
        assert!(j.is_empty());
        assert_eq!(j.overflow(), 1);
    }

    #[test]
    fn full_mode_caps_and_counts_overflow() {
        let mut j = Journal::new(JournalMode::Full(2));
        for at in 0..5 {
            j.push(JournalEvent::NoBackend { at });
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.overflow(), 3);
        let ats: Vec<u64> = j.events().map(|e| e.at()).collect();
        assert_eq!(ats, vec![0, 1]);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_ndjson("{\"at\":1}").is_err()); // missing ev
        assert!(parse_ndjson("{\"at\":1,\"ev\":\"bogus\"}").is_err());
        assert!(parse_ndjson("not json").is_err());
        let err = parse_ndjson("{\"at\":1,\"ev\":\"no_backend\"}\nnope").unwrap_err();
        assert!(err.starts_with("line 2"), "{err}");
        // An integer field is a digit run that fits its type: nothing is
        // coerced through f64 or wrapped by `as`, a key appears once, and
        // the error names the field.
        let sample = |at: &str, ip: &str, port: &str| {
            format!(
                "{{\"at\":{at},\"ev\":\"sample\",\"backend\":1,\"src_ip\":{ip},\
                 \"src_port\":{port},\"delta\":2,\"t_lb\":3}}"
            )
        };
        assert!(parse_event(&sample("7", "4294967295", "65535")).is_ok());
        for (line, field) in [
            ("{\"at\":-5,\"ev\":\"no_backend\"}".to_string(), "\"at\""),
            ("{\"at\":1.9,\"ev\":\"no_backend\"}".to_string(), "\"at\""),
            ("{\"at\":1e30,\"ev\":\"no_backend\"}".to_string(), "\"at\""),
            (sample("7", "1", "70000"), "\"src_port\""),
            (sample("7", "4294967297", "1"), "\"src_ip\""),
            (
                "{\"at\":1,\"at\":2,\"ev\":\"no_backend\"}".to_string(),
                "\"at\"",
            ),
        ] {
            let err = parse_event(&line).expect_err(&line);
            assert!(err.contains(field), "{line}: {err}");
        }
    }

    #[test]
    fn lossy_parse_drops_only_a_truncated_tail() {
        let good = "{\"at\":1,\"ev\":\"no_backend\"}";
        // A half-written final line (truncated mid-capture) is dropped
        // and flagged; the preceding events still parse.
        let truncated = format!("{good}\n{{\"at\":2,\"ev\":\"no_bac");
        let (evs, dropped) = parse_ndjson_lossy(&truncated).unwrap();
        assert_eq!(evs, vec![JournalEvent::NoBackend { at: 1 }]);
        assert!(dropped, "truncated tail must be flagged");
        // A trailing blank line after the garbage does not shield it.
        let (evs, dropped) = parse_ndjson_lossy(&format!("{truncated}\n\n")).unwrap();
        assert_eq!(evs.len(), 1);
        assert!(dropped);
        // Clean documents (including empty ones) report no drop.
        let (evs, dropped) = parse_ndjson_lossy(&format!("{good}\n")).unwrap();
        assert_eq!(evs.len(), 1);
        assert!(!dropped);
        assert_eq!(parse_ndjson_lossy("").unwrap(), (vec![], false));
        // Interior corruption is still a hard error with its line number.
        let err = parse_ndjson_lossy(&format!("nope\n{good}\n")).unwrap_err();
        assert!(err.starts_with("line 1"), "{err}");
    }
}
