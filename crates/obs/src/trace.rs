//! Structured tracing: spans, exact per-kind summaries, and a bounded
//! window of recent spans for Chrome-trace export.
//!
//! Aggregate metrics (the registry in the crate root) answer *how much*;
//! spans answer *where inside a run*. A [`TraceSink`] collects
//! [`Span`]s — named, categorized intervals with a parent link, a thread
//! id, and up to [`MAX_ATTRS`] `u64` key/value attributes. Each span is
//! folded into its `category/name` kind as it closes (exact count, total
//! and self time, and a log₂ duration histogram for percentile
//! estimates), so the summary is exact at any scale. The span record is
//! then kept in the thread-sharded ring the event bus also uses: the
//! window the Chrome export (Perfetto, `chrome://tracing`) reads, whose
//! wrap-around drops are counted, and whose optional stream
//! ([`TraceSink::stream_to`]) writes every span to disk as it closes.
//!
//! Overhead: with no sink, instrumentation sites hold `None` and spans are
//! [`Span::inert`], touching neither clock nor allocator; a disabled sink
//! ([`TraceSink::set_enabled`]) costs one relaxed atomic load per span;
//! an enabled span reads the clock at start and end (or takes the
//! caller's readings, see [`crate::Phase`]) and never allocates (names
//! and attr keys are `&'static str`, ring slots are reused).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use crate::ring::{thread_id, ShardedRing, SHARDS};
use crate::{escape_json, Histogram, PhaseTimer};

/// Maximum number of key/value attributes per span; extra [`Span::attr`]
/// calls are silently ignored.
pub const MAX_ATTRS: usize = 6;

/// Identity of a span, used to nest children under parents explicitly
/// (parent links are threaded by hand rather than via thread-local span
/// stacks, which keeps recording wait-free and works across the engine's
/// worker threads). It also names the span's kind, so a closing child
/// credits its time to the parent kind's self-time without a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId {
    id: u64,
    kind: usize,
}

impl SpanId {
    /// "No parent": the span is a root.
    pub const NONE: SpanId = SpanId { id: 0, kind: 0 };

    /// `true` for [`SpanId::NONE`] and for the id of an inert span.
    pub fn is_none(self) -> bool {
        self.id == 0
    }
}

/// One completed span, as retained in the ring buffers.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanRecord {
    /// Unique id (sink-scoped, starts at 1).
    pub id: u64,
    /// Parent span id, or 0 for roots.
    pub parent: u64,
    /// Process-wide small id of the recording thread.
    pub thread: u64,
    /// Coarse grouping (`"engine"`, `"prober"`, `"bench"`).
    pub category: &'static str,
    /// Span kind within the category (`"cache_fill"`, `"scan"`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the sink's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the sink's epoch.
    pub end_ns: u64,
    /// Key/value attributes; only the first `attr_len` entries are live.
    pub attrs: [(&'static str, u64); MAX_ATTRS],
    /// Number of live attributes.
    pub attr_len: u8,
}

impl SpanRecord {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The live attributes.
    pub fn attrs(&self) -> &[(&'static str, u64)] {
        &self.attrs[..self.attr_len as usize]
    }
}

/// Appends one span as a Chrome complete (`"ph":"X"`) trace event. Shared
/// by the batch exporter ([`TraceSink::to_chrome_json`]) and the live
/// stream so both emit byte-identical events. Timestamps and durations
/// are microseconds with the nanosecond remainder as three decimals.
fn chrome_event(span: &SpanRecord, out: &mut String) {
    let _ = write!(
        out,
        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"cat\":\"{}\",\"name\":\"{}\",\
         \"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"span_id\":{}",
        span.thread,
        escape_json(span.category),
        escape_json(span.name),
        span.start_ns / 1_000,
        span.start_ns % 1_000,
        span.duration_ns() / 1_000,
        span.duration_ns() % 1_000,
        span.id,
    );
    if span.parent != 0 {
        let _ = write!(out, ",\"parent\":{}", span.parent);
    }
    for (key, value) in span.attrs() {
        let _ = write!(out, ",\"{}\":{value}", escape_json(key));
    }
    out.push_str("}}");
}

/// Exact running totals for one `category/name` span kind, updated as
/// each span of the kind closes.
#[derive(Debug)]
struct Kind {
    category: &'static str,
    name: &'static str,
    /// Span durations: exact count and sum, log₂ buckets for percentiles.
    durations: Histogram,
    /// Summed durations of child spans, credited as each child closes.
    child_ns: AtomicU64,
}

/// A bounded collector of [`Span`]s. See the module docs for the overhead
/// and boundedness guarantees.
#[derive(Debug)]
pub struct TraceSink {
    enabled: AtomicBool,
    next_id: AtomicU64,
    epoch: Instant,
    /// Append-only, so a [`SpanId`]'s kind index stays valid.
    kinds: RwLock<Vec<Kind>>,
    ring: ShardedRing<SpanRecord>,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::with_capacity(TraceSink::DEFAULT_CAPACITY)
    }
}

impl TraceSink {
    /// Default ring capacity per shard (total retention:
    /// `16 × 8192 = 131 072` spans).
    pub const DEFAULT_CAPACITY: usize = 8192;

    /// A sink with the default capacity.
    pub fn new() -> TraceSink {
        TraceSink::default()
    }

    /// A sink retaining up to `capacity` spans *per shard* (total:
    /// `16 × capacity`) for export. A zero capacity is rounded up to 1.
    pub fn with_capacity(capacity: usize) -> TraceSink {
        TraceSink {
            enabled: AtomicBool::new(true),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            kinds: RwLock::new(Vec::new()),
            ring: ShardedRing::with_capacity(capacity),
        }
    }

    /// Convenience: a fresh sink behind an `Arc`, ready to share.
    pub fn shared() -> Arc<TraceSink> {
        Arc::new(TraceSink::new())
    }

    /// Turns recording on or off. While off, [`span`](Self::span) costs one
    /// atomic load and records nothing.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether the sink is currently recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Number of spans lost from the export window to ring-buffer
    /// wrap-around since creation.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Number of shard rings that have wrapped at least once (0 means the
    /// retained window is complete; up to 16 shards can wrap).
    pub fn wrapped_shards(&self) -> u64 {
        self.ring.wrapped_shards()
    }

    /// Number of spans currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` if no span has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Starts a span now. The returned guard records itself into the sink
    /// when dropped; use [`Span::attr`] to attach values and [`Span::id`]
    /// to parent children under it.
    pub fn span(&self, category: &'static str, name: &'static str, parent: SpanId) -> Span<'_> {
        if !self.is_enabled() {
            return Span::inert();
        }
        self.span_at(category, name, parent, Instant::now())
    }

    /// Starts a span at the caller's clock reading `start`, so the span
    /// and the caller's own timing agree exactly (see [`crate::Phase`]).
    pub fn span_at(
        &self,
        category: &'static str,
        name: &'static str,
        parent: SpanId,
        start: Instant,
    ) -> Span<'_> {
        if !self.is_enabled() {
            return Span::inert();
        }
        let record = SpanRecord {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: parent.id,
            category,
            name,
            start_ns: self.ns_at(start),
            ..SpanRecord::default()
        };
        Span {
            sink: Some(self),
            open: OpenSpan {
                kind: self.kind(category, name),
                parent_kind: parent.kind,
                record,
            },
        }
    }

    /// Index of the `category/name` kind, registered on first use.
    fn kind(&self, category: &'static str, name: &'static str) -> usize {
        let find = |kinds: &[Kind]| {
            kinds
                .iter()
                .position(|k| k.category == category && k.name == name)
        };
        if let Some(i) = find(&self.kinds.read().expect("trace kinds poisoned")) {
            return i;
        }
        let mut kinds = self.kinds.write().expect("trace kinds poisoned");
        find(&kinds).unwrap_or_else(|| {
            kinds.push(Kind {
                category,
                name,
                durations: Histogram::default(),
                child_ns: AtomicU64::new(0),
            });
            kinds.len() - 1
        })
    }

    /// Nanoseconds from the sink's epoch to `at` (0 before the epoch).
    fn ns_at(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Closes a span at `end`: folds it into its kind and its parent's
    /// kind, then retains (and streams) its record.
    fn close(&self, open: &OpenSpan, end: Instant) {
        let record = SpanRecord {
            thread: thread_id(),
            end_ns: self.ns_at(end),
            ..open.record
        };
        let duration = record.duration_ns();
        {
            let kinds = self.kinds.read().expect("trace kinds poisoned");
            if let Some(kind) = kinds.get(open.kind) {
                kind.durations.record(duration);
            }
            if let Some(parent) = kinds.get(open.parent_kind).filter(|_| record.parent != 0) {
                parent.child_ns.fetch_add(duration, Ordering::Relaxed);
            }
        }
        self.ring.push(record.thread, record, |record| {
            let mut event = String::with_capacity(192);
            event.push_str(",\n");
            chrome_event(record, &mut event);
            event
        });
    }

    /// Attaches a live writer: every span recorded from now on (none
    /// before) is also appended to `writer` as a Chrome trace event, in
    /// completion order. Writes the document preamble, whose metadata
    /// event lets every span event be comma-prefixed, immediately; call
    /// [`finish_stream`](Self::finish_stream) to close the document.
    pub fn stream_to(&self, mut writer: Box<dyn std::io::Write + Send>) -> std::io::Result<()> {
        writer.write_all(
            b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
              {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
              \"args\":{\"name\":\"sixgen\"}}",
        )?;
        self.ring.stream_to(writer);
        Ok(())
    }

    /// Closes the streamed document: writes the `]` terminator plus an
    /// `otherData` object carrying the streamed/error/ring-drop counters,
    /// flushes, and drops the writer. A no-op returning `Ok` when no
    /// stream is active (including after a write error already tore the
    /// stream down).
    pub fn finish_stream(&self) -> std::io::Result<()> {
        self.ring.finish_stream(|ring| {
            format!(
                "\n],\"otherData\":{{\"spans_streamed\":{},\"stream_write_errors\":{},\
                 \"ring_dropped_spans\":{}}}}}\n",
                ring.streamed(),
                ring.stream_errors(),
                ring.dropped()
            )
        })
    }

    /// Number of span events successfully written to the stream.
    pub fn streamed(&self) -> u64 {
        self.ring.streamed()
    }

    /// Number of stream write failures: the first tears the stream down
    /// (recording continues ring-only), so 0 or 1 per attached stream.
    pub fn stream_errors(&self) -> u64 {
        self.ring.stream_errors()
    }

    /// All retained spans, merged across shards and sorted by start time
    /// (ties by id). Non-destructive.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.ring.snapshot(|s| (s.start_ns, s.id))
    }

    /// Serializes the retained spans as Chrome trace-event JSON — an object
    /// with a `traceEvents` array of complete (`"ph":"X"`) events, loadable
    /// in Perfetto and `chrome://tracing`. Timestamps and durations are
    /// microseconds with nanosecond precision; attributes (plus the parent
    /// span id) land in each event's `args`. The top-level `otherData`
    /// object carries the span and dropped-span counts.
    pub fn to_chrome_json(&self) -> String {
        let spans = self.snapshot();
        let mut out = String::with_capacity(128 + spans.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
        let _ = write!(
            out,
            "\"spans\":{},\"dropped_spans\":{}",
            spans.len(),
            self.dropped()
        );
        out.push_str("},\"traceEvents\":[");
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"sixgen\"}}",
        );
        for span in &spans {
            out.push(',');
            chrome_event(span, &mut out);
        }
        out.push_str("]}");
        out
    }

    /// Per-span-kind totals of every span closed so far, ring wrap or
    /// not: for every `category/name` pair, the exact span count, total
    /// time and self time (total minus the time of child spans), and
    /// p50/p95/p99 estimated from a log₂ duration histogram. Rows are
    /// ordered by descending total time.
    ///
    /// Self time saturates at zero: children evaluated on parallel worker
    /// threads can accumulate more time than their parents' wall-clock
    /// duration.
    pub fn summary(&self) -> Vec<SummaryRow> {
        let kinds = self.kinds.read().expect("trace kinds poisoned");
        let mut rows: Vec<SummaryRow> = kinds
            .iter()
            .filter(|k| k.durations.count() > 0)
            .map(|k| {
                let total_ns = k.durations.sum();
                let percentile = |q| k.durations.percentile(q).unwrap_or(0);
                SummaryRow {
                    key: format!("{}/{}", k.category, k.name),
                    count: k.durations.count(),
                    total_ns,
                    self_ns: total_ns.saturating_sub(k.child_ns.load(Ordering::Relaxed)),
                    p50_ns: percentile(0.50),
                    p95_ns: percentile(0.95),
                    p99_ns: percentile(0.99),
                }
            })
            .collect();
        rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.key.cmp(&b.key)));
        rows
    }

    /// Renders [`summary`](Self::summary) as a fixed-width text table.
    /// Percentiles carry a `~` to mark them as bucketed estimates; a
    /// trailer reports spans dropped from the export window when non-zero.
    pub fn render_summary(&self) -> String {
        let rows = self.summary();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12} {:>12} {:>10} {:>10} {:>10}",
            "span", "count", "total", "self", "p50", "p95", "p99"
        );
        for row in &rows {
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>12} {:>12} {:>10} {:>10} {:>10}",
                row.key,
                row.count,
                format_ns(row.total_ns),
                format_ns(row.self_ns),
                format!("~{}", format_ns(row.p50_ns)),
                format!("~{}", format_ns(row.p95_ns)),
                format!("~{}", format_ns(row.p99_ns)),
            );
        }
        out.push_str("(count/total/self exact; ~ = log2-bucket percentile estimate)\n");
        let dropped = self.dropped();
        if dropped > 0 {
            let wrapped = self.wrapped_shards();
            let _ = writeln!(
                out,
                "({dropped} spans dropped to ring-buffer wrap across {wrapped} of {SHARDS} \
                 shard rings: missing from the Chrome export, counted above)"
            );
        }
        out
    }
}

/// One row of [`TraceSink::summary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryRow {
    /// `category/name`.
    pub key: String,
    /// Number of spans of this kind (exact).
    pub count: u64,
    /// Sum of span durations, nanoseconds (exact).
    pub total_ns: u64,
    /// Total minus child-span time (saturating), nanoseconds (exact).
    pub self_ns: u64,
    /// Median span duration, nanoseconds (log₂-bucket estimate).
    pub p50_ns: u64,
    /// 95th-percentile span duration, nanoseconds (estimate).
    pub p95_ns: u64,
    /// 99th-percentile span duration, nanoseconds (estimate).
    pub p99_ns: u64,
}

/// Human-scale duration: `123ns`, `45.6µs`, `7.89ms`, `1.23s`.
fn format_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.2}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// A started span's state without the sink borrow: what an owner that
/// outlives any one borrow keeps (an engine session holds its `engine/run`
/// root from start to finish). Obtained from [`Span::detach`]; closed with
/// [`Phase::resume`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenSpan {
    kind: usize,
    parent_kind: usize,
    /// The record so far; `thread` and `end_ns` are set at close.
    record: SpanRecord,
}

impl OpenSpan {
    /// The span's id, for parenting children under it.
    pub fn id(&self) -> SpanId {
        SpanId {
            id: self.record.id,
            kind: self.kind,
        }
    }
}

/// RAII span guard: records its interval into the sink when dropped (or
/// at an explicit end with [`Span::end_at`]). Obtained from
/// [`TraceSink::span`] (live) or [`Span::inert`] / [`maybe_span`] (no-op).
#[derive(Debug)]
pub struct Span<'s> {
    sink: Option<&'s TraceSink>,
    open: OpenSpan,
}

impl Span<'_> {
    /// A span that records nothing and never touches the clock. The
    /// disabled-path representation: instrumentation code handles live and
    /// inert spans identically.
    pub fn inert() -> Span<'static> {
        Span {
            sink: None,
            open: OpenSpan::default(),
        }
    }

    /// This span's id, for parenting children under it.
    /// [`SpanId::NONE`] when inert.
    pub fn id(&self) -> SpanId {
        self.open.id()
    }

    /// Attaches a key/value attribute. Ignored on inert spans and beyond
    /// [`MAX_ATTRS`] entries.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        let record = &mut self.open.record;
        if self.sink.is_some() && (record.attr_len as usize) < MAX_ATTRS {
            record.attrs[record.attr_len as usize] = (key, value);
            record.attr_len += 1;
        }
    }

    /// Closes the span with the caller's clock reading `end`.
    pub fn end_at(mut self, end: Instant) {
        if let Some(sink) = self.sink.take() {
            sink.close(&self.open, end);
        }
    }

    /// Releases the sink borrow without recording; the returned state is
    /// closed later through [`Phase::resume`].
    pub fn detach(mut self) -> OpenSpan {
        self.sink = None;
        self.open
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(sink) = self.sink.take() {
            sink.close(&self.open, Instant::now());
        }
    }
}

/// One timed phase. The clock is read once when the phase starts and once
/// when it ends, and those two readings feed every attached sink: a
/// [`PhaseTimer`], a duration [`Histogram`], and a trace [`Span`] (whose
/// start and end are the same two instants). [`end`](Phase::end) returns
/// the elapsed nanoseconds for anything else that reports the phase (the
/// engine's round events), so all of them agree exactly.
#[derive(Debug)]
pub struct Phase<'a> {
    start: Instant,
    span: Span<'a>,
    timer: Option<&'a PhaseTimer>,
    histogram: Option<&'a Histogram>,
}

impl<'a> Phase<'a> {
    /// Starts a phase now, with a `category/name` span under `parent` when
    /// a trace sink is given.
    pub fn start(
        trace: Option<&'a TraceSink>,
        category: &'static str,
        name: &'static str,
        parent: SpanId,
    ) -> Phase<'a> {
        let start = Instant::now();
        let span = match trace {
            Some(sink) => sink.span_at(category, name, parent, start),
            None => Span::inert(),
        };
        Phase::with_span(start, span)
    }

    /// Resumes, as a phase, a span opened at the earlier reading `start`
    /// and detached ([`Span::detach`]) by an owner that could not hold the
    /// sink borrow.
    pub fn resume(start: Instant, trace: Option<&'a TraceSink>, open: OpenSpan) -> Phase<'a> {
        let sink = trace.filter(|_| !open.id().is_none());
        Phase::with_span(start, Span { sink, open })
    }

    fn with_span(start: Instant, span: Span<'a>) -> Phase<'a> {
        Phase {
            start,
            span,
            timer: None,
            histogram: None,
        }
    }

    /// Also records the phase's duration into `timer`.
    pub fn timer(self, timer: Option<&'a PhaseTimer>) -> Phase<'a> {
        Phase { timer, ..self }
    }

    /// Also records the phase's duration into `histogram`.
    pub fn histogram(self, histogram: Option<&'a Histogram>) -> Phase<'a> {
        Phase { histogram, ..self }
    }

    /// The phase span's id, for parenting child spans.
    pub fn id(&self) -> SpanId {
        self.span.id()
    }

    /// Attaches a key/value attribute to the phase span.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        self.span.attr(key, value);
    }

    /// Ends the phase: reads the clock once, records into every attached
    /// sink, and returns the elapsed nanoseconds.
    pub fn end(self) -> u64 {
        let end = Instant::now();
        let elapsed = end.saturating_duration_since(self.start);
        if let Some(timer) = self.timer {
            timer.record(elapsed);
        }
        if let Some(histogram) = self.histogram {
            histogram.record_duration(elapsed);
        }
        self.span.end_at(end);
        u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Starts a span against an optional sink: the instrumentation-site
/// helper. `None` yields an inert span with zero overhead beyond the
/// branch.
pub fn maybe_span<'s>(
    sink: Option<&'s TraceSink>,
    category: &'static str,
    name: &'static str,
    parent: SpanId,
) -> Span<'s> {
    match sink {
        Some(sink) => sink.span(category, name, parent),
        None => Span::inert(),
    }
}

/// Validates that `text` is one complete JSON value (used by tests to
/// round-trip the Chrome-trace and metrics exports, and cheap enough to
/// run before shipping a trace file). Returns the byte offset and a
/// message on the first syntax error.
pub fn validate_json(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos),
        Some(b't') => parse_literal(bytes, pos, "true"),
        Some(b'f') => parse_literal(bytes, pos, "false"),
        Some(b'n') => parse_literal(bytes, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:#x} at {pos}", pos = *pos)),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        parse_value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        parse_value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => *pos += 2,
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_literal(bytes: &[u8], pos: &mut usize, literal: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit() || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    if *pos == start {
        return Err(format!("expected number at byte {start}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Duration;

    #[test]
    fn spans_record_nesting_and_attrs() {
        let sink = TraceSink::new();
        {
            let mut root = sink.span("engine", "run", SpanId::NONE);
            root.attr("seeds", 42);
            {
                let mut child = sink.span("engine", "cache_fill", root.id());
                child.attr("clusters", 7);
            }
        }
        let spans = sink.snapshot();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "run").expect("root span");
        let child = spans.iter().find(|s| s.name == "cache_fill").expect("child");
        assert_eq!(root.parent, 0);
        assert_eq!(child.parent, root.id);
        assert_eq!(root.attrs(), &[("seeds", 42)]);
        assert_eq!(child.attrs(), &[("clusters", 7)]);
        assert!(child.start_ns >= root.start_ns);
        assert!(child.end_ns <= root.end_ns);
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::new();
        sink.set_enabled(false);
        {
            let mut span = sink.span("engine", "run", SpanId::NONE);
            span.attr("ignored", 1);
            assert!(span.id().is_none());
        }
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 0);
        sink.set_enabled(true);
        drop(sink.span("engine", "run", SpanId::NONE));
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn inert_span_is_free_standing() {
        let mut span = Span::inert();
        span.attr("x", 1);
        assert!(span.id().is_none());
        drop(span); // must not panic or record anywhere
        assert_eq!(maybe_span(None, "a", "b", SpanId::NONE).id(), SpanId::NONE);
    }

    #[test]
    fn ring_wrap_drops_oldest_and_counts() {
        // Single-threaded: all spans land in one shard of capacity 4.
        let sink = TraceSink::with_capacity(4);
        let names: [&'static str; 7] = ["s0", "s1", "s2", "s3", "s4", "s5", "s6"];
        for name in names {
            drop(sink.span("t", name, SpanId::NONE));
        }
        assert_eq!(sink.len(), 4, "capacity bounds retention");
        assert_eq!(sink.dropped(), 3, "three overwrites counted");
        let kept: Vec<&str> = sink.snapshot().iter().map(|s| s.name).collect();
        assert_eq!(kept, vec!["s3", "s4", "s5", "s6"], "oldest dropped first");
        // The exporters surface the drop count and the wrapped-ring count.
        assert_eq!(sink.wrapped_shards(), 1, "one shard ring wrapped");
        assert!(sink.to_chrome_json().contains("\"dropped_spans\":3"));
        let summary = sink.render_summary();
        assert!(summary.contains("3 spans dropped"));
        assert!(summary.contains("1 of 16 shard rings"), "{summary}");
    }

    #[test]
    fn concurrent_recording_is_lossless_under_capacity() {
        let sink = TraceSink::with_capacity(10_000);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..500 {
                        drop(sink.span("t", "work", SpanId::NONE));
                    }
                });
            }
        });
        assert_eq!(sink.len(), 4_000);
        assert_eq!(sink.dropped(), 0);
        // Ids are unique.
        let mut ids: Vec<u64> = sink.snapshot().iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4_000);
    }

    #[test]
    fn chrome_json_round_trips() {
        let sink = TraceSink::new();
        {
            let mut root = sink.span("engine", "run", SpanId::NONE);
            root.attr("seeds", 10);
            drop(sink.span("engine", "select", root.id()));
        }
        let json = sink.to_chrome_json();
        validate_json(&json).expect("chrome trace JSON parses");
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"cat\":\"engine\""));
        assert!(json.contains("\"name\":\"run\""));
        assert!(json.contains("\"seeds\":10"));
        assert!(json.contains("\"parent\":"));
        assert!(json.contains("\"process_name\""));
    }

    #[test]
    fn empty_sink_exports_valid_json() {
        let sink = TraceSink::new();
        let json = sink.to_chrome_json();
        validate_json(&json).expect("empty trace parses");
        assert!(json.contains("\"spans\":0"));
    }

    #[test]
    fn summary_attributes_self_time_to_parents() {
        let sink = TraceSink::new();
        {
            let root = sink.span("engine", "run", SpanId::NONE);
            {
                let _child = sink.span("engine", "cache_fill", root.id());
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
        let rows = sink.summary();
        assert_eq!(rows.len(), 2);
        let run = rows.iter().find(|r| r.key == "engine/run").expect("run row");
        let fill = rows
            .iter()
            .find(|r| r.key == "engine/cache_fill")
            .expect("fill row");
        assert_eq!(run.count, 1);
        assert_eq!(fill.count, 1);
        // The child's time is excluded from the parent's self time.
        assert!(run.total_ns >= fill.total_ns);
        assert!(run.self_ns <= run.total_ns - fill.total_ns.min(run.total_ns) + 1_000_000);
        assert_eq!(fill.self_ns, fill.total_ns, "leaf self == total");
        // Percentiles of a single sample are that sample.
        assert_eq!(fill.p50_ns, fill.p95_ns);
        assert_eq!(fill.p95_ns, fill.p99_ns);
        // Rows ordered by total time: the enclosing run comes first.
        assert_eq!(rows[0].key, "engine/run");
    }

    #[test]
    fn summary_percentiles_are_bucketed_estimates() {
        let sink = TraceSink::new();
        let t0 = Instant::now();
        for us in 1..=100u64 {
            sink.span_at("t", "work", SpanId::NONE, t0)
                .end_at(t0 + Duration::from_micros(us));
        }
        let row = &sink.summary()[0];
        assert_eq!((row.count, row.total_ns), (100, 5_050_000), "exact");
        // Exact nearest-rank values are 50, 95 and 99 µs; each estimate
        // lands in the same log₂ bucket.
        assert!((32_768..65_536).contains(&row.p50_ns));
        assert!((65_536..131_072).contains(&row.p95_ns));
        assert!((65_536..=100_000).contains(&row.p99_ns));
        let table = sink.render_summary();
        let p50 = format!("~{}", format_ns(row.p50_ns));
        assert!(table.contains(&p50), "{table}");
        assert!(table.contains("log2-bucket percentile estimate"), "{table}");
    }

    #[test]
    fn summary_is_exact_past_ring_wrap_across_threads() {
        // One retained span per shard: nearly every span is dropped from
        // the export window, yet counts, totals and self times stay exact.
        let sink = TraceSink::with_capacity(1);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        let t0 = Instant::now();
                        let parent = sink.span_at("t", "parent", SpanId::NONE, t0);
                        for k in 0..3u64 {
                            let start = t0 + Duration::from_nanos(100 * k);
                            sink.span_at("t", "child", parent.id(), start)
                                .end_at(start + Duration::from_nanos(70));
                        }
                        parent.end_at(t0 + Duration::from_nanos(1_000));
                    }
                });
            }
        });
        assert!(sink.dropped() >= 400 - 16, "the ring wrapped: {}", sink.dropped());
        let rows = sink.summary();
        let row = |key: &str| rows.iter().find(|r| r.key == key).expect("row").clone();
        let parent = row("t/parent");
        let child = row("t/child");
        assert_eq!((parent.count, parent.total_ns), (100, 100_000));
        assert_eq!((child.count, child.total_ns), (300, 21_000));
        assert_eq!(parent.self_ns, 100_000 - 21_000, "children credited at close");
        assert_eq!(child.self_ns, child.total_ns, "leaf self == total");
        assert_eq!((child.p50_ns, child.p99_ns), (70, 70), "one-value kind is exact");
    }

    #[test]
    fn validate_json_rejects_malformed() {
        assert!(validate_json("{}").is_ok());
        assert!(validate_json("[1,2,{\"a\":null}]").is_ok());
        assert!(validate_json("{\"a\":1.5e3,\"b\":\"x\\\"y\"}").is_ok());
        assert!(validate_json("{").is_err());
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("[1,]").is_err());
        assert!(validate_json("{\"a\":1}trailing").is_err());
        assert!(validate_json("").is_err());
    }

    #[test]
    fn format_ns_scales() {
        assert_eq!(format_ns(12), "12ns");
        assert_eq!(format_ns(4_500), "4.5µs");
        assert_eq!(format_ns(7_890_000), "7.89ms");
        assert_eq!(format_ns(1_230_000_000), "1.23s");
    }

    /// A `Write` handle whose buffer outlives the sink that owns the
    /// boxed writer, so tests can inspect streamed bytes.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streaming_outlives_ring_capacity() {
        // Single-threaded, one shard of capacity 4 — but the stream keeps
        // everything the ring forgot.
        let sink = TraceSink::with_capacity(4);
        let buf = SharedBuf::default();
        sink.stream_to(Box::new(buf.clone())).unwrap();
        let names: [&'static str; 12] = [
            "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
        ];
        for name in names {
            drop(sink.span("t", name, SpanId::NONE));
        }
        assert_eq!(sink.len(), 4, "ring retention unchanged by streaming");
        assert_eq!(sink.dropped(), 8);
        assert_eq!(sink.streamed(), 12, "every span streamed");
        assert_eq!(sink.stream_errors(), 0);
        sink.finish_stream().unwrap();
        let doc = buf.contents();
        validate_json(doc.trim_end()).expect("streamed document parses");
        for name in names {
            assert!(doc.contains(&format!("\"name\":\"{name}\"")), "{name} streamed");
        }
        assert!(doc.contains("\"spans_streamed\":12"));
        assert!(doc.contains("\"ring_dropped_spans\":8"));
        assert!(doc.contains("\"process_name\""));
        // Batch and stream share the event formatter: a retained span's
        // event appears byte-identically in both documents.
        let batch = sink.to_chrome_json();
        let streamed_line = doc
            .lines()
            .find(|l| l.contains("\"name\":\"s11\""))
            .expect("s11 line");
        assert!(batch.contains(streamed_line.trim_end_matches(',')));
    }

    /// Fails every write after the preamble succeeds.
    struct FlakyWriter {
        writes_left: u32,
    }

    impl std::io::Write for FlakyWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.writes_left == 0 {
                return Err(std::io::Error::other("disk on fire"));
            }
            self.writes_left -= 1;
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn stream_write_failure_disables_streaming_without_losing_ring() {
        let sink = TraceSink::new();
        sink.stream_to(Box::new(FlakyWriter { writes_left: 1 }))
            .unwrap();
        for _ in 0..5 {
            drop(sink.span("t", "work", SpanId::NONE));
        }
        assert_eq!(sink.stream_errors(), 1, "first failure counted once");
        assert_eq!(sink.streamed(), 0);
        assert_eq!(sink.len(), 5, "ring recording unaffected");
        // The stream tore down; finishing is now a clean no-op.
        sink.finish_stream().unwrap();
    }

    #[test]
    fn streamed_events_from_many_threads_form_valid_json() {
        let sink = TraceSink::with_capacity(8);
        let buf = SharedBuf::default();
        sink.stream_to(Box::new(buf.clone())).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        drop(sink.span("t", "work", SpanId::NONE));
                    }
                });
            }
        });
        assert_eq!(sink.streamed(), 200);
        sink.finish_stream().unwrap();
        let doc = buf.contents();
        validate_json(doc.trim_end()).expect("concurrent streamed document parses");
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 200);
    }
}
