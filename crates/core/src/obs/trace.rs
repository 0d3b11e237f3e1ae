//! Structured span events for the evolution pipeline.
//!
//! [`EvolveTracer`] is an in-memory sink: the instrumented layers emit
//! [`SpanData`] describing what just happened (an operation starting, a
//! recomputation, a journal append, a publish) and the tracer stamps each
//! with a monotonic sequence number. Events can be inspected as values
//! ([`EvolveTracer::events`]) or rendered as text / JSON for the CLI's
//! `--trace-spans` flag. Like the metrics layer, the tracer reads no
//! clocks — event streams are deterministic for a fixed trace.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::json_escape;

/// How a recomputation was scoped, as reported in a
/// [`SpanData::Recompute`] event and counted by the metrics layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecomputeScope {
    /// The whole lattice was re-derived (naive engine, or a structural
    /// rebuild).
    Full,
    /// Only the down-set of the changed types was re-derived.
    Scoped,
    /// The affected set was empty; nothing was re-derived.
    Noop,
}

impl RecomputeScope {
    /// Stable lower-case name (`full` / `scoped` / `noop`).
    pub fn name(self) -> &'static str {
        match self {
            RecomputeScope::Full => "full",
            RecomputeScope::Scoped => "scoped",
            RecomputeScope::Noop => "noop",
        }
    }
}

impl std::fmt::Display for RecomputeScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Payload of one span event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanData {
    /// A recorded evolution operation is about to be applied.
    OpStart {
        /// Journal/trace sequence number of the operation (1-based).
        seq: u64,
        /// The operation in trace wire syntax (e.g. `add-type Student …`).
        op: String,
    },
    /// A recomputation of the derived lattice finished.
    Recompute {
        /// Full, scoped, or no-op.
        scope: RecomputeScope,
        /// Number of types re-derived.
        affected: u64,
        /// Longest derivation chain inside the affected set (0 for a
        /// no-op).
        depth: u64,
    },
    /// A batch of records was appended (and fsynced) to the journal.
    JournalAppend {
        /// Number of records in the batch.
        records: u64,
        /// Encoded size of the batch in bytes.
        bytes: u64,
    },
    /// A new schema version was published to readers.
    Publish {
        /// The schema version now visible to `snapshot()`.
        version: u64,
    },
    /// The durability state machine transitioned.
    Durability {
        /// State before the transition (stable lower-case name).
        from: &'static str,
        /// State after the transition.
        to: &'static str,
        /// Why (e.g. `retries exhausted`, `probe append succeeded`).
        reason: String,
    },
}

impl SpanData {
    /// Stable event-kind name (`op_start` / `recompute` / …).
    pub fn kind(&self) -> &'static str {
        match self {
            SpanData::OpStart { .. } => "op_start",
            SpanData::Recompute { .. } => "recompute",
            SpanData::JournalAppend { .. } => "journal_append",
            SpanData::Publish { .. } => "publish",
            SpanData::Durability { .. } => "durability",
        }
    }
}

/// One span event: a monotonic sequence number plus its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Position in the event stream, starting at 0, gap-free per tracer.
    pub seq: u64,
    /// What happened.
    pub data: SpanData,
}

impl SpanEvent {
    /// Render as one line of text (the `--trace-spans` format).
    pub fn to_text(&self) -> String {
        match &self.data {
            SpanData::OpStart { seq, op } => {
                format!("#{} op_start seq={} op={}", self.seq, seq, op)
            }
            SpanData::Recompute {
                scope,
                affected,
                depth,
            } => format!(
                "#{} recompute scope={} affected={} depth={}",
                self.seq, scope, affected, depth
            ),
            SpanData::JournalAppend { records, bytes } => format!(
                "#{} journal_append records={} bytes={}",
                self.seq, records, bytes
            ),
            SpanData::Publish { version } => {
                format!("#{} publish version={}", self.seq, version)
            }
            SpanData::Durability { from, to, reason } => format!(
                "#{} durability {}->{} reason={}",
                self.seq, from, to, reason
            ),
        }
    }

    /// Render as a single-line JSON object.
    pub fn to_json(&self) -> String {
        match &self.data {
            SpanData::OpStart { seq, op } => format!(
                "{{\"seq\":{},\"kind\":\"op_start\",\"op_seq\":{},\"op\":\"{}\"}}",
                self.seq,
                seq,
                json_escape(op)
            ),
            SpanData::Recompute {
                scope,
                affected,
                depth,
            } => format!(
                "{{\"seq\":{},\"kind\":\"recompute\",\"scope\":\"{}\",\"affected\":{},\"depth\":{}}}",
                self.seq, scope, affected, depth
            ),
            SpanData::JournalAppend { records, bytes } => format!(
                "{{\"seq\":{},\"kind\":\"journal_append\",\"records\":{},\"bytes\":{}}}",
                self.seq, records, bytes
            ),
            SpanData::Publish { version } => format!(
                "{{\"seq\":{},\"kind\":\"publish\",\"version\":{}}}",
                self.seq, version
            ),
            SpanData::Durability { from, to, reason } => format!(
                "{{\"seq\":{},\"kind\":\"durability\",\"from\":\"{}\",\"to\":\"{}\",\"reason\":\"{}\"}}",
                self.seq,
                from,
                to,
                json_escape(reason)
            ),
        }
    }
}

/// An in-memory sink collecting [`SpanEvent`]s with monotonic sequence
/// numbers. Thread-safe; shared via `Arc` between the instrumented
/// layers and whoever renders the stream.
#[derive(Debug, Default)]
pub struct EvolveTracer {
    next: AtomicU64,
    events: Mutex<Vec<SpanEvent>>,
}

impl EvolveTracer {
    /// A fresh, empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one event, assigning it the next sequence number.
    pub fn record(&self, data: SpanData) {
        let seq = self.next.fetch_add(1, Ordering::SeqCst);
        self.events.lock().push(SpanEvent { seq, data });
    }

    /// A copy of all events recorded so far, in sequence order.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.events.lock().clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True if no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render all events as text, one line per event.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for ev in self.events.lock().iter() {
            out.push_str(&ev.to_text());
            out.push('\n');
        }
        out
    }

    /// Render all events as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, ev) in self.events.lock().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&ev.to_json());
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_numbers_are_monotonic_and_gap_free() {
        let t = EvolveTracer::new();
        t.record(SpanData::OpStart {
            seq: 1,
            op: "add-root".to_string(),
        });
        t.record(SpanData::Recompute {
            scope: RecomputeScope::Scoped,
            affected: 3,
            depth: 2,
        });
        t.record(SpanData::Publish { version: 7 });
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        for (i, ev) in evs.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
        }
        assert_eq!(evs[1].data.kind(), "recompute");
    }

    #[test]
    fn renders_text_and_json() {
        let t = EvolveTracer::new();
        t.record(SpanData::JournalAppend {
            records: 2,
            bytes: 99,
        });
        assert_eq!(t.to_text(), "#0 journal_append records=2 bytes=99\n");
        assert_eq!(
            t.to_json(),
            "[{\"seq\":0,\"kind\":\"journal_append\",\"records\":2,\"bytes\":99}]"
        );
    }

    #[test]
    fn json_escapes_control_characters() {
        let op = SpanEvent {
            seq: 0,
            data: SpanData::OpStart {
                seq: 1,
                op: "add-type \"A\u{1}\"".into(),
            },
        };
        assert_eq!(
            op.to_json(),
            "{\"seq\":0,\"kind\":\"op_start\",\"op_seq\":1,\"op\":\"add-type \\\"A\\u0001\\\"\"}"
        );
        let durability = SpanEvent {
            seq: 1,
            data: SpanData::Durability {
                from: "healthy",
                to: "degraded",
                reason: "bad\u{1}".into(),
            },
        };
        let json = durability.to_json();
        assert!(json.ends_with("\"reason\":\"bad\\u0001\"}"), "{json}");
    }
}
