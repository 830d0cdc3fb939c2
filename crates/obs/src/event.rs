//! Streaming telemetry events.
//!
//! A [`Recorder`](crate::Recorder) with one or more [`NdjsonSink`]s
//! attached emits an [`Event`] for every span open, span close, counter
//! increment, and histogram observation — *while* the run is executing,
//! not as an end-of-run snapshot. Long-running drivers (`ofence watch`,
//! `ofence serve`) use this to expose live progress without waiting for
//! a run to finish.
//!
//! [`NdjsonSink`] serializes every event as one JSON object per line
//! (NDJSON) into any `Write` target; `ofence analyze --events-out`
//! streams a whole run to a file or stdout.
//!
//! Events are emitted under the recorder's internal lock, so the stream
//! is totally ordered: a `span_open` always precedes its `span_close`,
//! and sinks never observe a close without its open.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One telemetry event, emitted live as the recorder is driven.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A span was opened (its duration is not yet known).
    SpanOpen {
        /// Recorder-unique span id; the matching close carries the same id.
        id: u64,
        name: String,
        attrs: Vec<(String, String)>,
        /// Microseconds since the recorder epoch.
        ts_us: u64,
        /// Dense thread number (same numbering as [`crate::SpanRecord::tid`]).
        tid: u64,
    },
    /// A span was closed.
    SpanClose {
        id: u64,
        name: String,
        ts_us: u64,
        dur_us: u64,
        tid: u64,
    },
    /// A counter was incremented by `delta`.
    Counter {
        name: String,
        delta: u64,
        ts_us: u64,
    },
    /// A histogram observation was recorded.
    Observe {
        name: String,
        value: u64,
        ts_us: u64,
    },
}

impl Event {
    /// The event's kind tag as it appears in the NDJSON `ev` field.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::SpanOpen { .. } => "span_open",
            Event::SpanClose { .. } => "span_close",
            Event::Counter { .. } => "counter",
            Event::Observe { .. } => "observe",
        }
    }

    /// One NDJSON line (no trailing newline): a flat JSON object with an
    /// `ev` discriminator. Span attributes become an `attrs` object.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::with_capacity(96);
        match self {
            Event::SpanOpen {
                id,
                name,
                attrs,
                ts_us,
                tid,
            } => {
                out.push_str(&format!(
                    "{{\"ev\":\"span_open\",\"id\":{id},\"name\":{},\"ts_us\":{ts_us},\"tid\":{tid}",
                    crate::json_string(name)
                ));
                if !attrs.is_empty() {
                    out.push_str(",\"attrs\":{");
                    for (i, (k, v)) in attrs.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&crate::json_string(k));
                        out.push(':');
                        out.push_str(&crate::json_string(v));
                    }
                    out.push('}');
                }
                out.push('}');
            }
            Event::SpanClose {
                id,
                name,
                ts_us,
                dur_us,
                tid,
            } => {
                out.push_str(&format!(
                    "{{\"ev\":\"span_close\",\"id\":{id},\"name\":{},\"ts_us\":{ts_us},\"dur_us\":{dur_us},\"tid\":{tid}}}",
                    crate::json_string(name)
                ));
            }
            Event::Counter { name, delta, ts_us } => {
                out.push_str(&format!(
                    "{{\"ev\":\"counter\",\"name\":{},\"delta\":{delta},\"ts_us\":{ts_us}}}",
                    crate::json_string(name)
                ));
            }
            Event::Observe { name, value, ts_us } => {
                out.push_str(&format!(
                    "{{\"ev\":\"observe\",\"name\":{},\"value\":{value},\"ts_us\":{ts_us}}}",
                    crate::json_string(name)
                ));
            }
        }
        out
    }
}

/// Streams events as NDJSON into any `Write` target (file, stdout,
/// `Vec<u8>`); writes are buffered by the caller's writer choice.
///
/// The sink runs inside the recorder's lock on the analysis hot path, so
/// it never panics: a failed write is counted and the event dropped —
/// telemetry must not be able to fail an analysis.
pub struct NdjsonSink {
    out: Mutex<Box<dyn Write + Send>>,
    emitted: AtomicU64,
    write_errors: AtomicU64,
}

impl NdjsonSink {
    pub fn new(writer: impl Write + Send + 'static) -> NdjsonSink {
        NdjsonSink {
            out: Mutex::new(Box::new(writer)),
            emitted: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
        }
    }

    /// Events successfully written so far.
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Events dropped because the underlying writer failed.
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    /// Write one event as a line.
    pub(crate) fn emit(&self, event: &Event) {
        let mut line = event.to_ndjson();
        line.push('\n');
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        if out.write_all(line.as_bytes()).is_ok() {
            self.emitted.fetch_add(1, Ordering::Relaxed);
        } else {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Flush the writer (drivers call this at end of run).
    pub(crate) fn flush(&self) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use std::sync::Arc;

    /// An in-memory NDJSON sink test helper: the writer appends into a
    /// shared buffer the test can read back.
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn ndjson_of(f: impl FnOnce(&Recorder)) -> String {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::new(NdjsonSink::new(SharedBuf(buf.clone())));
        let rec = Recorder::new();
        rec.add_sink(sink.clone());
        f(&rec);
        sink.flush();
        let bytes = buf.lock().unwrap().clone();
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn events_stream_in_order() {
        let text = ndjson_of(|rec| {
            let _run = rec.span("run");
            rec.count("files", 2);
            drop(rec.span_with("parse", &[("file", "a.c")]));
            rec.observe("dur", 7);
        });
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6, "{text}");
        assert!(lines[0].contains("\"ev\":\"span_open\"") && lines[0].contains("\"run\""));
        assert!(lines[1].contains("\"ev\":\"counter\"") && lines[1].contains("\"delta\":2"));
        assert!(lines[2].contains("\"ev\":\"span_open\"") && lines[2].contains("\"parse\""));
        assert!(lines[2].contains("\"attrs\":{\"file\":\"a.c\"}"));
        assert!(lines[3].contains("\"ev\":\"span_close\"") && lines[3].contains("\"parse\""));
        assert!(lines[4].contains("\"ev\":\"observe\"") && lines[4].contains("\"value\":7"));
        assert!(lines[5].contains("\"ev\":\"span_close\"") && lines[5].contains("\"run\""));
    }

    #[test]
    fn open_and_close_share_id() {
        let text = ndjson_of(|rec| drop(rec.span("x")));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let id_of = |line: &str| {
            let i = line.find("\"id\":").unwrap() + 5;
            line[i..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
        };
        assert_eq!(id_of(lines[0]), id_of(lines[1]));
    }

    #[test]
    fn ndjson_escapes_names() {
        let ev = Event::Counter {
            name: "we\"ird\nname".into(),
            delta: 1,
            ts_us: 0,
        };
        let line = ev.to_ndjson();
        assert!(line.contains("we\\\"ird\\nname"), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn sinks_do_not_alter_snapshots() {
        let sink = Arc::new(NdjsonSink::new(std::io::sink()));
        let rec = Recorder::new();
        rec.add_sink(sink.clone());
        drop(rec.span("a"));
        rec.count("x", 3);
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.count_of("x"), 3);
        assert_eq!(sink.emitted(), 3); // open + close + counter
    }

    #[test]
    fn reset_keeps_sinks_attached() {
        let sink = Arc::new(NdjsonSink::new(std::io::sink()));
        let rec = Recorder::new();
        rec.add_sink(sink.clone());
        rec.count("x", 1);
        rec.reset();
        rec.count("x", 1);
        assert_eq!(sink.emitted(), 2, "events keep flowing across resets");
    }

    #[test]
    fn failing_writer_counts_errors() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("nope"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = NdjsonSink::new(Broken);
        sink.emit(&Event::Counter {
            name: "x".into(),
            delta: 1,
            ts_us: 0,
        });
        assert_eq!(sink.emitted(), 0);
        assert_eq!(sink.write_errors(), 1);
    }
}
