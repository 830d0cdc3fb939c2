//! The analysis daemon's wire protocol: newline-delimited JSON-RPC over
//! TCP, serving a shared [`Session`](crate::session::Session).
//!
//! One request per line, one response per line, any number of requests
//! per connection:
//!
//! ```text
//! → {"id": 1, "method": "analyze"}
//! ← {"id": 1, "ok": true, "result": { ...schema v3 report... }}
//! → {"id": 2, "method": "explain", "params": {"file": "m.c", "line": 7}}
//! ← {"id": 2, "ok": false, "error": {"code": "failed", "message": "no barrier at m.c:7; barriers in that file:\n  m.c:4 (smp_wmb)"}}
//! ```
//!
//! `id` is echoed verbatim (any JSON value; `null` when the request was
//! too broken to extract one). Methods: `ping`, `status`, `analyze`,
//! `analyze-file`, `explain`, `diff`, `baseline-gate`, `shutdown`.
//! `result` payloads are exactly the documents the one-shot CLI prints
//! (`analyze --json`, `explain --json`, `diff --json`), so a client can
//! swap between the two without reparsing.
//!
//! The transport is deliberately boring: the connections come from the
//! workspace's one accept loop, [`obs::serve::listen`] (`std::net`,
//! thread per connection, no async runtime), and this module only
//! supplies the per-connection handler. What makes
//! it safe under fire is the error discipline: every malformed input
//! (truncated line, oversized payload, invalid UTF-8, unknown method,
//! non-object request) produces a structured error response on the same
//! connection, a panic inside a handler is caught and answered as
//! `internal`, and a mid-request disconnect just ends that connection's
//! thread. The protocol fuzz suite in `tests/server.rs` holds the daemon
//! to exactly that contract.

use crate::json::Text;
use crate::session::{panic_message, ReplyTo, Session};
use serde::Fields;
use std::io::{BufRead, BufReader, IoSlice, Write};
use std::net::TcpStream;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Longest accepted request line, newline excluded. Anything longer is
/// answered with an `oversized` error; the remainder of the line is
/// drained (never buffered) so the connection stays usable.
pub const MAX_REQUEST_BYTES: usize = 4 << 20;

/// Longest accepted client-supplied `request_id`. Ids are echoed into
/// responses, traces, and ledger lines; an unbounded one would let a
/// client inflate all three.
pub const MAX_REQUEST_ID_CHARS: usize = 128;

/// A structured protocol error: machine-readable code + human message.
struct RpcError {
    code: &'static str,
    message: String,
}

impl RpcError {
    fn bad_request(message: impl Into<String>) -> RpcError {
        RpcError {
            code: "bad_request",
            message: message.into(),
        }
    }

    fn failed(message: String) -> RpcError {
        RpcError {
            code: "failed",
            message,
        }
    }
}

/// Bind `addr` (e.g. `127.0.0.1:7433`, or port `0` to let the OS pick)
/// and serve the session's methods on the shared [`obs::serve::listen`]
/// loop until the handle is shut down or dropped, or a client sends
/// `shutdown` ([`obs::Listener::wait`] returns then). Connection threads
/// are named `serve-conn-<n>`, so a stuck connection is identifiable in
/// /proc, and counted in the `serve_connections_active` gauge on
/// /metrics + /health.
pub fn serve(addr: &str, session: Arc<Session>) -> Result<obs::Listener, String> {
    obs::serve::listen(addr, "serve", move |stream| {
        let _gauge = ConnGauge::open(session.live());
        handle_connection(stream, &session)
    })
}

/// Keeps the `serve_connections_active` gauge honest: incremented when a
/// connection's handler starts, decremented when it ends — including
/// panics, since the decrement lives in `Drop`.
struct ConnGauge(Arc<obs::Live>);

impl ConnGauge {
    fn open(live: Arc<obs::Live>) -> ConnGauge {
        live.add_gauge("serve_connections_active", 1);
        ConnGauge(live)
    }
}

impl Drop for ConnGauge {
    fn drop(&mut self) {
        self.0.add_gauge("serve_connections_active", -1);
    }
}

/// What one attempt to read a request line produced.
enum LineRead {
    /// A complete line (without the trailing newline) is in the buffer.
    Line,
    /// Clean end of stream (or a mid-line disconnect: nobody to answer).
    Eof,
    /// The line exceeded [`MAX_REQUEST_BYTES`]; the excess was drained.
    Oversized,
}

/// Read one newline-terminated line into `buf`, refusing to buffer more
/// than the cap: once a line exceeds it, the rest is read and discarded
/// so the next request starts clean — a hostile client can not make the
/// daemon hold its payload in memory.
fn read_line_capped(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> LineRead {
    buf.clear();
    let mut over = false;
    loop {
        let chunk = match reader.fill_buf() {
            // EOF — including mid-line (truncated request: nobody left
            // to answer) and mid-oversized-line.
            Ok([]) => return LineRead::Eof,
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return LineRead::Eof,
        };
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map(|i| i + 1).unwrap_or(chunk.len());
        if !over {
            let keep = take - usize::from(newline.is_some());
            if buf.len() + keep > MAX_REQUEST_BYTES {
                over = true;
            } else {
                buf.extend_from_slice(&chunk[..keep]);
            }
        }
        reader.consume(take);
        if newline.is_some() {
            return if over {
                LineRead::Oversized
            } else {
                LineRead::Line
            };
        }
    }
}

/// Serve one connection's requests in order; `Break` once a client asked
/// the daemon to shut down.
fn handle_connection(stream: TcpStream, session: &Session) -> ControlFlow<()> {
    let Ok(read_half) = stream.try_clone() else {
        return ControlFlow::Continue(());
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let line = match read_line_capped(&mut reader, &mut buf) {
            LineRead::Eof => return ControlFlow::Continue(()),
            LineRead::Oversized => {
                session.live().count("serve_errors", 1);
                let reply = error_response(
                    &serde_json::Value::Null,
                    &session.assign_request_id(),
                    "oversized",
                    &format!("request exceeds {MAX_REQUEST_BYTES} bytes"),
                );
                if reply.send(&mut writer).is_err() {
                    return ControlFlow::Continue(());
                }
                continue;
            }
            LineRead::Line => &buf,
        };
        if line.iter().all(|b| b.is_ascii_whitespace()) {
            continue;
        }
        match respond(session, line, &mut writer) {
            Ok(false) => {}
            Ok(true) => return ControlFlow::Break(()),
            Err(_) => return ControlFlow::Continue(()),
        }
    }
}

/// One response line, newline included, in pieces: a success keeps its
/// method's document as the method rendered it, between the envelope's
/// head and tail, so the document is never copied into a second string.
/// An `analyze` report's runs of `files` rows stay shared with the
/// session's memo of them.
struct Reply<'d> {
    /// The envelope up to the `result` key; an error's whole line.
    head: String,
    /// The method's document; none for an error.
    result: Option<&'d Text>,
    /// What follows `result`.
    tail: &'static str,
}

impl Reply<'_> {
    /// Write the line with as few writes as the socket allows: the pieces
    /// go to the kernel together (`writev`, which std hands at most
    /// `IOV_MAX` of them per call), and the loop resumes after a partial
    /// write. So the stream carries exactly the bytes of the joined line,
    /// and no small trailing write waits behind the big one for an
    /// acknowledgement.
    fn send(&self, writer: &mut impl Write) -> std::io::Result<()> {
        let document = self.result.into_iter().flat_map(Text::pieces);
        let mut parts: Vec<IoSlice<'_>> = std::iter::once(&*self.head)
            .chain(document)
            .chain(std::iter::once(self.tail))
            .map(|piece| IoSlice::new(piece.as_bytes()))
            .collect();
        let mut parts = &mut parts[..];
        while !parts.is_empty() {
            match writer.write_vectored(parts) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut parts, n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        writer.flush()
    }
}

/// A success envelope around `result`, the method's document already
/// rendered as compact JSON text, spliced in without re-parsing.
fn ok_response<'d>(id: &serde_json::Value, request_id: &str, result: &'d Text) -> Reply<'d> {
    let mut head = String::with_capacity(64);
    let mut w = serde_json::Writer::compact(&mut head);
    let mut envelope = w.object();
    envelope.field("id", id);
    envelope.field("request_id", request_id);
    envelope.field("ok", &true);
    // The object stays open: `tail` closes it after the document.
    envelope.key("result");
    Reply {
        head,
        result: Some(result),
        tail: "}\n",
    }
}

fn error_response(
    id: &serde_json::Value,
    request_id: &str,
    code: &str,
    message: &str,
) -> Reply<'static> {
    let mut line = serde_json::to_string(&serde_json::json!({
        "id": id,
        "request_id": request_id,
        "ok": false,
        "error": { "code": code, "message": message },
    }))
    .expect("response serializes");
    line.push('\n');
    Reply {
        head: line,
        result: None,
        tail: "",
    }
}

/// A method's document as compact JSON text.
fn render(doc: serde_json::Value) -> Text {
    Text::from(serde_json::to_string(&doc).expect("document serializes"))
}

/// Parse, dispatch and answer one request line on `writer`. Returns
/// whether the client asked the daemon to shut down, or why the reply
/// could not be written.
///
/// Every response — success or any flavor of failure — carries a
/// `request_id`: the client's, when the envelope supplied a valid one,
/// or a server-assigned id otherwise. Requests too broken to parse get a
/// server-assigned id too. Only requests that reach a session method
/// (`analyze`, `analyze-file`, `explain`, `diff`, `baseline-gate`) get a
/// `requests.jsonl` line; those methods send their own reply, success or
/// failure, from inside the request. Protocol errors and bad params
/// (counted in `serve_errors` here), `ping`, `status`, `trace` and
/// `shutdown` leave none.
fn respond<W: Write>(session: &Session, line: &[u8], writer: &mut W) -> std::io::Result<bool> {
    let fail = |writer: &mut W, id: serde_json::Value, request_id: &str, e: RpcError| {
        session.live().count("serve_errors", 1);
        error_response(&id, request_id, e.code, &e.message)
            .send(writer)
            .map(|()| false)
    };
    let text = match std::str::from_utf8(line) {
        Ok(t) => t,
        Err(_) => {
            return fail(
                writer,
                serde_json::Value::Null,
                &session.assign_request_id(),
                RpcError::bad_request("request is not valid UTF-8"),
            )
        }
    };
    let doc: serde_json::Value = match serde_json::from_str(text) {
        Ok(d) => d,
        Err(e) => {
            return fail(
                writer,
                serde_json::Value::Null,
                &session.assign_request_id(),
                RpcError::bad_request(format!("request is not JSON: {e}")),
            )
        }
    };
    let Some(obj) = doc.as_object() else {
        return fail(
            writer,
            serde_json::Value::Null,
            &session.assign_request_id(),
            RpcError::bad_request("request must be a JSON object"),
        );
    };
    let id = obj.get("id").cloned().unwrap_or(serde_json::Value::Null);
    // A client-supplied request id must be a usable one; anything else
    // is answered (under a server-assigned id) rather than half-honored.
    let request_id = match obj.get("request_id") {
        None => session.assign_request_id(),
        Some(v) => match v.as_str() {
            Some(s) if !s.is_empty() && s.chars().count() <= MAX_REQUEST_ID_CHARS => s.to_string(),
            _ => {
                return fail(
                    writer,
                    id,
                    &session.assign_request_id(),
                    RpcError::bad_request(format!(
                        "field `request_id` must be a non-empty string of at most {MAX_REQUEST_ID_CHARS} characters"
                    )),
                )
            }
        },
    };
    let Some(method) = obj.get("method").and_then(|m| m.as_str()) else {
        return fail(
            writer,
            id,
            &request_id,
            RpcError::bad_request("missing string field `method`"),
        );
    };
    if method == "shutdown" {
        let result = render(serde_json::json!({ "stopping": true }));
        ok_response(&id, &request_id, &result).send(writer)?;
        return Ok(true);
    }
    let params = obj.get("params");
    // The method answers through `reply`, which records whether a reply
    // went out and how writing it ended.
    let mut sent: Option<std::io::Result<()>> = None;
    let mut reply = |outcome: Result<&Text, &str>| {
        let response = match outcome {
            Ok(result) => ok_response(&id, &request_id, result),
            Err(message) => error_response(&id, &request_id, "failed", message),
        };
        sent = Some(response.send(writer));
    };
    // A handler panic must kill neither the daemon nor the connection:
    // catch it and answer `internal`. Session state stays usable — its
    // locks recover from poisoning.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        dispatch(session, method, params, &request_id, &mut reply)
    }));
    if let Some(sent) = sent {
        return sent.map(|()| false);
    }
    let e = match outcome {
        Ok(Ok(())) => RpcError {
            code: "internal",
            message: format!("method `{method}` sent no reply"),
        },
        Ok(Err(e)) => e,
        Err(panic) => RpcError {
            code: "internal",
            message: format!("handler panicked: {}", panic_message(panic.as_ref())),
        },
    };
    fail(writer, id, &request_id, e)
}

/// Run one method and answer it through `reply`. The session's tracked
/// methods answer from inside their request, failures included; the
/// errors returned here are the ones that never reached one.
fn dispatch(
    session: &Session,
    method: &str,
    params: Option<&serde_json::Value>,
    request_id: &str,
    reply: ReplyTo<'_>,
) -> Result<(), RpcError> {
    // Tracked methods get a request context carrying the wire-level id,
    // so their spans, trace, and ledger line all correlate with the
    // response envelope.
    let ctx = || session.begin_request(method, Some(request_id.to_string()));
    let answer = |reply: ReplyTo<'_>, doc| reply(Ok(&render(doc)));
    match method {
        "ping" => answer(reply, serde_json::json!({ "pong": true })),
        "status" => answer(reply, session.status_document()),
        "trace" => {
            let wanted = param_str(params, "request_id")?;
            let doc = session.trace_document(wanted).map_err(RpcError::failed)?;
            answer(reply, doc);
        }
        "analyze" => {
            let _ = session.analyze_document(&ctx(), Some(reply));
        }
        "analyze-file" => {
            let file = param_str(params, "file")?;
            let _ = session.analyze_file_document(&ctx(), file, Some(reply));
        }
        "explain" => {
            let file = param_str(params, "file")?;
            let line = param_u32(params, "line")?;
            let _ = session.explain_document(&ctx(), file, line, Some(reply));
        }
        "diff" => {
            let old = param_str(params, "old")?;
            let new = param_str(params, "new")?;
            let _ = session.diff_document(&ctx(), old, new, Some(reply));
        }
        "baseline-gate" => {
            let baseline = params
                .and_then(|p| p.get("baseline"))
                .ok_or_else(|| RpcError::bad_request("missing params field `baseline`"))?;
            let fail_on = match params.and_then(|p| p.get("fail_on")) {
                None => crate::diffing::FailOn::New,
                Some(v) => {
                    let s = v.as_str().ok_or_else(|| {
                        RpcError::bad_request("params field `fail_on` must be a string")
                    })?;
                    crate::diffing::FailOn::parse(s).map_err(RpcError::bad_request)?
                }
            };
            let _ = session.baseline_gate_document(&ctx(), baseline, fail_on, Some(reply));
        }
        other => {
            return Err(RpcError {
                code: "unknown_method",
                message: format!(
                    "unknown method `{other}`; expected ping, status, trace, analyze, analyze-file, explain, diff, baseline-gate, or shutdown"
                ),
            })
        }
    }
    Ok(())
}

fn param_str<'p>(params: Option<&'p serde_json::Value>, key: &str) -> Result<&'p str, RpcError> {
    params
        .and_then(|p| p.get(key))
        .and_then(|v| v.as_str())
        .ok_or_else(|| RpcError::bad_request(format!("missing string params field `{key}`")))
}

fn param_u32(params: Option<&serde_json::Value>, key: &str) -> Result<u32, RpcError> {
    params
        .and_then(|p| p.get(key))
        .and_then(|v| v.as_u64())
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| RpcError::bad_request(format!("missing integer params field `{key}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;
    use crate::session::SessionOptions;
    use std::io::{BufRead, Read};
    use std::net::{SocketAddr, TcpListener};
    use std::time::{Duration, Instant};

    const CLEAN: &str = "struct m { int init; int y; };\n\
void reader(struct m *a) { if (!a->init) return; smp_rmb(); f(a->y); }\n\
void writer(struct m *b) { b->y = 1; smp_wmb(); b->init = 1; }\n";

    fn corpus(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ofence-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("m.c"), CLEAN).unwrap();
        dir
    }

    fn session_over(dir: &std::path::Path) -> Arc<Session> {
        Arc::new(Session::new(SessionOptions {
            config: AnalysisConfig::default(),
            paths: vec![dir.display().to_string()],
            cache_dir: None,
            history_dir: None,
        }))
    }

    fn start(dir: &std::path::Path) -> obs::Listener {
        serve("127.0.0.1:0", session_over(dir)).unwrap()
    }

    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let writer = TcpStream::connect(addr).unwrap();
            let reader = BufReader::new(writer.try_clone().unwrap());
            Client { reader, writer }
        }

        fn send_raw(&mut self, line: &[u8]) {
            self.writer.write_all(line).unwrap();
            self.writer.write_all(b"\n").unwrap();
        }

        fn recv(&mut self) -> serde_json::Value {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            serde_json::from_str(&line).unwrap()
        }

        fn call(&mut self, request: serde_json::Value) -> serde_json::Value {
            self.send_raw(serde_json::to_string(&request).unwrap().as_bytes());
            self.recv()
        }
    }

    /// The success line built as one string, the document copied into
    /// the envelope: the reference for a [`Reply`]'s bytes.
    fn joined_ok_response(id: &serde_json::Value, request_id: &str, result: &str) -> String {
        let mut line = String::with_capacity(result.len() + 64);
        let mut w = serde_json::Writer::compact(&mut line);
        let mut envelope = w.object();
        envelope.field("id", id);
        envelope.field("request_id", request_id);
        envelope.field("ok", &true);
        envelope.key("result").raw(result);
        envelope.end();
        line.push('\n');
        line
    }

    /// A writer that takes at most three bytes per call, as a full
    /// socket buffer might.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(3);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// `reply`'s bytes as a byte sink, a trickling writer and a socket
    /// receive them.
    fn sent_three_ways(reply: &Reply<'_>) -> [String; 3] {
        let mut sent = Vec::new();
        reply.send(&mut sent).unwrap();
        let mut trickled = Trickle(Vec::new());
        reply.send(&mut trickled).unwrap();
        // A socket pair, drained by a thread: `writev` there takes at most
        // `IOV_MAX` slices per call and writes what the buffer holds.
        let (mut near, mut far) = std::os::unix::net::UnixStream::pair().unwrap();
        let drain = std::thread::spawn(move || {
            let mut got = Vec::new();
            far.read_to_end(&mut got).unwrap();
            got
        });
        reply.send(&mut near).unwrap();
        drop(near);
        let socket = drain.join().unwrap();
        [sent, trickled.0, socket].map(|bytes| String::from_utf8(bytes).unwrap())
    }

    #[test]
    fn a_reply_sends_the_bytes_of_the_joined_line() {
        // A document in more pieces than one `writev` takes.
        let runs: Vec<Arc<str>> = (0..1100)
            .map(|i| Arc::from(format!(",{{\"name\":\"f{i}.c\"}}")))
            .collect();
        let many = Text {
            head: r#"{"files":[{"name":"first.c"}"#.to_string(),
            runs,
            tail: "]}".to_string(),
        };
        let cases = [
            (
                serde_json::json!(7),
                "r000001",
                Text::from(r#"{"pong":true}"#.to_string()),
            ),
            (
                serde_json::json!("a \"quoted\"\n\u{1}id é"),
                "client\\id",
                Text::from(r#"{"findings":[],"files":[{"name":"m.c"}]}"#.to_string()),
            ),
            (serde_json::json!(null), "r3", many),
        ];
        for (id, request_id, result) in cases {
            let expected = joined_ok_response(&id, request_id, &result.joined());
            let reply = ok_response(&id, request_id, &result);
            for sent in sent_three_ways(&reply) {
                assert_eq!(sent, expected);
            }
        }
        let error = error_response(&serde_json::json!(null), "r2", "busy", "try later");
        for line in sent_three_ways(&error) {
            assert!(
                line.ends_with("}\n") && line.matches('\n').count() == 1,
                "{line}"
            );
            assert_eq!(line, error.head);
        }
    }

    #[test]
    fn ping_analyze_and_unknown_method_roundtrip() {
        let dir = corpus("roundtrip");
        let server = start(&dir);
        let mut client = Client::connect(server.addr());
        let pong = client.call(serde_json::json!({"id": 1, "method": "ping"}));
        assert_eq!(pong["ok"], true);
        assert_eq!(pong["id"], 1);
        assert_eq!(pong["result"]["pong"], true);
        let report = client.call(serde_json::json!({"id": "a", "method": "analyze"}));
        assert_eq!(report["ok"], true, "{report}");
        assert_eq!(report["id"], "a");
        assert_eq!(
            report["result"]["schema_version"],
            crate::json::SCHEMA_VERSION
        );
        let err = client.call(serde_json::json!({"id": 2, "method": "frobnicate"}));
        assert_eq!(err["ok"], false);
        assert_eq!(err["error"]["code"], "unknown_method");
        // The connection survives the error.
        let pong = client.call(serde_json::json!({"id": 3, "method": "ping"}));
        assert_eq!(pong["ok"], true);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_lines_get_structured_errors() {
        let dir = corpus("malformed");
        let server = start(&dir);
        let mut client = Client::connect(server.addr());
        client.send_raw(b"this is not json");
        let err = client.recv();
        assert_eq!(err["error"]["code"], "bad_request");
        assert!(err["id"].is_null());
        client.send_raw(&[0xff, 0xfe, 0x80]);
        let err = client.recv();
        assert_eq!(err["error"]["code"], "bad_request");
        client.send_raw(b"[1, 2, 3]");
        let err = client.recv();
        assert_eq!(err["error"]["code"], "bad_request");
        client.send_raw(b"{\"id\": 9}");
        let err = client.recv();
        assert_eq!(err["error"]["code"], "bad_request");
        assert_eq!(err["id"], 9);
        // Still serving after the garbage.
        let pong = client.call(serde_json::json!({"id": 4, "method": "ping"}));
        assert_eq!(pong["ok"], true);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_line_is_drained_and_rejected() {
        let dir = corpus("oversized");
        let server = start(&dir);
        let mut client = Client::connect(server.addr());
        let huge = vec![b'x'; MAX_REQUEST_BYTES + 64];
        client.send_raw(&huge);
        let err = client.recv();
        assert_eq!(err["error"]["code"], "oversized");
        // The oversized line was fully consumed: the next request parses.
        let pong = client.call(serde_json::json!({"id": 1, "method": "ping"}));
        assert_eq!(pong["ok"], true);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The body of an HTTP GET against a metrics endpoint.
    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response.split_once("\r\n\r\n").unwrap().1.to_string()
    }

    /// Both servers run on the one accept loop: shutting either down
    /// returns promptly while a client sits idle on a connection, and
    /// frees the port.
    fn assert_prompt_shutdown_frees_the_port(server: obs::Listener) {
        let addr = server.addr();
        let idle = TcpStream::connect(addr).unwrap();
        let t0 = Instant::now();
        server.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "{rebound:?}");
        drop(idle);
    }

    #[test]
    fn shutdown_method_stops_the_listener() {
        let dir = corpus("shutdown");
        let session = session_over(&dir);
        // Watch-only: a session behind just a metrics endpoint never
        // shows the connection gauge.
        session.current_run().unwrap();
        let metrics = obs::serve::serve("127.0.0.1:0", session.live()).unwrap();
        let body = http_get(metrics.addr(), "/metrics");
        assert!(body.contains("ofence_serve_runs_total 1"), "{body}");
        assert!(!body.contains("serve_connections_active"), "{body}");
        assert_prompt_shutdown_frees_the_port(metrics);

        // Daemon: the gauge counts live connections and returns to 0
        // once every client has gone.
        let server = serve("127.0.0.1:0", session.clone()).unwrap();
        let mut clients: Vec<Client> = (0..3).map(|_| Client::connect(server.addr())).collect();
        for client in &mut clients {
            let pong = client.call(serde_json::json!({"id": 1, "method": "ping"}));
            assert_eq!(pong["ok"], true);
        }
        let gauge = |n: u64| format!("ofence_serve_connections_active {n}\n");
        assert!(session.live().metrics_text().contains(&gauge(3)));
        drop(clients);
        let t0 = Instant::now();
        while !session.live().metrics_text().contains(&gauge(0)) {
            assert!(t0.elapsed() < Duration::from_secs(5), "gauge stuck above 0");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_prompt_shutdown_frees_the_port(server);

        // A client's `shutdown` request stops the listener: `wait`
        // returns.
        let server = serve("127.0.0.1:0", session).unwrap();
        let mut client = Client::connect(server.addr());
        let ack = client.call(serde_json::json!({"id": 1, "method": "shutdown"}));
        assert_eq!(ack["result"]["stopping"], true);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.wait();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("listener stops after a shutdown request");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_response_carries_a_request_id() {
        let dir = corpus("reqid");
        let server = start(&dir);
        let mut client = Client::connect(server.addr());
        // Server-assigned when absent — and distinct per request.
        let a = client.call(serde_json::json!({"id": 1, "method": "ping"}));
        let b = client.call(serde_json::json!({"id": 2, "method": "ping"}));
        let a_id = a["request_id"].as_str().unwrap().to_string();
        let b_id = b["request_id"].as_str().unwrap().to_string();
        assert!(!a_id.is_empty());
        assert_ne!(a_id, b_id);
        // Client-supplied ids are echoed verbatim.
        let c = client.call(serde_json::json!({
            "id": 3, "request_id": "ci-7", "method": "ping",
        }));
        assert_eq!(c["request_id"], "ci-7");
        // Errors carry one too — including unparseable lines.
        client.send_raw(b"not json at all");
        let err = client.recv();
        assert!(!err["request_id"].as_str().unwrap().is_empty(), "{err}");
        let err = client.call(serde_json::json!({"id": 4, "method": "nope"}));
        assert_eq!(err["error"]["code"], "unknown_method");
        assert!(!err["request_id"].as_str().unwrap().is_empty());
        // A bogus request_id is rejected, under a server-assigned id.
        let err = client.call(serde_json::json!({
            "id": 5, "request_id": 42, "method": "ping",
        }));
        assert_eq!(err["error"]["code"], "bad_request", "{err}");
        assert!(err["error"]["message"]
            .as_str()
            .unwrap()
            .contains("request_id"));
        let err = client.call(serde_json::json!({
            "id": 6, "request_id": "x".repeat(MAX_REQUEST_ID_CHARS + 1), "method": "ping",
        }));
        assert_eq!(err["error"]["code"], "bad_request", "{err}");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_method_returns_the_span_tree_of_a_prior_request() {
        let dir = corpus("trace");
        let session = session_over(&dir);
        let server = serve("127.0.0.1:0", session.clone()).unwrap();
        let mut client = Client::connect(server.addr());
        let report = client.call(serde_json::json!({
            "id": 1, "request_id": "want-this-trace", "method": "analyze",
        }));
        assert_eq!(report["ok"], true, "{report}");
        let trace = client.call(serde_json::json!({
            "id": 2, "method": "trace", "params": {"request_id": "want-this-trace"},
        }));
        assert_eq!(trace["ok"], true, "{trace}");
        let doc = &trace["result"];
        assert_eq!(doc["request_id"], "want-this-trace");
        assert_eq!(doc["method"], "analyze");
        assert_eq!(doc["outcome"], "ok");
        assert_eq!(doc["spans"][0]["name"], "request");
        // Unknown id → failed; missing param → bad_request.
        let err = client.call(serde_json::json!({
            "id": 3, "method": "trace", "params": {"request_id": "never-seen"},
        }));
        assert_eq!(err["error"]["code"], "failed", "{err}");
        let err = client.call(serde_json::json!({"id": 4, "method": "trace"}));
        assert_eq!(err["error"]["code"], "bad_request", "{err}");
        // `trace` is untracked, yet both error responses are counted.
        assert_eq!(session.live().counters()["serve_errors"], 2);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explain_requires_params() {
        let dir = corpus("params");
        let server = start(&dir);
        let mut client = Client::connect(server.addr());
        let err = client.call(serde_json::json!({"id": 1, "method": "explain"}));
        assert_eq!(err["error"]["code"], "bad_request");
        let ok = client.call(serde_json::json!({
            "id": 2,
            "method": "explain",
            "params": {"file": "m.c", "line": 2},
        }));
        assert_eq!(ok["ok"], true, "{ok}");
        assert!(ok["result"]["target"].is_object());
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
