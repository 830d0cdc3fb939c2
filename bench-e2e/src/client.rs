//! The load generator's side of the daemon protocol (one JSON request
//! per line, one response per line) and the checker that decides
//! whether an output is correct.

use crate::corpus::Reference;
use crate::procs::STUCK;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One timed request: from the first byte written to the newline read.
pub struct Reply {
    pub line: Vec<u8>,
    pub latency: Duration,
    /// Write to first response byte, and first byte to newline.
    pub ttfb: Duration,
    pub transfer: Duration,
}

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect with [`STUCK`] read/write timeouts: a request stuck that
    /// long fails (and is counted) instead of hanging the run.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_read_timeout(Some(STUCK))?;
        writer.set_write_timeout(Some(STUCK))?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    pub fn call(&mut self, request: &serde_json::Value) -> std::io::Result<Reply> {
        let mut line = serde_json::to_string(request).expect("request serializes");
        line.push('\n');
        let t0 = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        // Responses arrive strictly one per request, so nothing is left
        // buffered from the previous one: this waits for new bytes.
        self.reader.fill_buf()?;
        let first = Instant::now();
        let mut out = Vec::new();
        self.reader.read_until(b'\n', &mut out)?;
        let end = Instant::now();
        if out.last() != Some(&b'\n') {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(Reply {
            line: out,
            latency: end - t0,
            ttfb: first - t0,
            transfer: end - first,
        })
    }
}

/// A request the load generator can send, and what its answer must be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Analyze,
    Explain,
    Status,
}

impl Op {
    pub fn request(self, id: u64, request_id: &str, reference: &Reference) -> serde_json::Value {
        let (method, params) = match self {
            Op::Analyze => ("analyze", None),
            Op::Explain => (
                "explain",
                Some(serde_json::json!({
                    "file": reference.explain_file,
                    "line": reference.explain_line,
                })),
            ),
            Op::Status => ("status", None),
        };
        match params {
            Some(p) => serde_json::json!({
                "id": id, "request_id": request_id, "method": method, "params": p,
            }),
            None => serde_json::json!({ "id": id, "request_id": request_id, "method": method }),
        }
    }
}

/// Check one daemon response line against the reference. `Err` names
/// the first mismatch.
pub fn check_reply(op: Op, line: &[u8], reference: &Reference) -> Result<(), String> {
    let doc: serde_json::Value =
        serde_json::from_slice(line).map_err(|e| format!("response is not JSON: {e}"))?;
    if doc["ok"] != true {
        return Err(format!("error response: {}", doc["error"]));
    }
    let result = &doc["result"];
    match op {
        Op::Analyze => check_report(result, reference),
        Op::Explain if result["outcome"] == reference.explain_outcome => Ok(()),
        Op::Explain => Err(format!("explain outcome {}", result["outcome"])),
        Op::Status if result["counters"].is_object() => Ok(()),
        Op::Status => Err("status without counters".into()),
    }
}

/// A report document is correct when its findings' fingerprint multiset
/// equals the reference's.
pub fn check_report(doc: &serde_json::Value, reference: &Reference) -> Result<(), String> {
    match crate::corpus::fingerprints(doc) {
        Some(found) if found == reference.fingerprints => Ok(()),
        Some(found) => Err(format!(
            "{} findings, expected {}",
            found.len(),
            reference.fingerprints.len()
        )),
        None => Err("report without a findings array".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(fingerprints: &[&str]) -> Reference {
        Reference {
            fingerprints: fingerprints.iter().map(|s| s.to_string()).collect(),
            explain_file: "m.c".into(),
            explain_line: 3,
            explain_outcome: serde_json::json!({"Paired": {"weight": 1}}),
            bug_recall: 1.0,
            pairing_recall: 1.0,
        }
    }

    fn analyze_line(fingerprints: &[&str]) -> Vec<u8> {
        let findings: Vec<serde_json::Value> = fingerprints
            .iter()
            .map(|f| serde_json::json!({ "fingerprint": f }))
            .collect();
        let doc = serde_json::json!({"id": 1, "ok": true, "result": {"findings": findings}});
        serde_json::to_string(&doc).unwrap().into_bytes()
    }

    #[test]
    fn a_response_missing_one_finding_is_an_error() {
        let r = reference(&["a", "b", "b"]);
        assert!(check_reply(Op::Analyze, &analyze_line(&["b", "a", "b"]), &r).is_ok());
        // One copy of a duplicated finding dropped: still a mismatch.
        assert!(check_reply(Op::Analyze, &analyze_line(&["a", "b"]), &r).is_err());
        assert!(check_reply(Op::Analyze, &analyze_line(&["b", "b"]), &r).is_err());
        let err = br#"{"id": 1, "ok": false, "error": {"code": "failed"}}"#;
        assert!(check_reply(Op::Analyze, err, &r).is_err());
    }

    #[test]
    fn explain_and_status_answers_are_checked() {
        let r = reference(&[]);
        let ok = |result: serde_json::Value| {
            serde_json::to_string(&serde_json::json!({"ok": true, "result": result}))
                .unwrap()
                .into_bytes()
        };
        let explain = ok(serde_json::json!({"outcome": {"Paired": {"weight": 1}}}));
        assert!(check_reply(Op::Explain, &explain, &r).is_ok());
        let wrong = ok(serde_json::json!({"outcome": "UnpairedNoMatch"}));
        assert!(check_reply(Op::Explain, &wrong, &r).is_err());
        assert!(check_reply(Op::Status, &ok(serde_json::json!({"counters": {}})), &r).is_ok());
        assert!(check_reply(Op::Status, b"not json", &r).is_err());
    }
}
