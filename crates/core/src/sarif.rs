//! SARIF 2.1.0 export (`analyze --sarif-out FILE`).
//!
//! One `run` per analysis, one `result` per deviation, with the stable
//! content-based fingerprint carried as
//! `partialFingerprints["ofenceFingerprint/v1"]` — the key GitHub code
//! scanning and other SARIF consumers use to track a finding across
//! commits even when its line moves. Mapping details are documented in
//! `docs/SCHEMA.md`.

use crate::engine::AnalysisResult;
use crate::fingerprint::FindingRecord;

/// The `partialFingerprints` key carrying the ofence fingerprint. Keep
/// the literal in sync with [`FINGERPRINT_VERSION`] (asserted in tests).
pub const PARTIAL_FINGERPRINT_KEY: &str = "ofenceFingerprint/v1";

/// The SARIF spec version emitted.
pub const SARIF_VERSION: &str = "2.1.0";
/// Canonical schema URI for SARIF 2.1.0 documents.
pub const SARIF_SCHEMA: &str =
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json";

/// Every rule ofence can emit, with the short description SARIF viewers
/// show next to results. Order is stable (new rules append).
const RULES: &[(&str, &str)] = &[
    (
        "misplaced-access",
        "Memory access on the wrong side of a paired barrier",
    ),
    (
        "wrong-barrier-type",
        "Barrier kind does not match its pairing partner",
    ),
    (
        "repeated-read",
        "Shared variable re-read across a read barrier",
    ),
    (
        "unneeded-barrier",
        "Barrier ordering already provided by a callee",
    ),
    ("missing-once", "Shared access lacking READ_ONCE/WRITE_ONCE"),
    (
        "missing-barrier",
        "Reader lacking the fence its pairing writers have",
    ),
];

fn result_value(rec: &FindingRecord) -> serde_json::Value {
    let mut v = serde_json::json!({
        "ruleId": rec.rule,
        "level": "warning",
        "message": { "text": rec.message },
        "locations": [{
            "physicalLocation": {
                "artifactLocation": { "uri": rec.file },
                "region": {
                    "startLine": rec.line,
                    "startColumn": rec.column,
                },
            },
            "logicalLocations": [{
                "name": rec.function,
                "kind": "function",
            }],
        }],
        "partialFingerprints": {
            "ofenceFingerprint/v1": rec.fingerprint,
        },
    });
    // Inter-procedural provenance rides in `properties` so it never
    // perturbs partialFingerprints-based tracking across commits.
    if !rec.via_calls.is_empty() {
        if let serde_json::Value::Object(ref mut obj) = v {
            obj.insert(
                "properties".to_string(),
                serde_json::json!({ "viaCalls": rec.via_calls }),
            );
        }
    }
    v
}

/// Render an analysis result as a SARIF 2.1.0 document. Deviations (the
/// triage surface `analyze` reports and exits on) become `results`;
/// run-level provenance (run id, schema version) rides in
/// `runs[0].properties`.
pub fn to_sarif(result: &AnalysisResult) -> serde_json::Value {
    let rules: Vec<serde_json::Value> = RULES
        .iter()
        .map(|(id, desc)| {
            serde_json::json!({
                "id": id,
                "shortDescription": { "text": desc },
            })
        })
        .collect();
    let results: Vec<serde_json::Value> =
        result.deviation_records.iter().map(result_value).collect();
    serde_json::json!({
        "version": SARIF_VERSION,
        "$schema": SARIF_SCHEMA,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "ofence",
                    "version": env!("CARGO_PKG_VERSION"),
                    "informationUri": "https://example.invalid/ofence",
                    "rules": rules,
                },
            },
            "results": results,
            "properties": {
                "runId": result.run_id,
                "schemaVersion": crate::json::SCHEMA_VERSION,
            },
        }],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;
    use crate::engine::{Engine, SourceFile};
    use crate::fingerprint::FINGERPRINT_VERSION;

    fn buggy_result() -> AnalysisResult {
        Engine::new(AnalysisConfig::default()).analyze(&[SourceFile::new(
            "xprt.c",
            r#"struct rpc { int len; int recd; int out; };
void complete(struct rpc *req) {
    req->len = 4;
    smp_wmb();
    req->recd = 1;
}
void decode(struct rpc *req) {
    smp_rmb();
    if (!req->recd)
        return;
    req->out = req->len;
}
"#,
        )])
    }

    #[test]
    fn sarif_has_required_structure() {
        let r = buggy_result();
        assert!(!r.deviations.is_empty());
        let doc = to_sarif(&r);
        assert_eq!(doc["version"], SARIF_VERSION);
        assert!(doc["$schema"].as_str().unwrap().contains("2.1.0"));
        let driver = &doc["runs"][0]["tool"]["driver"];
        assert_eq!(driver["name"], "ofence");
        assert!(!driver["rules"].as_array().unwrap().is_empty());
        let results = doc["runs"][0]["results"].as_array().unwrap();
        assert_eq!(results.len(), r.deviations.len());
        for res in results {
            let fp = &res["partialFingerprints"]["ofenceFingerprint/v1"];
            assert_eq!(fp.as_str().unwrap().len(), 16);
            let region = &res["locations"][0]["physicalLocation"]["region"];
            assert!(region["startLine"].as_u64().unwrap() >= 1);
            assert!(region["startColumn"].as_u64().unwrap() >= 1);
            assert!(res["ruleId"].as_str().is_some());
        }
    }

    #[test]
    fn fingerprint_key_matches_version() {
        assert_eq!(
            PARTIAL_FINGERPRINT_KEY,
            format!("ofenceFingerprint/v{FINGERPRINT_VERSION}")
        );
    }

    #[test]
    fn sarif_rule_ids_resolve_to_declared_rules() {
        let doc = to_sarif(&buggy_result());
        let driver = &doc["runs"][0]["tool"]["driver"];
        let declared: Vec<&str> = driver["rules"]
            .as_array()
            .unwrap()
            .iter()
            .map(|r| r["id"].as_str().unwrap())
            .collect();
        for res in doc["runs"][0]["results"].as_array().unwrap() {
            assert!(declared.contains(&res["ruleId"].as_str().unwrap()));
        }
    }

    #[test]
    fn sarif_roundtrips_through_parser() {
        let doc = to_sarif(&buggy_result());
        let text = serde_json::to_string_pretty(&doc).unwrap();
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back["version"], SARIF_VERSION);
        assert_eq!(
            back["runs"][0]["results"].as_array().unwrap().len(),
            doc["runs"][0]["results"].as_array().unwrap().len()
        );
    }
}
