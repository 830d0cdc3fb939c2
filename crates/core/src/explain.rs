//! Pairing-decision explainability — replay Algorithm 1 for one barrier.
//!
//! `ofence explain <file:line>` needs to answer "why did this barrier
//! pair with *that* one" (or "why is it unpaired") without the user
//! reading the pairing code. This module reconstructs, for a single
//! target site, the candidate set the pairing pass evaluated: every
//! other barrier sharing at least one object, the shared-object overlap,
//! the distance-product weight of the best ordered object pair, and a
//! per-candidate verdict. The final outcome is taken from a real
//! [`crate::pairing::pair_barriers`] run, so the explanation can never
//! disagree with the analysis.

use crate::config::AnalysisConfig;
use crate::engine::AnalysisResult;
use crate::ir::*;
use crate::pairing::PairingResult;
use crate::session::name_matches;
use serde::{Deserialize, Serialize};

/// A compact, self-contained description of one barrier site.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SiteSummary {
    pub id: u32,
    pub kind: String,
    pub file: String,
    pub function: String,
    pub line: u32,
    pub is_write_barrier: bool,
    /// Objects in the exploration window as `struct.field` with the
    /// minimum distance each is seen at.
    pub objects: Vec<(String, u32)>,
    /// For objects only visible through the inter-procedural summary
    /// pass: `object label -> rendered call chain` (the callees walked
    /// from this site's function to reach the access, e.g.
    /// `"fill() → deep_fill()"`). Empty below `--ipa-depth 1`, and then
    /// omitted, so explain output at depth 0 stays byte-identical to
    /// pre-IPA reports.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub via_chains: Vec<(String, String)>,
}

/// Compact `struct.field` label (or the bare name for globals).
fn obj_label(o: &SharedObject) -> String {
    if o.strukt.is_empty() {
        o.field.clone()
    } else {
        format!("{}.{}", o.strukt, o.field)
    }
}

fn summarize(s: &BarrierSite) -> SiteSummary {
    SiteSummary {
        id: s.id.0,
        kind: match &s.from_atomic {
            Some(callee) => format!("{callee} (promoted atomic)"),
            None => s.kind.name().to_string(),
        },
        file: s.site.file_name.clone(),
        function: s.site.function.clone(),
        line: s.site.line,
        is_write_barrier: s.is_write_barrier(),
        objects: s
            .objects()
            .iter()
            .map(|(o, d)| (obj_label(o), *d))
            .collect(),
        via_chains: s
            .objects()
            .iter()
            .filter_map(|(o, _)| {
                s.via_of(o).map(|chain| {
                    let rendered = chain
                        .iter()
                        .map(|f| format!("{f}()"))
                        .collect::<Vec<_>>()
                        .join(" → ");
                    (obj_label(o), rendered)
                })
            })
            .collect(),
    }
}

/// Why a candidate did or did not become the target's partner.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// In the same pairing as the target.
    Won,
    /// Same function and file — pairing infers concurrency *between*
    /// functions, so these never base-pair (they can still join later
    /// via the multi-pairing extension).
    SameFunction,
    /// Fewer than the configured minimum shared objects.
    TooFewSharedObjects,
    /// Shares enough objects but no object pair is ordered (one object
    /// before, the other after) by either barrier.
    NotOrdered,
    /// Neither side is a write barrier; base pairing is anchored on
    /// write barriers.
    NoWriteAnchor,
    /// Eligible, but a candidate with a lower distance-product weight
    /// won the target.
    WorseWeight,
    /// Eligible, but lost the per-barrier arbitration (the candidate or
    /// the target ended up in a lower-weight pairing elsewhere).
    LostArbitration,
    /// Eligible, but the target is followed by a wake-up/IPC call closer
    /// than the pairing objects — the barrier orders the wake-up, not
    /// this candidate (§4.2).
    PreemptedByWakeup,
}

impl Verdict {
    fn describe(&self) -> &'static str {
        match self {
            Verdict::Won => "paired with the target",
            Verdict::SameFunction => "rejected: same function (no concurrency inferred)",
            Verdict::TooFewSharedObjects => "rejected: fewer than min shared objects",
            Verdict::NotOrdered => "rejected: no object pair ordered by either barrier",
            Verdict::NoWriteAnchor => "rejected: neither barrier is a write anchor",
            Verdict::WorseWeight => "lost: a closer candidate (lower weight) won",
            Verdict::LostArbitration => "lost arbitration: a lower-weight pairing won elsewhere",
            Verdict::PreemptedByWakeup => {
                "preempted: a wake-up/IPC call acts as the implicit read barrier"
            }
        }
    }
}

/// One evaluated candidate partner.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CandidateRow {
    pub partner: SiteSummary,
    /// Objects both barriers access, as `struct.field`.
    pub shared_objects: Vec<String>,
    /// The lowest-weight ordered object pair between the two sites, as
    /// `(object, target distance, partner distance)` per object, and the
    /// resulting product weight. `None` when no ordered pair exists.
    pub best_pair: Option<BestPair>,
    pub verdict: Verdict,
}

/// The winning object pair of one candidate evaluation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BestPair {
    pub objects: (String, String),
    pub target_distances: (u32, u32),
    pub partner_distances: (u32, u32),
    /// Product of the four distances (lower = closer = more confident).
    /// With `distance_weighting` off this is forced to 1 by the pairing
    /// pass, but the explainer always shows the real product.
    pub weight: u64,
}

/// Final state of the target in the actual pairing result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Outcome {
    Paired {
        members: Vec<SiteSummary>,
        objects: Vec<String>,
        weight: u64,
        multi: bool,
    },
    /// Intentionally unpaired: a wake-up/IPC call within the window acts
    /// as the implicit read barrier (§4.2).
    UnpairedImplicitIpc {
        wakeup_distance: u32,
    },
    UnpairedNoMatch,
}

/// Full replay of the pairing decision for one barrier.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Explanation {
    pub target: SiteSummary,
    /// Every other site sharing at least one object, sorted by weight
    /// (eligible candidates first).
    pub candidates: Vec<CandidateRow>,
    /// Sites sharing no object at all (count only; they were never
    /// candidates).
    pub sites_without_overlap: usize,
    pub outcome: Outcome,
}

/// Explain the barrier at `file:line` of a finished run — the one lookup
/// behind `ofence explain` and the daemon's `explain` method. `file` may
/// be a path suffix or extend the corpus name ([`name_matches`]). A line
/// with no barrier is an error that lists the file's barriers.
pub fn explain_at(
    result: &AnalysisResult,
    config: &AnalysisConfig,
    file: &str,
    line: u32,
) -> Result<Explanation, String> {
    let in_file = |s: &&BarrierSite| name_matches(&s.site.file_name, file);
    let Some(site) = result
        .sites
        .iter()
        .filter(in_file)
        .find(|s| s.site.line == line)
    else {
        let mut lines: Vec<String> = result
            .sites
            .iter()
            .filter(in_file)
            .map(|s| format!("{}:{} ({})", s.site.file_name, s.site.line, s.kind.name()))
            .collect();
        lines.sort();
        return Err(if lines.is_empty() {
            format!("no barrier found in `{file}`")
        } else {
            format!(
                "no barrier at {file}:{line}; barriers in that file:\n  {}",
                lines.join("\n  ")
            )
        });
    };
    Ok(
        explain_site_with(&result.sites, &result.pairing, config, site.id)
            .expect("site id comes from this result"),
    )
}

/// Explain the pairing decision for `target` against the run's pairing
/// result, so the explanation can never disagree with the analysis.
pub fn explain_site_with(
    sites: &[BarrierSite],
    pairing: &PairingResult,
    config: &AnalysisConfig,
    target: BarrierId,
) -> Option<Explanation> {
    let t = sites.get(target.0 as usize)?;
    let t_objects = t.objects();
    let my_pairing = pairing.pairing_of(target);
    let implicit_ipc = pairing
        .unpaired
        .iter()
        .any(|(id, r)| *id == target && *r == UnpairedReason::ImplicitIpc);

    let mut candidates: Vec<CandidateRow> = Vec::new();
    let mut no_overlap = 0usize;
    for p in sites {
        if p.id == target {
            continue;
        }
        let p_objects = p.objects();
        let shared: Vec<(SharedObject, u32, u32)> = t_objects
            .iter()
            .filter_map(|(o, td)| {
                p_objects
                    .iter()
                    .find(|(po, _)| po == o)
                    .map(|(_, pd)| (o.clone(), *td, *pd))
            })
            .collect();
        if shared.is_empty() {
            no_overlap += 1;
            continue;
        }
        // Best ordered object pair between the two sites: minimum product
        // of the four distances over pairs ordered by either barrier.
        let mut best: Option<BestPair> = None;
        let mut any_pair = false;
        for (i, (o1, td1, pd1)) in shared.iter().enumerate() {
            for (o2, td2, pd2) in shared.iter().skip(i + 1) {
                any_pair = true;
                if !(t.orders(o1, o2) || p.orders(o1, o2)) {
                    continue;
                }
                let weight = u64::from(*td1) * u64::from(*td2) * u64::from(*pd1) * u64::from(*pd2);
                if best.as_ref().is_none_or(|b| weight < b.weight) {
                    best = Some(BestPair {
                        objects: (obj_label(o1), obj_label(o2)),
                        target_distances: (*td1, *td2),
                        partner_distances: (*pd1, *pd2),
                        weight,
                    });
                }
            }
        }
        let in_my_pairing = my_pairing.is_some_and(|mp| mp.members.contains(&p.id));
        let verdict = if in_my_pairing {
            Verdict::Won
        } else if p.site.function == t.site.function && p.site.file == t.site.file {
            Verdict::SameFunction
        } else if shared.len() < config.min_shared_objects {
            Verdict::TooFewSharedObjects
        } else if !any_pair || best.is_none() {
            Verdict::NotOrdered
        } else if !t.is_write_barrier() && !p.is_write_barrier() {
            Verdict::NoWriteAnchor
        } else if my_pairing.is_some() {
            Verdict::WorseWeight
        } else if implicit_ipc {
            Verdict::PreemptedByWakeup
        } else {
            Verdict::LostArbitration
        };
        candidates.push(CandidateRow {
            partner: summarize(p),
            shared_objects: shared.iter().map(|(o, _, _)| obj_label(o)).collect(),
            best_pair: best,
            verdict,
        });
    }
    // Winners first, then eligible losers by weight, then rejects.
    candidates.sort_by_key(|c| {
        (
            c.verdict != Verdict::Won,
            c.best_pair.is_none(),
            c.best_pair.as_ref().map(|b| b.weight).unwrap_or(u64::MAX),
            c.partner.id,
        )
    });

    let outcome = match my_pairing {
        Some(mp) => Outcome::Paired {
            members: mp
                .members
                .iter()
                .filter_map(|&m| sites.get(m.0 as usize))
                .map(summarize)
                .collect(),
            objects: mp.objects.iter().map(obj_label).collect(),
            weight: mp.weight,
            multi: mp.shape == PairingShape::Multi,
        },
        None => {
            if implicit_ipc {
                Outcome::UnpairedImplicitIpc {
                    wakeup_distance: t.wakeup_after.unwrap_or(0),
                }
            } else {
                Outcome::UnpairedNoMatch
            }
        }
    };

    Some(Explanation {
        target: summarize(t),
        candidates,
        sites_without_overlap: no_overlap,
        outcome,
    })
}

impl Explanation {
    /// Human-readable report, one screen per decision.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let t = &self.target;
        out.push_str(&format!(
            "barrier #{}: {} at {}:{} in {}() [{} barrier]\n",
            t.id,
            t.kind,
            t.file,
            t.line,
            t.function,
            if t.is_write_barrier { "write" } else { "read" }
        ));
        out.push_str("objects in window:\n");
        for (o, d) in &t.objects {
            match t.via_chains.iter().find(|(vo, _)| vo == o) {
                Some((_, chain)) => out.push_str(&format!(
                    "  {o} (distance {d}) via {}() → {chain}\n",
                    t.function
                )),
                None => out.push_str(&format!("  {o} (distance {d})\n")),
            }
        }
        out.push_str(&format!(
            "\ncandidates ({} evaluated, {} sites shared no object):\n",
            self.candidates.len(),
            self.sites_without_overlap
        ));
        if self.candidates.is_empty() {
            out.push_str("  (none)\n");
        }
        for c in &self.candidates {
            let p = &c.partner;
            out.push_str(&format!(
                "  #{} {} at {}:{} in {}()\n",
                p.id, p.kind, p.file, p.line, p.function
            ));
            out.push_str(&format!(
                "    shared objects: {}\n",
                c.shared_objects.join(", ")
            ));
            for (o, chain) in &p.via_chains {
                if c.shared_objects.contains(o) {
                    out.push_str(&format!("    {o} via {}() → {chain}\n", p.function));
                }
            }
            if let Some(b) = &c.best_pair {
                out.push_str(&format!(
                    "    best ordered pair: ({}, {}) weight {} = {}x{} (target) * {}x{} (candidate)\n",
                    b.objects.0,
                    b.objects.1,
                    b.weight,
                    b.target_distances.0,
                    b.target_distances.1,
                    b.partner_distances.0,
                    b.partner_distances.1,
                ));
            }
            out.push_str(&format!("    verdict: {}\n", c.verdict.describe()));
        }
        out.push('\n');
        match &self.outcome {
            Outcome::Paired {
                members,
                objects,
                weight,
                multi,
            } => {
                out.push_str(&format!(
                    "outcome: PAIRED ({}, weight {}) on {}\n",
                    if *multi {
                        "multi-barrier group"
                    } else {
                        "single pair"
                    },
                    weight,
                    objects.join(", ")
                ));
                out.push_str("members:\n");
                for m in members {
                    let marker = if m.id == t.id { " <- target" } else { "" };
                    out.push_str(&format!(
                        "  #{} {} at {}:{} in {}(){}\n",
                        m.id, m.kind, m.file, m.line, m.function, marker
                    ));
                }
            }
            Outcome::UnpairedImplicitIpc { wakeup_distance } => {
                out.push_str(&format!(
                    "outcome: UNPAIRED (implicit read barrier: wake-up/IPC call {wakeup_distance} statement(s) after the barrier orders it instead of a reader)\n"
                ));
            }
            Outcome::UnpairedNoMatch => {
                out.push_str("outcome: UNPAIRED (no candidate shares >= 2 ordered objects)\n");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::pair_barriers;
    use crate::sites::analyze_file;

    /// One file's sites, numbered, and their pairing — what a run holds.
    fn sites_of(src: &str, config: &AnalysisConfig) -> (Vec<BarrierSite>, PairingResult) {
        let parsed = ckit::parse_string("t.c", src).unwrap();
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        let mut fa = analyze_file(0, &parsed, config);
        for (i, s) in fa.sites.iter_mut().enumerate() {
            s.id = BarrierId(i as u32);
        }
        let pairing = pair_barriers(&fa.sites, config);
        (fa.sites, pairing)
    }

    const LISTING1: &str = r#"
struct my_struct { int init; int y; };
void reader(struct my_struct *a) {
    if (!a->init)
        return;
    smp_rmb();
    f(a->y);
}
void writer(struct my_struct *b) {
    b->y = 1;
    smp_wmb();
    b->init = 1;
}
"#;

    #[test]
    fn paired_barrier_explains_winner() {
        let config = AnalysisConfig::default();
        let (sites, pairing) = sites_of(LISTING1, &config);
        let wmb = sites.iter().find(|s| s.is_write_barrier()).unwrap().id;
        let e = explain_site_with(&sites, &pairing, &config, wmb).unwrap();
        assert!(e.target.is_write_barrier);
        assert_eq!(e.candidates.len(), 1);
        assert_eq!(e.candidates[0].verdict, Verdict::Won);
        let b = e.candidates[0].best_pair.as_ref().unwrap();
        assert!(b.weight > 0);
        assert!(matches!(e.outcome, Outcome::Paired { .. }));
        let text = e.render();
        assert!(text.contains("PAIRED"), "{text}");
        assert!(text.contains("weight"), "{text}");
        assert!(text.contains("my_struct.init"), "{text}");
    }

    #[test]
    fn closer_candidate_beats_farther_one() {
        let src = r#"
struct s { int flag; int data; };
void reader_far(struct s *p) {
    if (!p->flag)
        return;
    smp_rmb();
    g(1);
    g(2);
    g(3);
    g(p->data);
}
void reader_near(struct s *p) {
    if (!p->flag)
        return;
    smp_rmb();
    g(p->data);
}
void writer(struct s *p) {
    p->data = 1;
    smp_wmb();
    p->flag = 1;
}
"#;
        let config = AnalysisConfig::default();
        let (sites, pairing) = sites_of(src, &config);
        let wmb = sites.iter().find(|s| s.is_write_barrier()).unwrap().id;
        let e = explain_site_with(&sites, &pairing, &config, wmb).unwrap();
        // Both readers share both objects; the near one pairs (the far one
        // may still join via the multi extension — but its base weight is
        // higher).
        let near = e
            .candidates
            .iter()
            .find(|c| c.partner.function == "reader_near")
            .unwrap();
        let far = e
            .candidates
            .iter()
            .find(|c| c.partner.function == "reader_far")
            .unwrap();
        assert_eq!(near.verdict, Verdict::Won);
        let nw = near.best_pair.as_ref().unwrap().weight;
        let fw = far.best_pair.as_ref().unwrap().weight;
        assert!(nw < fw, "near {nw} < far {fw}");
    }

    #[test]
    fn implicit_ipc_explained() {
        let src = r#"
struct d { int token; int extra; struct task *t; };
void waker(struct d *p) {
    p->token = 1;
    p->extra = 2;
    smp_wmb();
    wake_up_process(p->t);
}
void reader(struct d *p) {
    if (!p->token)
        return;
    smp_rmb();
    g(p->extra);
}
"#;
        let config = AnalysisConfig::default();
        let (sites, pairing) = sites_of(src, &config);
        let wmb = sites
            .iter()
            .find(|s| s.site.function == "waker")
            .unwrap()
            .id;
        let e = explain_site_with(&sites, &pairing, &config, wmb).unwrap();
        assert!(
            matches!(e.outcome, Outcome::UnpairedImplicitIpc { .. }),
            "{e:?}"
        );
        assert!(e.render().contains("implicit read barrier"));
    }

    #[test]
    fn unpaired_no_match_explained() {
        let src = r#"
struct a { int x; int y; };
void writer(struct a *p) {
    p->x = 1;
    smp_wmb();
    p->y = 2;
}
"#;
        let config = AnalysisConfig::default();
        let (sites, pairing) = sites_of(src, &config);
        let e = explain_site_with(&sites, &pairing, &config, sites[0].id).unwrap();
        assert!(matches!(e.outcome, Outcome::UnpairedNoMatch), "{e:?}");
        assert!(e.render().contains("UNPAIRED"));
    }

    #[test]
    fn same_function_candidates_marked() {
        let src = r#"
struct s { int a; int b; };
void f(struct s *p) {
    p->a = 1;
    smp_wmb();
    p->b = 2;
    smp_wmb();
    p->a = 3;
}
"#;
        let config = AnalysisConfig::default();
        let (sites, pairing) = sites_of(src, &config);
        let e = explain_site_with(&sites, &pairing, &config, sites[0].id).unwrap();
        assert_eq!(e.candidates.len(), 1);
        assert_eq!(e.candidates[0].verdict, Verdict::SameFunction);
    }

    #[test]
    fn explanation_serializes() {
        let config = AnalysisConfig::default();
        let (sites, pairing) = sites_of(LISTING1, &config);
        let e = explain_site_with(&sites, &pairing, &config, sites[0].id).unwrap();
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.contains("\"outcome\""), "{json}");
        let back: Explanation = serde_json::from_str(&json).unwrap();
        assert_eq!(back.target.id, e.target.id);
    }
}
