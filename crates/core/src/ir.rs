//! Core data types of the OFence analysis.

use ckit::span::Span;
use kmodel::{BarrierKind, SeqcountOp};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The paper's `(typeof(struct), nameof(field))` tuple, the unit of
/// object identity used to match accesses across functions (§3).
///
/// Plain global variables (no enclosing struct) are represented with an
/// empty `strukt` — they are comparatively rare around barriers but the
/// seqcount pattern needs them.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SharedObject {
    pub strukt: String,
    pub field: String,
}

impl SharedObject {
    pub fn new(strukt: impl Into<String>, field: impl Into<String>) -> Self {
        SharedObject {
            strukt: strukt.into(),
            field: field.into(),
        }
    }

    pub fn global(name: impl Into<String>) -> Self {
        SharedObject {
            strukt: String::new(),
            field: name.into(),
        }
    }
}

impl fmt::Display for SharedObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.strukt.is_empty() {
            write!(f, "{}", self.field)
        } else {
            write!(f, "(struct {}, {})", self.strukt, self.field)
        }
    }
}

impl fmt::Debug for SharedObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Read or write.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum AccessKind {
    Read,
    Write,
}

/// Program-order side of an access relative to its barrier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Side {
    Before,
    After,
}

impl Side {
    pub fn flip(self) -> Side {
        match self {
            Side::Before => Side::After,
            Side::After => Side::Before,
        }
    }
}

/// One memory access found in the window around a barrier.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Access {
    pub object: SharedObject,
    pub kind: AccessKind,
    pub side: Side,
    /// Statement distance from the barrier (≥ 1; the barrier's own implied
    /// access has distance 1).
    pub distance: u32,
    /// Span of the access expression in its file.
    pub span: Span,
    /// Whether the access is wrapped in `READ_ONCE`/`WRITE_ONCE`.
    pub annotated: bool,
    /// Whether the access was found in a callee/caller rather than the
    /// barrier's own function.
    pub cross_function: bool,
    /// Call chain the inter-procedural summary pass walked to reach this
    /// access (outermost callee first), empty for direct and ±1-level
    /// accesses. Provenance only: excluded from finding fingerprints.
    /// Omitted when empty, so reports produced at `--ipa-depth=0` stay
    /// byte-identical to the pre-IPA schema.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub via_calls: Vec<String>,
}

/// Identifies a barrier site across the whole analyzed corpus.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct BarrierId(pub u32);

impl fmt::Display for BarrierId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// Location of a barrier: file + function + CFG node.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteRef {
    /// Index into the engine's file list.
    pub file: usize,
    /// File name (duplicated for self-contained reports).
    pub file_name: String,
    pub function: String,
    /// CFG node of the barrier statement.
    pub node: usize,
    pub span: Span,
    /// 1-based source line.
    pub line: u32,
}

/// A barrier occurrence with its surrounding accesses.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BarrierSite {
    pub id: BarrierId,
    pub kind: BarrierKind,
    /// Set when the barrier comes from a seqcount API call.
    pub seqcount: Option<SeqcountOp>,
    /// Set when the "barrier" is a fully-ordered atomic RMW promoted to a
    /// pairable site by [`crate::AnalysisConfig::pair_with_atomics`]; holds
    /// the callee name.
    pub from_atomic: Option<String>,
    pub site: SiteRef,
    /// All accesses in the exploration window, both sides.
    pub accesses: Vec<Access>,
    /// For seqcount barriers: the sequence-counter object the call
    /// accesses (groups the four barriers of the Figure 5 protocol).
    pub counter: Option<SharedObject>,
    /// Distance to the nearest following wake-up/IPC call within the
    /// window, if any (implicit-barrier detection, §4.2).
    pub wakeup_after: Option<u32>,
    /// Distance to the nearest *preceding* barrier-semantics call /
    /// barrier, and following one — used by the unneeded-barrier check
    /// (§5.1). `None` when nothing is adjacent.
    pub adjacent_full_barrier: Option<AdjacentBarrier>,
}

/// A barrier-semantics operation immediately adjacent to a barrier.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdjacentBarrier {
    pub side: Side,
    /// Callee name providing the barrier semantics.
    pub callee: String,
    pub span: Span,
}

impl BarrierSite {
    /// Is this usable as the write side of a pairing?
    pub fn is_write_barrier(&self) -> bool {
        match self.seqcount {
            Some(op) => op.writes_counter(),
            None => self.kind.is_write_side(),
        }
    }

    pub fn is_read_barrier(&self) -> bool {
        match self.seqcount {
            Some(op) => op.is_reader(),
            None => self.kind.is_read_side(),
        }
    }

    /// Distinct objects accessed around this barrier, with the minimum
    /// distance at which each is seen.
    pub fn objects(&self) -> Vec<(SharedObject, u32)> {
        let mut out: Vec<(SharedObject, u32)> = Vec::new();
        for a in &self.accesses {
            match out.iter_mut().find(|(o, _)| *o == a.object) {
                Some((_, d)) => *d = (*d).min(a.distance),
                None => out.push((a.object.clone(), a.distance)),
            }
        }
        out
    }

    /// Does this barrier order the two objects (one on each side)?
    pub fn orders(&self, o1: &SharedObject, o2: &SharedObject) -> bool {
        let sides = |o: &SharedObject| {
            let mut before = false;
            let mut after = false;
            for a in &self.accesses {
                if &a.object == o {
                    match a.side {
                        Side::Before => before = true,
                        Side::After => after = true,
                    }
                }
            }
            (before, after)
        };
        let (b1, a1) = sides(o1);
        let (b2, a2) = sides(o2);
        (b1 && a2) || (b2 && a1)
    }

    /// Minimum distance at which `obj` is accessed, if at all.
    pub fn distance_of(&self, obj: &SharedObject) -> Option<u32> {
        self.accesses
            .iter()
            .filter(|a| &a.object == obj)
            .map(|a| a.distance)
            .min()
    }

    /// Call chain through which `obj` is reached, when *every* access to
    /// it at this site is summary-derived (the object would be invisible
    /// without inter-procedural composition). Returns the shortest chain.
    pub fn via_of(&self, obj: &SharedObject) -> Option<&[String]> {
        let mut best: Option<&[String]> = None;
        for a in self.accesses.iter().filter(|a| &a.object == obj) {
            if a.via_calls.is_empty() {
                return None; // directly visible too — not summary-only
            }
            if best.is_none_or(|b| a.via_calls.len() < b.len()) {
                best = Some(&a.via_calls);
            }
        }
        best
    }
}

/// Why a pairing was formed (single textbook pair or a seqcount-style
/// multi-barrier group).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PairingShape {
    /// One write barrier with one read barrier (§5.2).
    Single,
    /// Writer paired with multiple readers/writers (§5.3, Figure 5).
    Multi,
}

/// A group of barriers inferred to run concurrently.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Pairing {
    /// The anchor write barrier (pairing is done from the write barrier's
    /// point of view, §4.2).
    pub writer: BarrierId,
    /// All members, including `writer`.
    pub members: Vec<BarrierId>,
    /// The shared objects the pairing was matched on.
    pub objects: Vec<SharedObject>,
    /// Product-of-distances weight (lower = closer = more confident).
    pub weight: u64,
    pub shape: PairingShape,
}

/// Why a barrier ended up unpaired.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnpairedReason {
    /// Followed by a wake-up/IPC call that acts as the implicit read
    /// barrier (§4.2) — intentionally left unpaired.
    ImplicitIpc,
    /// No barrier shares ≥ 2 ordered objects.
    NoMatch,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site_with(accesses: Vec<Access>) -> BarrierSite {
        BarrierSite {
            id: BarrierId(0),
            kind: BarrierKind::Wmb,
            seqcount: None,
            from_atomic: None,
            site: SiteRef {
                file: 0,
                file_name: "t.c".into(),
                function: "f".into(),
                node: 0,
                span: Span::DUMMY,
                line: 1,
            },
            accesses,
            counter: None,
            wakeup_after: None,
            adjacent_full_barrier: None,
        }
    }

    fn acc(strukt: &str, field: &str, kind: AccessKind, side: Side, distance: u32) -> Access {
        Access {
            object: SharedObject::new(strukt, field),
            kind,
            side,
            distance,
            span: Span::DUMMY,
            annotated: false,
            cross_function: false,
            via_calls: Vec::new(),
        }
    }

    #[test]
    fn objects_dedup_min_distance() {
        let site = site_with(vec![
            acc("s", "x", AccessKind::Write, Side::Before, 3),
            acc("s", "x", AccessKind::Read, Side::After, 1),
            acc("s", "y", AccessKind::Write, Side::Before, 2),
        ]);
        let objs = site.objects();
        assert_eq!(objs.len(), 2);
        assert_eq!(objs[0], (SharedObject::new("s", "x"), 1));
    }

    #[test]
    fn orders_requires_opposite_sides() {
        let site = site_with(vec![
            acc("s", "x", AccessKind::Write, Side::Before, 1),
            acc("s", "y", AccessKind::Write, Side::After, 1),
        ]);
        assert!(site.orders(&SharedObject::new("s", "x"), &SharedObject::new("s", "y")));

        let same_side = site_with(vec![
            acc("s", "x", AccessKind::Write, Side::Before, 1),
            acc("s", "y", AccessKind::Write, Side::Before, 2),
        ]);
        assert!(!same_side.orders(&SharedObject::new("s", "x"), &SharedObject::new("s", "y")));
    }

    #[test]
    fn via_of_reports_summary_only_objects() {
        let mut deep = acc("s", "x", AccessKind::Read, Side::After, 2);
        deep.via_calls = vec!["outer".into(), "inner".into()];
        let mut shallow = acc("s", "x", AccessKind::Read, Side::After, 3);
        shallow.via_calls = vec!["outer".into()];
        let direct = acc("s", "y", AccessKind::Write, Side::Before, 1);

        // x reached only through calls: shortest chain wins.
        let site = site_with(vec![deep.clone(), shallow, direct.clone()]);
        assert_eq!(
            site.via_of(&SharedObject::new("s", "x")),
            Some(&["outer".to_string()][..])
        );
        // y is direct: no chain.
        assert_eq!(site.via_of(&SharedObject::new("s", "y")), None);
        // A direct access to x anywhere at the site disables the chain.
        let mixed = site_with(vec![deep, acc("s", "x", AccessKind::Read, Side::After, 1)]);
        assert_eq!(mixed.via_of(&SharedObject::new("s", "x")), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            SharedObject::new("req", "len").to_string(),
            "(struct req, len)"
        );
        assert_eq!(SharedObject::global("jiffies").to_string(), "jiffies");
    }

    #[test]
    fn side_flip() {
        assert_eq!(Side::Before.flip(), Side::After);
        assert_eq!(Side::After.flip(), Side::Before);
    }
}
