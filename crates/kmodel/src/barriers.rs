//! The eight explicit barrier primitives — paper Table 1.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Kind of explicit memory barrier (paper Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BarrierKind {
    /// `smp_rmb()` — orders reads.
    Rmb,
    /// `smp_wmb()` — orders writes.
    Wmb,
    /// `smp_mb()` — orders reads and writes.
    Mb,
    /// `smp_store_mb(&a, v)` — write, then `smp_mb`.
    StoreMb,
    /// `smp_store_release(&a, v)` — `smp_mb`, then write.
    StoreRelease,
    /// `smp_load_acquire(&a)` — read, then `smp_mb`.
    LoadAcquire,
    /// `smp_mb__before_atomic()` — upgrades the following atomic to a barrier.
    BeforeAtomic,
    /// `smp_mb__after_atomic()` — upgrades the preceding atomic to a barrier.
    AfterAtomic,
}

/// A memory access performed *by the barrier primitive itself*
/// (`smp_store_release` writes its first argument, `smp_load_acquire`
/// reads it, `smp_store_mb` writes it).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ImpliedAccess {
    None,
    /// Writes arg 0; the write happens *before* the fence takes effect
    /// (`smp_store_mb`) — i.e. the access is on the "before" side.
    StoreBefore,
    /// Writes arg 0 *after* the fence (`smp_store_release`).
    StoreAfter,
    /// Reads arg 0 before the fence (`smp_load_acquire`).
    LoadBefore,
}

impl BarrierKind {
    /// Map a callee name to a barrier kind. This is the exhaustive Table 1
    /// list; nothing else is treated as an explicit barrier.
    pub fn from_call_name(name: &str) -> Option<BarrierKind> {
        Some(match name {
            "smp_rmb" => BarrierKind::Rmb,
            "smp_wmb" => BarrierKind::Wmb,
            "smp_mb" => BarrierKind::Mb,
            "smp_store_mb" => BarrierKind::StoreMb,
            "smp_store_release" => BarrierKind::StoreRelease,
            "smp_load_acquire" => BarrierKind::LoadAcquire,
            "smp_mb__before_atomic" => BarrierKind::BeforeAtomic,
            "smp_mb__after_atomic" => BarrierKind::AfterAtomic,
            _ => return None,
        })
    }

    /// The primitive's canonical name.
    pub fn name(self) -> &'static str {
        match self {
            BarrierKind::Rmb => "smp_rmb",
            BarrierKind::Wmb => "smp_wmb",
            BarrierKind::Mb => "smp_mb",
            BarrierKind::StoreMb => "smp_store_mb",
            BarrierKind::StoreRelease => "smp_store_release",
            BarrierKind::LoadAcquire => "smp_load_acquire",
            BarrierKind::BeforeAtomic => "smp_mb__before_atomic",
            BarrierKind::AfterAtomic => "smp_mb__after_atomic",
        }
    }

    /// One-line description, as in Table 1.
    pub fn description(self) -> &'static str {
        match self {
            BarrierKind::Rmb => "Orders reads",
            BarrierKind::Wmb => "Orders writes",
            BarrierKind::Mb => "Orders reads and writes",
            BarrierKind::StoreMb => "Write + smp_mb",
            BarrierKind::StoreRelease => "smp_mb + write",
            BarrierKind::LoadAcquire => "Read + smp_mb",
            BarrierKind::BeforeAtomic => "Barrier before atomic_*()",
            BarrierKind::AfterAtomic => "Barrier after atomic_*()",
        }
    }

    /// All eight kinds, Table 1 order.
    pub const ALL: [BarrierKind; 8] = [
        BarrierKind::Rmb,
        BarrierKind::Wmb,
        BarrierKind::Mb,
        BarrierKind::StoreMb,
        BarrierKind::StoreRelease,
        BarrierKind::LoadAcquire,
        BarrierKind::BeforeAtomic,
        BarrierKind::AfterAtomic,
    ];

    pub fn orders_reads(self) -> bool {
        !matches!(self, BarrierKind::Wmb)
    }

    pub fn orders_writes(self) -> bool {
        !matches!(self, BarrierKind::Rmb)
    }

    /// Is this barrier usable on the write (publisher) side of a pairing?
    /// The pairing algorithm treats these as "write barriers".
    pub fn is_write_side(self) -> bool {
        matches!(
            self,
            BarrierKind::Wmb
                | BarrierKind::StoreRelease
                | BarrierKind::StoreMb
                | BarrierKind::Mb
                | BarrierKind::BeforeAtomic
                | BarrierKind::AfterAtomic
        )
    }

    /// Is this barrier usable on the read (subscriber) side of a pairing?
    pub fn is_read_side(self) -> bool {
        matches!(
            self,
            BarrierKind::Rmb
                | BarrierKind::LoadAcquire
                | BarrierKind::Mb
                | BarrierKind::BeforeAtomic
                | BarrierKind::AfterAtomic
        ) || self == BarrierKind::StoreMb // smp_store_mb is a full mb: both sides
    }

    /// Memory access performed by the primitive itself on its first
    /// argument.
    pub fn implied_access(self) -> ImpliedAccess {
        match self {
            BarrierKind::StoreMb => ImpliedAccess::StoreBefore,
            BarrierKind::StoreRelease => ImpliedAccess::StoreAfter,
            BarrierKind::LoadAcquire => ImpliedAccess::LoadBefore,
            _ => ImpliedAccess::None,
        }
    }
}

impl fmt::Display for BarrierKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_roundtrip() {
        for kind in BarrierKind::ALL {
            assert_eq!(BarrierKind::from_call_name(kind.name()), Some(kind));
        }
        assert_eq!(BarrierKind::from_call_name("smp_mbx"), None);
        assert_eq!(BarrierKind::from_call_name("rmb"), None);
    }

    #[test]
    fn ordering_matrix() {
        assert!(BarrierKind::Rmb.orders_reads());
        assert!(!BarrierKind::Rmb.orders_writes());
        assert!(!BarrierKind::Wmb.orders_reads());
        assert!(BarrierKind::Wmb.orders_writes());
        assert!(BarrierKind::Mb.orders_reads());
        assert!(BarrierKind::Mb.orders_writes());
    }

    #[test]
    fn sides() {
        assert!(BarrierKind::Wmb.is_write_side());
        assert!(!BarrierKind::Wmb.is_read_side());
        assert!(BarrierKind::Rmb.is_read_side());
        assert!(!BarrierKind::Rmb.is_write_side());
        assert!(BarrierKind::Mb.is_write_side() && BarrierKind::Mb.is_read_side());
        assert!(BarrierKind::StoreRelease.is_write_side());
        assert!(BarrierKind::LoadAcquire.is_read_side());
    }

    #[test]
    fn implied_accesses() {
        assert_eq!(
            BarrierKind::StoreRelease.implied_access(),
            ImpliedAccess::StoreAfter
        );
        assert_eq!(
            BarrierKind::LoadAcquire.implied_access(),
            ImpliedAccess::LoadBefore
        );
        assert_eq!(BarrierKind::Wmb.implied_access(), ImpliedAccess::None);
    }
}
