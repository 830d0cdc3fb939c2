//! RCU primitives and their barrier semantics.
//!
//! The paper notes that beyond the ~2000 functions with explicit barriers,
//! over 6000 use kernel APIs that rely on barriers internally — RCU being
//! the main one. The publication side (`rcu_assign_pointer`) is literally
//! `smp_store_release`, and the consumption side (`rcu_dereference`)
//! provides dependency ordering that the analysis can treat as an
//! acquire-load: this maps RCU publish/subscribe onto the same pairing
//! machinery as explicit barriers.

use crate::barriers::BarrierKind;

/// Barrier-equivalent of an RCU call, if it has one.
///
/// * `rcu_assign_pointer(p, v)` — release store of `v` into `p`.
/// * `rcu_dereference(p)` (and variants) — dependency-ordered load,
///   modeled as an acquire load (strictly stronger, never misses a bug
///   the weaker ordering would allow).
pub fn rcu_barrier_equivalent(name: &str) -> Option<BarrierKind> {
    Some(match name {
        "rcu_assign_pointer" | "rcu_replace_pointer" => BarrierKind::StoreRelease,
        "rcu_dereference"
        | "rcu_dereference_check"
        | "rcu_dereference_protected"
        | "rcu_dereference_raw"
        | "srcu_dereference" => BarrierKind::LoadAcquire,
        _ => None?,
    })
}

/// RCU grace-period primitives with full memory-barrier semantics (they
/// bound barrier windows and make adjacent explicit barriers redundant).
pub fn has_rcu_full_barrier(name: &str) -> bool {
    matches!(
        name,
        "synchronize_rcu"
            | "synchronize_rcu_expedited"
            | "synchronize_srcu"
            | "rcu_barrier"
            | "call_rcu" // queues a callback; the API orders prior stores
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_is_release() {
        assert_eq!(
            rcu_barrier_equivalent("rcu_assign_pointer"),
            Some(BarrierKind::StoreRelease)
        );
    }

    #[test]
    fn dereference_is_acquire() {
        for name in [
            "rcu_dereference",
            "rcu_dereference_check",
            "srcu_dereference",
        ] {
            assert_eq!(rcu_barrier_equivalent(name), Some(BarrierKind::LoadAcquire));
        }
    }

    /// Read-side critical-section markers are NOT barriers (see Torvalds,
    /// "rcu_read_lock lost its compiler barrier", ref \[24\] of the paper).
    #[test]
    fn markers_are_not_barriers() {
        for name in [
            "rcu_read_lock",
            "rcu_read_unlock",
            "rcu_read_lock_sched",
            "rcu_read_unlock_sched",
        ] {
            assert_eq!(rcu_barrier_equivalent(name), None, "{name}");
            assert!(!has_rcu_full_barrier(name), "{name}");
        }
    }

    #[test]
    fn grace_periods_are_full_barriers() {
        assert!(has_rcu_full_barrier("synchronize_rcu"));
        assert!(has_rcu_full_barrier("rcu_barrier"));
        assert!(!has_rcu_full_barrier("rcu_dereference"));
    }
}
