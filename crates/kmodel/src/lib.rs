//! # kmodel — a model of Linux kernel concurrency primitives
//!
//! Static knowledge about the kernel API that OFence consumes:
//!
//! * the eight explicit barrier primitives (paper Table 1),
//! * which atomic/bitop/wake-up functions carry barrier semantics
//!   (paper Table 2),
//! * the wake-up / IPC function list used for implicit-barrier detection
//!   (paper §4.2 "Special case: implicit barriers"),
//! * the `seqcount` API (paper §5.3, Listing 3),
//! * the `READ_ONCE`/`WRITE_ONCE` annotations (paper §7).
//!
//! Maintaining such lists is standard practice in kernel static analysis —
//! the paper compares it to allocation-function lists in use-after-free
//! checkers.
#![deny(unsafe_code)]

pub mod atomics;
pub mod barriers;
pub mod idioms;
pub mod locks;
pub mod once;
pub mod rcu;
pub mod seqcount;
pub mod wakeup;

pub use atomics::{classify_atomic, AtomicSemantics, BarrierStrength};
pub use barriers::{BarrierKind, ImpliedAccess};
pub use idioms::ReaderIdiom;
pub use once::OnceKind;
pub use seqcount::SeqcountOp;
pub use wakeup::is_wakeup_function;

/// What a given callee name means to the concurrency analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallSemantics {
    /// One of the eight explicit barrier primitives (Table 1).
    Barrier(BarrierKind),
    /// An atomic/bitop primitive, with or without barrier semantics
    /// (Table 2).
    Atomic(AtomicSemantics),
    /// A wake-up / IPC function; all of these imply a full barrier and act
    /// as an implicit read barrier for the woken thread.
    WakeUp,
    /// A `seqcount` API call, which expands to reads/writes + barriers.
    Seqcount(SeqcountOp),
    /// `READ_ONCE` / `WRITE_ONCE` compiler annotations.
    Once(OnceKind),
    /// Anything else.
    Plain,
}

/// Classify a callee name. This is the single entry point the analysis
/// uses to interpret function calls.
pub fn classify_call(name: &str) -> CallSemantics {
    if let Some(kind) = BarrierKind::from_call_name(name) {
        return CallSemantics::Barrier(kind);
    }
    // RCU publish/subscribe maps onto release/acquire barriers.
    if let Some(kind) = rcu::rcu_barrier_equivalent(name) {
        return CallSemantics::Barrier(kind);
    }
    if let Some(op) = SeqcountOp::from_call_name(name) {
        return CallSemantics::Seqcount(op);
    }
    if let Some(kind) = OnceKind::from_call_name(name) {
        return CallSemantics::Once(kind);
    }
    if wakeup::is_wakeup_function(name) {
        return CallSemantics::WakeUp;
    }
    if let Some(sem) = atomics::classify_atomic(name) {
        return CallSemantics::Atomic(sem);
    }
    if let Some(sem) = locks::classify_lock(name) {
        return CallSemantics::Atomic(sem);
    }
    // Grace-period primitives: full barrier semantics without being a
    // pairing-relevant barrier site themselves.
    if rcu::has_rcu_full_barrier(name) {
        return CallSemantics::Atomic(AtomicSemantics {
            strength: BarrierStrength::Full,
            writes: false,
            reads: false,
        });
    }
    CallSemantics::Plain
}

/// What a callee contributes to an inter-procedural *function summary*
/// (the unit the summary composition pass reasons about, as opposed to
/// the per-call classification of [`classify_call`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SummaryBarrier {
    /// No ordering semantics: the call is transparent to composition.
    None,
    /// An explicit barrier or seqcount primitive somewhere in the callee:
    /// composing past it would cross a bounding barrier, so the callee's
    /// accesses must NOT be merged into a caller's window.
    Explicit,
    /// Full-barrier semantics without being a pairable site (fully
    /// ordered atomics, wake-ups, RCU grace periods): recorded on the
    /// summary so callers know the callee self-orders, but safe to note
    /// without merging accesses across it.
    Full,
}

/// Summary-level classification of a call: how `name` affects the
/// [`SummaryBarrier`] of the function *containing* the call.
pub fn summary_barrier_of_call(name: &str) -> SummaryBarrier {
    match classify_call(name) {
        CallSemantics::Barrier(_) | CallSemantics::Seqcount(_) => SummaryBarrier::Explicit,
        CallSemantics::WakeUp => SummaryBarrier::Full,
        CallSemantics::Atomic(sem) if sem.strength == BarrierStrength::Full => SummaryBarrier::Full,
        _ => SummaryBarrier::None,
    }
}

impl SummaryBarrier {
    /// Combine two observations within one function: the strongest wins
    /// (`Explicit` > `Full` > `None`).
    pub fn join(self, other: SummaryBarrier) -> SummaryBarrier {
        use SummaryBarrier::*;
        match (self, other) {
            (Explicit, _) | (_, Explicit) => Explicit,
            (Full, _) | (_, Full) => Full,
            _ => None,
        }
    }

    /// May a caller merge this callee's accesses into its own barrier
    /// window? Only when no explicit barrier inside the callee would
    /// bound the window first.
    pub fn allows_composition(self) -> bool {
        !matches!(self, SummaryBarrier::Explicit)
    }
}

/// Does a call to `name` provide full memory-barrier semantics on its own
/// (so that an adjacent explicit barrier is redundant — paper §5.1)?
pub fn has_full_barrier_semantics(name: &str) -> bool {
    match classify_call(name) {
        CallSemantics::Barrier(k) => k.orders_reads() && k.orders_writes(),
        CallSemantics::Atomic(sem) => sem.strength == BarrierStrength::Full,
        CallSemantics::WakeUp => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_dispatch() {
        assert_eq!(
            classify_call("smp_wmb"),
            CallSemantics::Barrier(BarrierKind::Wmb)
        );
        assert_eq!(classify_call("wake_up_process"), CallSemantics::WakeUp);
        assert_eq!(
            classify_call("READ_ONCE"),
            CallSemantics::Once(OnceKind::Read)
        );
        assert_eq!(classify_call("memcpy"), CallSemantics::Plain);
        assert!(matches!(
            classify_call("read_seqcount_begin"),
            CallSemantics::Seqcount(_)
        ));
        assert!(matches!(
            classify_call("atomic_inc"),
            CallSemantics::Atomic(_)
        ));
    }

    #[test]
    fn table2_rows() {
        // Paper Table 2, row by row.
        assert!(!has_full_barrier_semantics("atomic_inc"));
        assert!(has_full_barrier_semantics("atomic_inc_and_test"));
        assert!(!has_full_barrier_semantics("set_bit"));
        assert!(has_full_barrier_semantics("test_and_set_bit"));
        assert!(has_full_barrier_semantics("wake_up_process"));
    }

    #[test]
    fn summary_barrier_classification() {
        assert_eq!(summary_barrier_of_call("smp_wmb"), SummaryBarrier::Explicit);
        assert_eq!(
            summary_barrier_of_call("write_seqcount_begin"),
            SummaryBarrier::Explicit
        );
        assert_eq!(
            summary_barrier_of_call("wake_up_process"),
            SummaryBarrier::Full
        );
        assert_eq!(
            summary_barrier_of_call("atomic_inc_and_test"),
            SummaryBarrier::Full
        );
        assert_eq!(summary_barrier_of_call("atomic_inc"), SummaryBarrier::None);
        assert_eq!(summary_barrier_of_call("memcpy"), SummaryBarrier::None);
    }

    #[test]
    fn summary_barrier_join_and_composition() {
        use SummaryBarrier::*;
        assert_eq!(None.join(Full), Full);
        assert_eq!(Full.join(Explicit), Explicit);
        assert_eq!(None.join(None), None);
        assert!(None.allows_composition());
        assert!(Full.allows_composition());
        assert!(!Explicit.allows_composition());
    }

    #[test]
    fn full_barrier_semantics_for_smp_mb() {
        assert!(has_full_barrier_semantics("smp_mb"));
        assert!(!has_full_barrier_semantics("smp_wmb"));
        assert!(!has_full_barrier_semantics("smp_rmb"));
    }
}
