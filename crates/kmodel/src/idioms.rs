//! Reader-side ordering idioms.
//!
//! The missing-barrier detector (ofence `missing` module) recognizes
//! readers that consume a publish/subscribe protocol *without* the read
//! fence the protocol requires. This module names the read fence such a
//! reader needs, given the write-side primitive it pairs with.

/// Suggest the fence for an unfenced guarded reader, given the name of
/// the writer-side barrier it should pair with.
///
/// `smp_store_release` writers get `smp_load_acquire` on the single
/// guard; everything else gets a plain `smp_rmb` between the guard and
/// the dependent loads.
pub fn suggested_fence_for_writer(writer_barrier: &str) -> &'static str {
    if writer_barrier.contains("store_release") || writer_barrier.contains("rcu_assign_pointer") {
        "smp_load_acquire"
    } else {
        "smp_rmb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fence_suggestion_tracks_writer() {
        assert_eq!(suggested_fence_for_writer("smp_wmb"), "smp_rmb");
        assert_eq!(
            suggested_fence_for_writer("smp_store_release"),
            "smp_load_acquire"
        );
    }
}
