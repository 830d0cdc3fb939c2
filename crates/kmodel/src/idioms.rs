//! Reader-side ordering idioms.
//!
//! The missing-barrier detector (ofence `missing` module) recognizes
//! readers that consume a publish/subscribe protocol *without* the read
//! fence the protocol requires. This table names the idioms it matches
//! and the write-side primitive each one pairs with, mirroring the style of
//! kernel code the paper analyzed (init-flag publication, ring-buffer
//! index handshakes, pointer publication via release stores).

/// A recognized reader-side idiom that requires read ordering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReaderIdiom {
    /// `if (!obj->ready) return; ... use obj->payload ...` — a flag
    /// guards initialized data (paper Listing 1).
    InitFlag,
    /// `while (tail != obj->head) { use obj->buf[tail]; }` — an index
    /// comparison guards buffer slots (circular buffers).
    IndexGuard,
    /// `p = obj->ptr; if (p) { use p->field; }` — a published pointer
    /// guards the structure it points to (RCU-style publication).
    PublishedPointer,
    /// `do { s = read_seqcount_begin(..); ... } while (retry)` — a
    /// sequence counter brackets a read section (paper §5.3).
    SeqcountSection,
}

impl ReaderIdiom {
    pub const ALL: [ReaderIdiom; 4] = [
        ReaderIdiom::InitFlag,
        ReaderIdiom::IndexGuard,
        ReaderIdiom::PublishedPointer,
        ReaderIdiom::SeqcountSection,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ReaderIdiom::InitFlag => "init-flag guard",
            ReaderIdiom::IndexGuard => "index guard",
            ReaderIdiom::PublishedPointer => "published pointer",
            ReaderIdiom::SeqcountSection => "seqcount read section",
        }
    }

    /// One-line description used in diagnostics.
    pub fn description(self) -> &'static str {
        match self {
            ReaderIdiom::InitFlag => "flag load must be ordered before dependent data loads",
            ReaderIdiom::IndexGuard => "index load must be ordered before buffer-slot loads",
            ReaderIdiom::PublishedPointer => {
                "pointer load must be ordered before loads through the pointer"
            }
            ReaderIdiom::SeqcountSection => {
                "counter load must be ordered before the protected reads"
            }
        }
    }
}

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
    fn table_is_consistent() {
        for idiom in ReaderIdiom::ALL {
            assert!(!idiom.name().is_empty());
            assert!(!idiom.description().is_empty());
        }
    }

    #[test]
    fn fence_suggestion_tracks_writer() {
        assert_eq!(suggested_fence_for_writer("smp_wmb"), "smp_rmb");
        assert_eq!(
            suggested_fence_for_writer("smp_store_release"),
            "smp_load_acquire"
        );
    }
}
