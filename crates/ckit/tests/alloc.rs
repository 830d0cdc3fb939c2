//! The counting parse builds no tree. On the site-free files of the 1.2k
//! throughput tier, it must perform under 1 % of the heap allocations a
//! full parse of the same tokens performs.
//!
//! Allocations are counted per thread by a wrapping global allocator, so
//! the harness's other threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may be gone while the thread shuts down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` performs on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn is_barrier(name: &str) -> bool {
    matches!(
        kmodel::classify_call(name),
        kmodel::CallSemantics::Barrier(_) | kmodel::CallSemantics::Seqcount(_)
    )
}

#[test]
fn counting_parse_allocates_under_one_percent_of_a_full_parse() {
    let spec = ofence_corpus::CorpusSpec::tier("1200", 7).expect("1.2k tier");
    let config = ckit::ParserConfig::default();
    let (mut files, mut counting, mut full) = (0, 0u64, 0u64);
    for f in ofence_corpus::generate(&spec).files {
        let toks = ckit::lexer::lex(&f.content).expect("generated code lexes");
        let toks = ckit::pp::preprocess(toks, &Default::default()).expect("and preprocesses");
        let (counts, n) =
            allocations(|| ckit::parser::count_tokens(&toks.tokens, &config, &is_barrier));
        if counts.watched_call {
            continue;
        }
        let (out, m) = allocations(|| ckit::parser::parse_token_slice(&toks.tokens, &config));
        assert_eq!(
            counts.function_count,
            out.unit.functions().count(),
            "{}",
            f.name
        );
        assert_eq!(counts.parse_error_count, out.errors.len(), "{}", f.name);
        files += 1;
        counting += n;
        full += m;
    }
    assert!(files > 1000, "only {files} site-free files");
    assert!(
        counting * 100 < full,
        "counting parse: {counting} allocations, full parse: {full} over {files} files"
    );
}
