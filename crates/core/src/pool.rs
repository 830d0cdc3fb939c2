//! The one parallel loop: [`for_each`] runs a closure over a slice on
//! scoped threads.
//!
//! * At most one thread per core, and never more than there are items:
//!   decoding, encoding and parsing are allocation-heavy, and more
//!   threads than cores just serialize on the allocator (measured 5-8x
//!   slower with 16 threads on one core).
//! * The caller's thread works as worker 0, so a one-item batch (a
//!   one-file edit) spawns no thread at all.
//! * Items are taken in order from one shared cursor. Callers that sort
//!   their items largest-first get a longest-first schedule: the heavy
//!   head spreads across workers and the tail is one small item.
//! * A panicking item fails the whole call: no worker takes another
//!   item, every worker is joined, and then the first panic payload is
//!   re-raised on the caller with `resume_unwind`, so a `catch_unwind`
//!   around the caller sees the original message.
//!
//! With a recorder, each call records `workers` (the threads it used)
//! plus one `worker_busy_us` / `worker_idle_us` count and one
//! `worker_files` histogram sample per worker. Idle is the worker's
//! lifetime minus its busy time: spawn latency plus the cursor's tail.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Threads a batch may use: the machine's parallelism, computed once per
/// process.
pub fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Run `work(worker, item)` for every item, on `min(threads(),
/// items.len())` threads, and return once all are done. `worker` is
/// below that thread count, so callers can keep per-worker result slots.
/// A panic in `work` is re-raised here after every worker has stopped.
pub fn for_each<T: Sync>(
    items: &[T],
    rec: Option<&obs::Recorder>,
    work: impl Fn(usize, &T) + Sync,
) {
    let workers = threads().min(items.len());
    if workers == 0 {
        return;
    }
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let run = |w: usize| -> std::thread::Result<()> {
        let (mut busy_us, mut done) = (0u64, 0u64);
        while let Some(item) = items.get(next.fetch_add(1, Ordering::Relaxed)) {
            let t0 = Instant::now();
            catch_unwind(AssertUnwindSafe(|| work(w, item))).inspect_err(|_| {
                // The batch has failed: no worker takes another item.
                next.store(items.len(), Ordering::Relaxed);
            })?;
            busy_us += t0.elapsed().as_micros() as u64;
            done += 1;
        }
        if let Some(rec) = rec {
            let idle_us = (started.elapsed().as_micros() as u64).saturating_sub(busy_us);
            rec.count("worker_busy_us", busy_us);
            rec.count("worker_idle_us", idle_us);
            rec.observe("worker_files", done);
        }
        Ok(())
    };
    let outcome = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|w| scope.spawn(move || run(w))).collect();
        let own = run(0);
        // Join every worker, keeping the first panic in worker order.
        spawned
            .into_iter()
            .map(|h| h.join().and_then(|r| r))
            .fold(own, Result::and)
    });
    if let Err(payload) = outcome {
        resume_unwind(payload);
    }
    if let Some(rec) = rec {
        rec.count("workers", workers as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn runs_every_task_once() {
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..64).collect();
        let rec = obs::Recorder::new();
        for_each(&items, Some(&rec), |_w, &t| {
            hits[t].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
        let snap = rec.snapshot();
        assert_eq!(snap.count_of("workers"), threads().min(64) as u64);
    }

    #[test]
    fn reuse_across_batches() {
        let total = AtomicUsize::new(0);
        for round in 1..=5usize {
            let items: Vec<usize> = (0..round * 3).collect();
            for_each(&items, None, |_w, _t| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 3 + 6 + 9 + 12 + 15);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let rec = obs::Recorder::new();
        for_each(&[] as &[usize], Some(&rec), |_w, _t| panic!("no items"));
        let snap = rec.snapshot();
        assert_eq!(snap.count_of("workers"), 0);
        assert_eq!(snap.count_of("worker_busy_us"), 0);
    }

    #[test]
    fn per_worker_slots_are_disjoint() {
        // The (worker, item) contract: `worker` indexes a slot vector of
        // `threads()` entries, each locked only by its owning worker.
        let slots: Vec<Mutex<Vec<usize>>> =
            (0..threads()).map(|_| Mutex::new(Vec::new())).collect();
        let items: Vec<usize> = (0..48).collect();
        for_each(&items, None, |w, &t| {
            assert!(w < threads().min(items.len()), "worker {w} out of range");
            slots[w].lock().unwrap().push(t);
        });
        let mut all: Vec<usize> = slots
            .iter()
            .flat_map(|s| s.lock().unwrap().clone())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..48).collect::<Vec<_>>());
    }

    #[test]
    fn one_item_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        for_each(&[7], None, |w, _t| {
            assert_eq!(w, 0);
            assert_eq!(std::thread::current().id(), caller);
        });
    }

    #[test]
    fn panic_payload_reaches_the_caller() {
        // Whichever worker takes the hostile item, the call returns (no
        // hang) with the original payload.
        let items: Vec<usize> = (0..16).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            for_each(&items, None, |_w, &t| {
                if t == 5 {
                    panic!("item {t} is hostile");
                }
            })
        }));
        let payload = caught.expect_err("the panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("item 5 is hostile")
        );
    }

    #[test]
    fn a_spawned_workers_panic_reaches_the_caller() {
        // A panic off the caller's thread must still reach the caller.
        // The caller's item waits until a spawned worker has taken one,
        // so the panic is never the caller's own.
        if threads() < 2 {
            return;
        }
        let caller = std::thread::current().id();
        let spawned_ran = std::sync::atomic::AtomicBool::new(false);
        let items: Vec<usize> = (0..threads() * 4).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            for_each(&items, None, |_w, _t| {
                if std::thread::current().id() != caller {
                    spawned_ran.store(true, Ordering::SeqCst);
                    panic!("spawned worker failed");
                }
                let t0 = Instant::now();
                while !spawned_ran.load(Ordering::SeqCst) && t0.elapsed().as_secs() < 30 {
                    std::thread::yield_now();
                }
            })
        }));
        let payload = caught.expect_err("the panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"spawned worker failed")
        );
    }
}
