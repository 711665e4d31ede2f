//! Order-preserving fan-out primitives.
//!
//! [`parallel_map`] is the concurrency primitive the campaign engine
//! (scenario grids) and the hierarchical simulator (enclave epochs)
//! share: every item is shared-nothing (its own RNGs, its own
//! recorder), workers pull items off an atomic queue, and results land
//! in a slot vector indexed by item — so the output order is *item*
//! order, never completion order. Everything downstream (telemetry
//! merges, result aggregation) folds in that fixed order, which is
//! what makes exports byte-identical across thread counts.
//!
//! [`parallel_for_mut`] is the in-place variant the hierarchical
//! epoch loop uses: each enclave runtime is advanced through `&mut`
//! access to its own slot, with the same ownership discipline (one
//! worker per item, no shared state) and therefore the same
//! determinism argument.

/// Applies `f(index, item)` to every item using up to `threads` worker
/// threads and returns the results in item order.
///
/// `threads <= 1` (or a single item) runs strictly serially on the
/// caller thread; otherwise the fan-out is [`parallel_for_mut`] over a
/// slot vector indexed by item. A panic in `f` propagates to the caller.
///
/// `f` must be deterministic per item for campaign replays to be exact;
/// the engine guarantees the rest (fixed fold order, no shared state).
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    parallel_for_mut(&mut slots, threads, |i, slot| *slot = Some(f(i, &items[i])));
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was claimed exactly once"))
        .collect()
}

/// Applies `f(index, item)` to every item **in place** using up to
/// `threads` worker threads of a `std::thread::scope` pool.
///
/// Each worker claims a distinct index off an atomic queue and mutates
/// only that slot, so the items never alias; the per-item mutation must
/// be deterministic for the whole pass to be (the hierarchical epoch
/// loop's requirement). `threads <= 1` or a single item runs serially
/// on the caller thread. A panic in `f` propagates to the caller once
/// every worker has stopped.
pub fn parallel_for_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    if threads <= 1 || items.len() <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    // Wrapping each `&mut` slot in its own Mutex keeps the claim-once
    // discipline checkable by the compiler: a worker that claimed index
    // `i` is the only one to ever lock slot `i` (the atomic queue hands
    // out each index exactly once), so the locks are uncontended.
    let slots: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    let workers = threads.min(slots.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= slots.len() {
                    break;
                }
                let mut slot = slots[i].lock().expect("slot lock");
                f(i, &mut slot);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn maps_in_item_order_at_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial: Vec<u64> = parallel_map(&items, 1, |i, &x| x * 3 + i as u64);
        for threads in [2, 4, 8, 64] {
            let par = parallel_map(&items, threads, |i, &x| x * 3 + i as u64);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map(&empty, 8, |_, &x: &u64| x).is_empty());
        assert_eq!(parallel_map(&[5u64], 8, |i, &x| x + i as u64), vec![5]);
    }

    #[test]
    fn every_item_is_visited_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, 8, |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out, items);
    }

    #[test]
    fn for_mut_mutates_every_slot_at_any_thread_count() {
        let base: Vec<u64> = (0..53).collect();
        let mut serial = base.clone();
        parallel_for_mut(&mut serial, 1, |i, x| *x = *x * 7 + i as u64);
        for threads in [2, 4, 8, 64] {
            let mut par = base.clone();
            parallel_for_mut(&mut par, threads, |i, x| *x = *x * 7 + i as u64);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    /// The fan-out is concurrent, not merely order-preserving: each item
    /// waits (bounded) until every item is inside `f`, a rendezvous a
    /// pass that runs fewer than `threads` items at once cannot keep.
    #[test]
    fn items_run_concurrently_up_to_the_thread_count() {
        use std::sync::{Condvar, Mutex};
        const ITEMS: usize = 8;
        let arrived = (Mutex::new(0usize), Condvar::new());
        let mut met = vec![false; ITEMS];
        parallel_for_mut(&mut met, ITEMS, |_, met| {
            let (count, all_here) = &arrived;
            let mut n = count.lock().expect("no item panics");
            *n += 1;
            all_here.notify_all();
            let patience = std::time::Duration::from_secs(10);
            let (n, _) = all_here
                .wait_timeout_while(n, patience, |n| *n < ITEMS)
                .expect("no item panics");
            *met = *n == ITEMS;
        });
        assert_eq!(met, vec![true; ITEMS], "items that saw all {ITEMS} running");
    }

    #[test]
    fn a_panicking_item_panics_the_caller() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let items: Vec<u64> = (0..20).collect();
        for threads in [2, 8] {
            let mapped = catch_unwind(AssertUnwindSafe(|| {
                parallel_map(&items, threads, |i, &x| {
                    assert_ne!(i, 13, "item 13 fails");
                    x
                })
            }));
            assert!(mapped.is_err(), "parallel_map, threads = {threads}");
            let mut slots = items.clone();
            let mutated = catch_unwind(AssertUnwindSafe(|| {
                parallel_for_mut(&mut slots, threads, |i, x| {
                    assert_ne!(i, 13, "item 13 fails");
                    *x += 1;
                })
            }));
            assert!(mutated.is_err(), "parallel_for_mut, threads = {threads}");
        }
    }

    #[test]
    fn for_mut_handles_empty_and_singleton() {
        let mut empty: Vec<u64> = Vec::new();
        parallel_for_mut(&mut empty, 8, |_, _x| unreachable!());
        let mut one = vec![9u64];
        parallel_for_mut(&mut one, 8, |i, x| *x += i as u64);
        assert_eq!(one, vec![9]);
    }
}
