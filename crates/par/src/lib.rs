//! A small work-stealing parallel map over slices, built on `std::thread`
//! only — no runtime dependency, no global pool, no unsafe.
//!
//! The crypto hot paths this workspace cares about (per-leaf CP-ABE
//! encrypt/keygen components, per-share blinding in Construction 1, the
//! SP's batch verify) are embarrassingly parallel maps over a few dozen
//! heavy items. [`parallel_map`] covers exactly that shape:
//!
//! * **Self-scheduling** — workers repeatedly claim the next unclaimed
//!   index from a shared atomic counter, so a thread that drew cheap items
//!   steals the remaining work from slower siblings (work stealing in its
//!   simplest, contention-free form: one `fetch_add` per item).
//! * **Deterministic output order** — results land in their input slots
//!   regardless of which worker computed them, so serial and parallel
//!   execution are observationally identical for pure `f`.
//! * **Scoped threads** — borrows of the input (and of `f`'s captures)
//!   cross into workers without `Arc` or cloning.
//!
//! Threads are spawned per call; for the ≥100 µs/item workloads in the
//! crypto layer the spawn cost (a few µs) is noise. Small inputs fall back
//! to a serial loop, and the `SP_PAR_THREADS` environment variable caps
//! the worker count (`SP_PAR_THREADS=1` forces serial, which benchmarks
//! use to isolate algorithmic speedups from parallel ones).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Inputs shorter than this run serially — thread spawn overhead would
/// dominate.
const MIN_PARALLEL_LEN: usize = 2;

/// Number of workers to use for `len` items: the smallest of the item
/// count, the machine parallelism, and the `SP_PAR_THREADS` override.
fn worker_count(len: usize) -> usize {
    let hw = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let capped = match std::env::var("SP_PAR_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => hw.min(n),
            _ => hw,
        },
        Err(_) => hw,
    };
    capped.min(len)
}

/// Maps `f` over `items` in parallel, preserving input order in the
/// output. `f` receives the item index and a reference to the item.
///
/// Runs serially when the input is tiny, the machine has a single
/// hardware thread, or `SP_PAR_THREADS=1`.
///
/// # Panics
///
/// If `f` panics in a worker the panic is propagated to the caller (the
/// scope join re-raises it).
pub fn parallel_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = worker_count(items.len());
    if items.len() < MIN_PARALLEL_LEN || workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Workers batch (index, result) pairs locally and hand them back
    // through their join handles; results are then placed into their input
    // positions, so output order never depends on scheduling.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(i, item)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(batch) => {
                    for (i, r) in batch {
                        debug_assert!(slots[i].is_none(), "index claimed twice");
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots.into_iter().map(|slot| slot.expect("every index was claimed by some worker")).collect()
}

/// [`parallel_map_indexed`] without the index argument.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_indexed(items, |_, t| f(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn index_matches_position() {
        let items = vec!["a", "b", "c", "d", "e"];
        let out = parallel_map_indexed(&items, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn degenerate_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, |&x| x).is_empty());
        assert_eq!(parallel_map(&[42], |&x| x + 1), vec![43]);
    }

    #[test]
    fn every_item_visited_exactly_once() {
        let calls = AtomicUsize::new(0);
        let items: Vec<usize> = (0..257).collect();
        let out = parallel_map(&items, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out, items);
        assert_eq!(calls.load(Ordering::Relaxed), items.len());
    }

    #[test]
    fn uneven_workloads_balance() {
        // Items with wildly different costs still produce ordered output.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, |&x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x * 3
        });
        assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..16).collect();
        let result = std::panic::catch_unwind(|| {
            parallel_map(&items, |&x| {
                assert!(x != 9, "boom");
                x
            })
        });
        assert!(result.is_err());
    }
}
