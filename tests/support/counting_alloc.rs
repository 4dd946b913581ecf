//! A counting `#[global_allocator]` for the tests that pin what a code
//! path allocates (`publish_cost`, `eval_alloc`, `statement_cost`). Std
//! only. Each of those test files is the one test of its binary, so
//! nothing else allocates while it measures, and the allocator counts
//! only while the test thread asks it to — on that thread ([`measured`])
//! or, for a path that runs on a server's connection thread, on every
//! thread ([`measured_everywhere`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

pub struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
/// Set around a [`measured_everywhere`] call.
static EVERYWHERE: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Set on the test thread around the call being measured. Const-
    /// initialised and without a destructor, so the allocator can read it
    /// without allocating.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if EVERYWHERE.load(Ordering::Relaxed) || MEASURING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting beside it touches only
// atomics and a thread-local `Cell` and never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are those of `System.alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are those of `System.alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` was returned by this allocator, that is by `System`,
        // with `layout`; the rest is the caller's obligation to `realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, that is by `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` and returns its result with the number of allocations
/// (reallocations included) this thread made meanwhile and the bytes
/// they asked for.
pub fn measured<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    counted(f, |on| MEASURING.with(|m| m.set(on)))
}

/// [`measured`], counting every thread of the process: for work `f` only
/// waits for (a request a server thread answers). `f` itself should not
/// allocate, or its share is in the count.
#[allow(dead_code)] // one of the binaries that share this file uses it
pub fn measured_everywhere<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    counted(f, |on| EVERYWHERE.store(on, Ordering::Relaxed))
}

fn counted<R>(f: impl FnOnce() -> R, switch: impl Fn(bool)) -> (R, usize, usize) {
    let (allocations, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    switch(true);
    let result = f();
    switch(false);
    (
        result,
        ALLOCATIONS.load(Ordering::Relaxed) - allocations,
        BYTES.load(Ordering::Relaxed) - bytes,
    )
}
