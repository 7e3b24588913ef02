//! A counting global allocator: live heap bytes and their high-water
//! mark, read from inside the benchmark process instead of from RSS
//! (which counts allocator slack, page reuse and thread stacks, and moved
//! by several MB between identical runs).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Set while the benchmark stores its own records, which are not the
    /// program's heap.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Whether this thread's allocations count (not inside `uncounted`, and
/// not during thread teardown).
fn counting() -> bool {
    UNCOUNTED.try_with(|u| !u.get()).unwrap_or(false)
}

/// Forwards every call to the system allocator and keeps two statistics.
/// The counters publish no other data, so `Relaxed` suffices; the peak is
/// raised with `fetch_max`, so concurrent allocations never lose a maximum.
pub struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    pub const fn new() -> Self {
        CountingAlloc {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn grew(&self, bytes: usize) {
        if !counting() {
            return;
        }
        let now = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn shrank(&self, bytes: usize) {
        if !counting() {
            return;
        }
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Restarts the high-water mark at the current live size.
    pub fn reset_peak(&self) {
        self.peak
            .store(self.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Runs `f` with this thread's allocations and frees left out of the
    /// counts. Memory allocated inside must also be freed inside.
    pub fn uncounted<R>(&self, f: impl FnOnce() -> R) -> R {
        UNCOUNTED.with(|u| u.set(true));
        let r = f();
        UNCOUNTED.with(|u| u.set(false));
        r
    }

    /// Highest live heap size since the last [`CountingAlloc::reset_peak`].
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

// SAFETY: every method forwards the caller's pointer and layout unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the counters only
// observe sizes and never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            self.grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence `System`)
        // for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        self.shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` came from this
        // allocator and `new_size` is valid for `layout.align()`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            self.shrank(layout.size());
            self.grew(new_size);
        }
        p
    }
}
