//! Allocation contract of `read_frame`: the body buffer grows as bytes
//! arrive, so a 4-byte header claiming `MAX_FRAME` (256 MiB) cannot make
//! the reader allocate that much before the body shows up. A counting
//! global allocator records the largest single allocation.
//!
//! This file holds exactly one `#[test]`: the counting allocator is
//! process-global, and a concurrent test would pollute the record.

use ic_serve::wire::{read_frame, MAX_FRAME};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct LargestAllocation;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates to `System` verbatim; the record is a relaxed atomic
// with no other side effects. `realloc` and `alloc_zeroed` keep their
// default bodies, which allocate through `alloc`.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

#[test]
fn a_huge_header_with_a_short_body_allocates_little() {
    let mut bytes = (MAX_FRAME as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&[7u8; 16]);
    LARGEST.store(0, Ordering::Relaxed);
    let result = read_frame(&mut &bytes[..]);
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        result.is_err(),
        "a 16-byte body passed for {MAX_FRAME} bytes"
    );
    assert!(
        largest <= 1 << 20,
        "read_frame allocated {largest} bytes at once for a 16-byte body"
    );
}
