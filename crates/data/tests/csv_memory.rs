//! What `read_csv` holds and how often it allocates, counted by a
//! counting global allocator rather than timed: a deterministic bound.
//!
//! This file holds one test, so no other test's allocations share the
//! counters.

use fairkm_data::{read_csv, AttrId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Forwards to [`System`], counting allocations, live bytes and the peak
/// of live bytes.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        grew(layout.size());
        // SAFETY: the caller's guarantees on `layout` pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        grew(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // Count the old block as live until the new one exists, as a
        // moving realloc holds both.
        grew(new_size);
        // SAFETY: as in `dealloc`; `new_size` is the caller's.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        LIVE.fetch_sub(layout.size(), Relaxed);
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROWS: usize = 20_000;
const DIM: usize = 16;
const ATTRS: usize = 3;

/// A table of the benchmark's planted shape: `DIM` numeric columns of
/// full-precision floats and `ATTRS` sensitive columns of 4 labels each.
fn planted_csv() -> String {
    let mut header: Vec<String> = (0..DIM).map(|d| format!("n:num:x_{d}")).collect();
    header.extend((0..ATTRS).map(|a| format!("s:cat:s_{a}")));
    let mut text = header.join(",");
    text.push('\n');
    let mut state = 0x9ab1_0b0b_u64;
    for _ in 0..ROWS {
        let mut cells = Vec::with_capacity(DIM + ATTRS);
        for _ in 0..DIM {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            cells.push(format!(
                "{}",
                (state >> 11) as f64 / (1u64 << 48) as f64 - 16.0
            ));
        }
        for _ in 0..ATTRS {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            cells.push(format!("v{}", state % 4));
        }
        text.push_str(&cells.join(","));
        text.push('\n');
    }
    text
}

#[test]
fn read_csv_holds_the_text_and_the_columns_and_allocates_nothing_per_row() {
    let text = planted_csv();
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    ALLOCS.store(0, Relaxed);
    let data = read_csv(text.as_bytes()).unwrap();
    let peak = PEAK.load(Relaxed) - before;
    let allocs = ALLOCS.load(Relaxed);

    assert_eq!(data.n_rows(), ROWS);
    let mut column_bytes = 0;
    for d in 0..DIM {
        column_bytes += std::mem::size_of_val(data.numeric_column(AttrId(d)).unwrap());
    }
    for a in 0..ATTRS {
        let col = data.categorical_column(AttrId(DIM + a)).unwrap();
        column_bytes += std::mem::size_of_val(col);
    }
    let peak_bound = text.len() + 3 * column_bytes + (1 << 20);
    assert!(
        peak <= peak_bound,
        "peak live bytes {peak} > {peak_bound} (input {} B, columns {column_bytes} B)",
        text.len()
    );
    // Nothing per row: one allocation per doubling of each column (at most
    // 16 up to 20k rows), plus about a hundred for the header, the domains
    // and the scanner's buffers. The reader makes 344.
    let alloc_bound = (DIM + ATTRS) * 16 + 100;
    assert!(
        allocs <= alloc_bound,
        "{allocs} allocations > {alloc_bound}"
    );
}
