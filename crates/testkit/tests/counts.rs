//! The counting allocator counts: a boxed value is one allocation on this
//! thread and its bytes are live until it is dropped.

use hpcdash_testkit::{allocations, counted, live_bytes, CountingAlloc};
use std::hint::black_box;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn counts_allocations_and_live_bytes() {
    let (boxed, made) = counted(|| black_box(Box::new([7u8; 4096])));
    assert_eq!(made, 1);
    // Other test threads may allocate meanwhile; nothing else in this
    // binary holds 4 KiB across the drop below.
    let held = live_bytes();
    drop(boxed);
    assert!(held - live_bytes() >= 4096, "the box's bytes were freed");

    let before = allocations();
    let mut grown = black_box(Vec::<u64>::with_capacity(1));
    grown.extend(0..64);
    assert!(allocations() - before >= 2, "a realloc counts too");
}
