//! The serving batcher's steady state allocates nothing: once a scratch
//! pool has served one forward, `forward_batch_into` on the same batch
//! size makes no heap allocation at all. Counted on one runtime thread,
//! where every block runs inline on the calling thread, so a per-thread
//! counter sees every allocation the forward pass makes, and with tracing
//! off (a traced run records its spans on the heap by design).

mod common;

use common::{input_for, prune_filters_l1, prune_global_magnitude, zoo};
use sb_infer::{CompileOptions, CompiledModel, ExecFormat};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread.
struct Counting;

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches only a const-initialized
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn steady_state_forward_allocates_nothing() {
    sb_runtime::set_thread_override(Some(1));
    sb_trace::set_override(Some(false));
    for (name, mut model) in zoo() {
        prune_global_magnitude(&mut model, 4.0);
        prune_filters_l1(&mut model, 2.0);
        for force in [None, Some(ExecFormat::Csr), Some(ExecFormat::Bsr)] {
            let compiled = CompiledModel::compile(
                &model,
                &CompileOptions {
                    force_format: force,
                    ..CompileOptions::default()
                },
            );
            let scratch = compiled.scratch();
            let x = input_for(&model, 13, 5);
            let mut out = Vec::new();
            // The first call sizes the pool and the logit buffer.
            compiled.forward_batch_into(&x, &mut out, &scratch);
            let before = ALLOCS.with(Cell::get);
            compiled.forward_batch_into(&x, &mut out, &scratch);
            let allocs = ALLOCS.with(Cell::get) - before;
            assert_eq!(
                allocs, 0,
                "{name} (force={force:?}): steady-state forward allocated {allocs} times"
            );
        }
    }
    sb_trace::set_override(None);
    sb_runtime::set_thread_override(None);
}
