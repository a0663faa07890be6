//! Host-speed reference.
//!
//! On a shared machine the host's speed drifts: the same run measured
//! minutes apart differed by 20–40% in median throughput, and the speed
//! within one run switched between levels up to 3× apart. The reference is
//! a fixed kernel, independent of pfcsim's code, that a run times right
//! before each timed step: an event loop over a binary heap of 4 Ki
//! timers that reads and writes random words of a 256 KiB table, like a
//! simulator's dispatch loop touching its state. It keeps under 0.5 MiB, so
//! it leaves the last-level cache to the operation that follows. Its time
//! over `NOMINAL_S` is the host's slowdown at that moment; the workloads
//! divide every time they measure by the median slowdown over the repeat it
//! belongs to (and multiply every rate), which leaves a change to pfcsim's
//! speed in the figures while removing most of the host's drift. Calibrated
//! times are thus seconds of a host on which the kernel takes `NOMINAL_S`.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Words in the kernel's table (256 KiB).
const WORDS: usize = 1 << 15;
/// Timers in the kernel's heap.
const TIMERS: usize = 1 << 12;
/// Events the kernel dispatches per sample.
const EVENTS: usize = 8_000;
/// The kernel's time on an undisturbed host, by definition of the scale:
/// about its fastest time on the 2.0 GHz Xeon the benchmark was written on.
const NOMINAL_S: f64 = 0.00125;

struct Kernel {
    table: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

thread_local! {
    // Allocated once, so the kernel adds a fixed amount to the resident set.
    static KERNEL: RefCell<Kernel> = RefCell::new(Kernel {
        table: vec![0; WORDS],
        heap: BinaryHeap::with_capacity(TIMERS),
    });
}

/// Bytes the kernel keeps resident, to leave out of the peak RSS.
pub const RESIDENT_BYTES: usize = WORDS * 8 + TIMERS * 16;

/// Time the kernel once: the host's slowdown against `NOMINAL_S`.
pub fn slowdown() -> f64 {
    KERNEL.with(|k| {
        let Kernel { table, heap } = &mut *k.borrow_mut();
        let t = Instant::now();
        heap.clear();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for id in 0..TIMERS as u32 {
            heap.push(Reverse((step() % 1000, id)));
        }
        let mut acc = 0u64;
        for _ in 0..EVENTS {
            let Reverse((time, id)) = heap.pop().expect("the heap never drains");
            let r = step();
            let i = (r as usize ^ id as usize) & (WORDS - 1);
            table[i] = table[i].wrapping_add(time);
            acc = acc.wrapping_add(table[(i * 7) & (WORDS - 1)]);
            heap.push(Reverse((time + 1 + r % 1000, id)));
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64() / NOMINAL_S
    })
}
