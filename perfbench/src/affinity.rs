//! Moves the benchmark's one thread between the cores it may run on.
//!
//! On a shared machine other tenants slow one core at a time, for 0.1 s
//! to tens of seconds, while the other core runs at full speed. The
//! timed loop moves its thread to the next allowed core every few ops,
//! so every core it may use is sampled all through the run.

use std::mem::size_of_val;

/// Words of a Linux `cpu_set_t` (1024 cores).
const MASK_WORDS: usize = 16;
type Mask = [u64; MASK_WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The cores this thread may run on when the run starts.
pub struct Cores {
    original: Mask,
    cores: Vec<usize>,
}

impl Cores {
    pub fn of_this_thread() -> Self {
        let mut original = [0u64; MASK_WORDS];
        // SAFETY: `original` is a writable buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        let ok =
            unsafe { sched_getaffinity(0, size_of_val(&original), original.as_mut_ptr()) } == 0;
        let cores = if ok {
            (0..MASK_WORDS * 64)
                .filter(|&c| original[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        Cores { original, cores }
    }

    pub fn count(&self) -> usize {
        self.cores.len()
    }

    /// Moves the thread onto allowed core `k` modulo their count. Does
    /// nothing when the allowed cores are unknown.
    pub fn pin(&self, k: usize) {
        if let Some(&c) = self.cores.get(k % self.cores.len().max(1)) {
            let mut mask = [0u64; MASK_WORDS];
            mask[c / 64] = 1 << (c % 64);
            set(&mask);
        }
    }

    /// Lets the thread run on every core it started with again.
    pub fn release(&self) {
        if !self.cores.is_empty() {
            set(&self.original);
        }
    }
}

/// Sets this thread's affinity. A refused call leaves the thread where it
/// was, which only makes the run as noisy as an unpinned one.
fn set(mask: &Mask) {
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe {
        sched_setaffinity(0, size_of_val(mask), mask.as_ptr());
    }
}
