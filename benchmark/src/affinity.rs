//! Pins a load-generator thread to one CPU.
//!
//! A client and the server threads answering it wake each other in turn, and
//! the scheduler likes to pull the woken thread onto the waker's CPU. Left
//! alone, the two generator threads' request chains drift onto the same CPU
//! for seconds at a time and closed-loop latency doubles — a property of the
//! sandbox's scheduler, not of the program. Pinning each generator to its own
//! CPU keeps the two chains apart; the program's threads stay free.

const WORDS: usize = 16; // 1024 CPUs

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to the `slot`-th CPU this process may run on.
/// Returns whether it did; a refusal leaves the thread as it was.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(slot: usize) -> bool {
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return false;
    }
    let cpus: Vec<usize> = (0..WORDS * 64)
        .filter(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect();
    let Some(&cpu) = cpus.get(slot) else {
        return false;
    };
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed and is only
    // read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_slot: usize) -> bool {
    false
}
