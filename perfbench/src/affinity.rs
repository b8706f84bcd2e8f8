//! Moving the calling thread between the CPUs it may run on.
//!
//! A shared virtual machine's CPUs change speed independently, each in
//! spells of seconds (see README.md, "How a run measures"). A thread the
//! scheduler leaves on one CPU can spend a whole window on a slow one;
//! moving it round every allowed CPU lets each op run on all of them.

use std::io;

/// Words of the CPU mask: room for 1,024 CPUs.
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The calling thread's CPU mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mask([u64; WORDS]);

impl Mask {
    /// The mask the calling thread runs under now.
    pub fn current() -> io::Result<Mask> {
        let mut words = [0u64; WORDS];
        // SAFETY: `words` is writable for `size_of_val(&words)` bytes.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&words), words.as_mut_ptr()) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Mask(words))
    }

    /// The mask holding `cpu` alone.
    pub fn only(cpu: usize) -> Mask {
        let mut words = [0u64; WORDS];
        words[cpu / 64] = 1 << (cpu % 64);
        Mask(words)
    }

    /// The CPUs in the mask, in ascending order.
    pub fn cpus(&self) -> Vec<usize> {
        (0..WORDS * 64)
            .filter(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Makes this the calling thread's mask.
    pub fn apply(&self) -> io::Result<()> {
        // SAFETY: `self.0` is readable for `size_of_val(&self.0)` bytes.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}
