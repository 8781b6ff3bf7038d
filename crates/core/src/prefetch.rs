//! The crate's one software-prefetch primitive.
//!
//! Index probes are bound by memory latency, not by comparisons: a traversal
//! knows the addresses it will touch next (a HINT level's partition, an
//! R-Tree node's matched children) well before it reads them. Issuing those
//! loads early overlaps what would otherwise be a serial chain of cache
//! misses. Both engines prefetch through this module, so the intrinsic is
//! called from exactly one place. It is the one module the crate-level
//! `deny(unsafe_code)` lets through.

#![allow(unsafe_code)]

/// Bytes per cache line on every target this crate tunes for.
pub(crate) const CACHE_LINE: usize = 64;

/// Best-effort read prefetch of the cache line holding `*p`. No-op on
/// non-x86_64 targets.
#[inline(always)]
pub(crate) fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; it never faults, even on bad addresses.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p as *const i8, core::arch::x86_64::_MM_HINT_T0)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Prefetches every cache line overlapping `bytes` bytes starting at `p`
/// (which need not sit on a line boundary).
#[inline]
pub(crate) fn prefetch_range<T>(p: *const T, bytes: usize) {
    if bytes == 0 {
        return;
    }
    let start = p as *const u8;
    // Bytes between the start of `p`'s line and `p`.
    let lead = start as usize & (CACHE_LINE - 1);
    for off in (0..lead + bytes).step_by(CACHE_LINE) {
        prefetch(start.wrapping_sub(lead).wrapping_add(off));
    }
}
