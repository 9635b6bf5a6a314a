//! A software prefetch hint for latency-hiding loops over a known order.
//!
//! A loop that knows its future accesses in advance can ask the CPU to
//! start loading a later item's state while it still works on the current
//! one: a dense replay hints each later request's per-document state
//! (`Replay::prefetch` in `webcache-sim`, through `Cache::prefetch` and
//! `ReplacementPolicy::prefetch` in `webcache-core`), and the trace
//! generator hints each later reference's document record. [`prefetch_read`]
//! is the one place that issues the hint.

/// Hints the CPU to pull `slice[index]` into L1 for a coming read.
///
/// An out-of-range `index` is ignored, so the hint only ever names memory
/// inside `slice`. The hint never changes what the program computes. On
/// targets other than x86_64 it does nothing.
#[inline(always)]
pub fn prefetch_read<T>(slice: &[T], index: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(item) = slice.get(index) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: a prefetch is a hint and cannot fault, and SSE is
        // baseline on x86_64.
        unsafe { _mm_prefetch::<_MM_HINT_T0>((item as *const T).cast()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slice, index);
}
