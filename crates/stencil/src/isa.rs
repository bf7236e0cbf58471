//! The vector instruction set the star-7 kernels run at, chosen once per
//! process.
//!
//! BrickLib generates vector code per target so that a brick's contiguous
//! rows fill the machine's vector lanes. A release build here targets
//! baseline x86-64 (SSE2: two f64 lanes per register), so this module picks
//! a wider tier at run time instead of at build time:
//!
//! | tier | registers | f64 lanes | an 8³ brick row is |
//! |---|---|---|---|
//! | [`Isa::Avx512`] | `zmm` (AVX-512F) | 8 | one register |
//! | [`Isa::Avx2`] | `ymm` | 4 | two registers |
//! | [`Isa::Baseline`] | what the build targets | 2 (x86-64) | four registers |
//!
//! [`Isa::detect`] returns the widest tier the CPU (and OS) reports and
//! caches it. A kernel runs under a tier through `Isa::run`: the body is
//! an `#[inline(always)]` closure that calls the kernel's
//! `#[inline(always)]` pass loop, and `run` calls it from a
//! `#[target_feature]` trampoline, so the whole loop is compiled once per
//! tier from the one source. No kernel is written twice.
//!
//! Every tier computes the same bits. Rust never contracts `a·b + c` into
//! a fused multiply-add, and the kernels' lane-wise folds keep their
//! order, so a wider register changes how many cells one instruction
//! handles, not what any cell's expression rounds to. The per-tier tests
//! of `exec_fused`, `exec_brick` and `exec_array` compare every tier the
//! host reports with [`Isa::Baseline`] bit for bit.

use std::sync::OnceLock;

/// One instruction-set tier of the star-7 kernels (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// The build's own target features: every CPU runs it, and it is the
    /// reference the wider tiers are tested against.
    Baseline,
    /// AVX2: 256-bit `ymm` registers.
    Avx2,
    /// AVX-512F: 512-bit `zmm` registers.
    Avx512,
}

impl Isa {
    /// Every tier, narrowest first.
    const ALL: [Isa; 3] = [Isa::Baseline, Isa::Avx2, Isa::Avx512];

    /// The widest tier this CPU reports, detected on the first call and
    /// cached for the life of the process.
    pub fn detect() -> Isa {
        static DETECTED: OnceLock<Isa> = OnceLock::new();
        *DETECTED.get_or_init(|| Isa::available().last().unwrap_or(Isa::Baseline))
    }

    /// The tiers this CPU can run, narrowest first. Always starts with
    /// [`Isa::Baseline`].
    pub(crate) fn available() -> impl Iterator<Item = Isa> {
        Isa::ALL.into_iter().filter(|isa| isa.is_available())
    }

    /// Whether this CPU and OS support the tier: [`Isa::Baseline`] always,
    /// the others only on an x86-64 CPU that reports the feature.
    pub(crate) fn is_available(self) -> bool {
        match self {
            Isa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => std::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx2 | Isa::Avx512 => false,
        }
    }

    /// The tier's name as the benchmarks record it: `baseline`, `avx2` or
    /// `avx512`.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Baseline => "baseline",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// Run `kernel` compiled for this tier. `kernel` should be an
    /// `#[inline(always)]` closure whose loops are `#[inline(always)]`
    /// functions: whatever is inlined into the trampoline is compiled for
    /// the tier, whatever it still calls is not. Panics if the CPU does not
    /// support the tier.
    #[inline]
    pub(crate) fn run<R>(self, kernel: impl FnOnce() -> R) -> R {
        assert!(self.is_available(), "{self:?} is not supported by this CPU");
        match self {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the assert above ran `is_x86_feature_detected!("avx512f")`
            // (`is_available`), so the CPU and OS support every instruction
            // the `avx512f` trampoline may contain.
            Isa::Avx512 => unsafe { avx512(kernel) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the assert above ran `is_x86_feature_detected!("avx2")`
            // (`is_available`), so the CPU and OS support every instruction
            // the `avx2` trampoline may contain.
            Isa::Avx2 => unsafe { avx2(kernel) },
            _ => kernel(),
        }
    }
}

/// The AVX-512 trampoline: `kernel` and everything inlined into it are
/// compiled with AVX-512F enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn avx512<R>(kernel: impl FnOnce() -> R) -> R {
    kernel()
}

/// The AVX2 trampoline (see [`avx512`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(kernel: impl FnOnce() -> R) -> R {
    kernel()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_returns_the_widest_tier_the_cpu_reports() {
        assert!(Isa::Baseline.is_available());
        assert_eq!(Isa::available().next(), Some(Isa::Baseline));
        #[cfg(target_arch = "x86_64")]
        let widest = if std::is_x86_feature_detected!("avx512f") {
            Isa::Avx512
        } else if std::is_x86_feature_detected!("avx2") {
            Isa::Avx2
        } else {
            Isa::Baseline
        };
        #[cfg(not(target_arch = "x86_64"))]
        let widest = Isa::Baseline;
        assert_eq!(Isa::detect(), widest);
        assert_eq!(Isa::run(Isa::detect(), || 41 + 1), 42);
    }
}
