//! Deterministic SIMD compute kernels for the workspace hot paths.
//!
//! Every reduction kernel uses a **fixed 8-lane striped accumulator**:
//! element `i` always lands in lane `i % 8`, and the eight partial sums
//! collapse through one fixed pairwise tree ([`reduce8`]). The *numeric*
//! result is defined purely by IEEE-754 single-precision adds and muls in a
//! fixed order — never by what the hardware offers. Consequences:
//!
//! - the same input gives bit-identical output on every machine, at every
//!   thread count, and — new in this layer — on every *backend* (Rust never
//!   auto-contracts `a*b + c` into an FMA, and the hand-written SIMD paths
//!   use separate mul/add intrinsics for the same reason),
//! - a straight-line scalar loop with the same striping ([`reference`])
//!   reproduces every kernel bit-for-bit, which is what the property tests
//!   pin,
//! - results are *different bits* from a naive sequential sum — callers that
//!   pin exact downstream numbers re-pin them when switching to the kernels.
//!
//! # Backends
//!
//! The crate ships three implementations of the hot kernels and picks one at
//! runtime ([`backend`]):
//!
//! - [`Backend::Scalar`] — the striped scalar loops in [`striped`] (LLVM
//!   autovectorizes them; this is the reference the others must match).
//! - [`Backend::Sse2`] — two 128-bit accumulators covering lanes 0–3 / 4–7.
//!   SSE2 is baseline on `x86_64`, so this needs no CPU probe.
//! - [`Backend::Avx2`] — one 256-bit accumulator holding all 8 lanes, used
//!   when `is_x86_feature_detected!("avx2")` says so.
//!
//! A 256-bit lane `j` of the AVX accumulator performs exactly the additions
//! scalar lane `j` performs, in the same order, so the SIMD paths are
//! bit-identical to [`striped`] *by construction*, and the unit tests pin it.
//! The `PAS_KERNEL_BACKEND` environment variable (`scalar` | `simd` | `sse2`
//! | `avx2` | `auto`) overrides detection — CI runs the whole workspace under
//! `scalar` and `simd` and byte-compares every emitted snapshot.
//!
//! Element-wise kernels ([`axpy`], [`add`], [`scale`], [`mul`]) have no
//! reduction and therefore no ordering question; their SIMD forms are
//! trivially identical.
//!
//! [`gemm`] is the blocked/packed matrix-multiply kernel. Its accumulation
//! order per output element is *strictly increasing `p`* (the shared
//! dimension), identical to the textbook i-k-j loop — blocking and the AVX2
//! register-tiled microkernel reorder the memory traffic, not the
//! per-element float additions.
//!
//! [`dot_block`] is the probe primitive: one query against a packed panel of
//! rows. Each output is bit-identical to [`dot`] of that pair; the speed
//! comes from running four independent striped accumulator chains at once
//! (a single striped dot is add-latency-bound, so same-order SIMD cannot
//! beat it — inter-dot parallelism can).

use std::sync::atomic::{AtomicU8, Ordering};

/// Stripe width of every reduction kernel. Element `i` accumulates into
/// lane `i % LANES`.
pub const LANES: usize = 8;

/// Which kernel implementation the crate dispatches to. See the crate docs
/// for the determinism contract: all backends are bit-identical, so this is
/// purely a speed (and CI cross-checking) knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Backend {
    /// Striped scalar loops (the autovectorized reference).
    Scalar = 0,
    /// Two 128-bit accumulators; baseline on `x86_64`.
    Sse2 = 1,
    /// One 256-bit accumulator; requires runtime AVX2 detection.
    Avx2 = 2,
}

impl Backend {
    /// Stable lowercase name (used in bench rows and the obs gauge docs).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
        }
    }

    /// Numeric id for the `kernels.backend` gauge (0 scalar, 1 sse2, 2 avx2).
    pub fn index(self) -> u64 {
        self as u64
    }

    /// True for the hand-written `core::arch` paths.
    pub fn is_simd(self) -> bool {
        self != Backend::Scalar
    }
}

const BACKEND_UNSET: u8 = u8::MAX;
static BACKEND: AtomicU8 = AtomicU8::new(BACKEND_UNSET);

/// The widest backend this CPU supports.
fn best_available() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            Backend::Avx2
        } else {
            Backend::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Backend::Scalar
    }
}

fn resolve_backend() -> Backend {
    match std::env::var("PAS_KERNEL_BACKEND").ok().as_deref() {
        Some("scalar") => Backend::Scalar,
        // "simd" means "the best SIMD path this CPU has"; on a non-x86_64
        // host that is the scalar stripes — outputs are identical either
        // way, so a silent fallback is safe (and what the CI matrix wants).
        Some("simd") | Some("auto") | None | Some("") => best_available(),
        Some("sse2") => {
            if !cfg!(target_arch = "x86_64") {
                panic!("PAS_KERNEL_BACKEND=sse2 requires an x86_64 host");
            }
            Backend::Sse2
        }
        Some("avx2") => {
            assert!(
                best_available() == Backend::Avx2,
                "PAS_KERNEL_BACKEND=avx2 but the CPU does not report AVX2"
            );
            Backend::Avx2
        }
        Some(other) => {
            panic!("unknown PAS_KERNEL_BACKEND {other:?} (expected scalar|simd|sse2|avx2|auto)")
        }
    }
}

/// The backend every top-level kernel dispatches to. Resolved once from
/// `PAS_KERNEL_BACKEND` (falling back to CPU detection) on first use.
pub fn backend() -> Backend {
    match BACKEND.load(Ordering::Relaxed) {
        0 => Backend::Scalar,
        1 => Backend::Sse2,
        2 => Backend::Avx2,
        _ => {
            let resolved = resolve_backend();
            BACKEND.store(resolved as u8, Ordering::Relaxed);
            resolved
        }
    }
}

/// Forces a specific backend (benches and the cross-backend equality tests).
/// All backends produce bit-identical results, so flipping this mid-run can
/// change speed but never output.
///
/// # Panics
/// Panics when the requested backend is not supported by this CPU.
pub fn set_backend(b: Backend) {
    #[cfg(target_arch = "x86_64")]
    let supported = b != Backend::Avx2 || best_available() == Backend::Avx2;
    #[cfg(not(target_arch = "x86_64"))]
    let supported = b == Backend::Scalar;
    assert!(supported, "backend {} not supported on this CPU", b.name());
    BACKEND.store(b as u8, Ordering::Relaxed);
}

/// True when a hand-written SIMD path (SSE2 or AVX2) is available here.
pub fn simd_available() -> bool {
    best_available().is_simd()
}

/// The widest backend this CPU supports — what `PAS_KERNEL_BACKEND=simd`
/// resolves to ([`Backend::Scalar`] on non-x86_64 hosts).
pub fn best_supported() -> Backend {
    best_available()
}

/// Collapses the 8 lane partials in a fixed pairwise tree. The order is part
/// of the determinism contract — do not "simplify" to `iter().sum()`.
#[inline(always)]
fn reduce8(acc: [f32; LANES]) -> f32 {
    let s04 = acc[0] + acc[4];
    let s15 = acc[1] + acc[5];
    let s26 = acc[2] + acc[6];
    let s37 = acc[3] + acc[7];
    (s04 + s26) + (s15 + s37)
}

#[inline(always)]
fn assert_same_len(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "dimension mismatch: {} vs {}", a.len(), b.len());
}

/// Dot product with 8-lane striped accumulation.
///
/// # Panics
/// Panics when the lengths differ — mixing dimensions is always a bug.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_same_len(a, b);
    #[cfg(target_arch = "x86_64")]
    match backend() {
        // SAFETY: `backend()` is `Avx2` only when the CPU reports AVX2, and
        // `assert_same_len` above makes `a` and `b` equally long.
        Backend::Avx2 => return unsafe { x86::dot_avx2(a, b) },
        // SAFETY: `backend()` is `Sse2` only on x86_64, where SSE2 is baseline;
        // lengths as above.
        Backend::Sse2 => return unsafe { x86::dot_sse2(a, b) },
        Backend::Scalar => {}
    }
    striped::dot(a, b)
}

/// Sum of squares (`‖v‖²`) with 8-lane striped accumulation.
pub fn sum_sq(v: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    match backend() {
        // SAFETY: `backend()` is `Avx2` only when the CPU reports AVX2; the
        // kernel reads `v` alone, so there is no shape to check.
        Backend::Avx2 => return unsafe { x86::sum_sq_avx2(v) },
        // SAFETY: `backend()` is `Sse2` only on x86_64, where SSE2 is baseline.
        Backend::Sse2 => return unsafe { x86::sum_sq_sse2(v) },
        Backend::Scalar => {}
    }
    striped::sum_sq(v)
}

/// Squared Euclidean distance with 8-lane striped accumulation.
///
/// # Panics
/// Panics when the lengths differ.
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    assert_same_len(a, b);
    #[cfg(target_arch = "x86_64")]
    match backend() {
        // SAFETY: `backend()` is `Avx2` only when the CPU reports AVX2, and
        // `assert_same_len` above makes `a` and `b` equally long.
        Backend::Avx2 => return unsafe { x86::l2_sq_avx2(a, b) },
        // SAFETY: `backend()` is `Sse2` only on x86_64, where SSE2 is baseline;
        // lengths as above.
        Backend::Sse2 => return unsafe { x86::l2_sq_sse2(a, b) },
        Backend::Scalar => {}
    }
    striped::l2_sq(a, b)
}

/// Fused single pass returning `(a·b, ‖a‖², ‖b‖²)` — one load of each
/// operand instead of three. This is the raw-cosine primitive: callers take
/// the square roots themselves (and the pre-normalized stores skip them
/// entirely).
///
/// # Panics
/// Panics when the lengths differ.
pub fn dot_norms(a: &[f32], b: &[f32]) -> (f32, f32, f32) {
    assert_same_len(a, b);
    #[cfg(target_arch = "x86_64")]
    match backend() {
        // SAFETY: `backend()` is `Avx2` only when the CPU reports AVX2, and
        // `assert_same_len` above makes `a` and `b` equally long.
        Backend::Avx2 => return unsafe { x86::dot_norms_avx2(a, b) },
        // SAFETY: `backend()` is `Sse2` only on x86_64, where SSE2 is baseline;
        // lengths as above.
        Backend::Sse2 => return unsafe { x86::dot_norms_sse2(a, b) },
        Backend::Scalar => {}
    }
    striped::dot_norms(a, b)
}

/// Cosine similarity in `[-1, 1]`, built on [`dot_norms`]. Returns 0.0 when
/// either vector is zero — the workspace-wide convention (degenerate inputs
/// compare as "unrelated" rather than poisoning thresholds with NaN; the
/// matching *distance* convention is `1 − 0 = 1`).
///
/// This is the single implementation of cosine in the workspace:
/// `pas_embed::cosine` and `pas_ann`'s `CosineDistance` both delegate here.
pub fn cosine_sim(a: &[f32], b: &[f32]) -> f32 {
    let (d, na2, nb2) = dot_norms(a, b);
    if na2 == 0.0 || nb2 == 0.0 {
        return 0.0;
    }
    (d / (na2.sqrt() * nb2.sqrt())).clamp(-1.0, 1.0)
}

/// Dots of one query against a packed panel of `out.len()` rows, each of
/// `query.len()` elements: `out[r] = dot(query, panel[r·d .. (r+1)·d])`.
///
/// Every output is **bit-identical to [`dot`]** of the same pair — the block
/// form exists because a single striped dot is add-latency-bound, while four
/// independent accumulator chains sharing one query load stream ~4× the
/// data per cycle. This is the ANN probe primitive: ExactIndex scans and
/// `matmul_t` both reduce to it.
///
/// # Panics
/// Panics when `panel.len() != query.len() * out.len()`.
pub fn dot_block(query: &[f32], panel: &[f32], out: &mut [f32]) {
    assert_eq!(
        panel.len(),
        query.len() * out.len(),
        "dot_block: panel length {} does not match {} rows of {}",
        panel.len(),
        out.len(),
        query.len()
    );
    #[cfg(target_arch = "x86_64")]
    match backend() {
        // SAFETY: `backend()` is `Avx2` only when the CPU reports AVX2, and the
        // assert above makes `panel` exactly `out.len()` rows of `query.len()`.
        Backend::Avx2 => return unsafe { x86::dot_block_avx2(query, panel, out) },
        // SAFETY: `backend()` is `Sse2` only on x86_64, where SSE2 is baseline;
        // shape as above.
        Backend::Sse2 => return unsafe { x86::dot_block_sse2(query, panel, out) },
        Backend::Scalar => {}
    }
    striped::dot_block(query, panel, out)
}

/// `y[i] += alpha * x[i]`. Element-wise — no reduction, so vectorization is
/// purely a speed concern and the result matches the naive loop bit-for-bit.
///
/// # Panics
/// Panics when the lengths differ.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_same_len(x, y);
    #[cfg(target_arch = "x86_64")]
    match backend() {
        // SAFETY: `backend()` is `Avx2` only when the CPU reports AVX2, and
        // `assert_same_len` above makes `x` and `y` equally long.
        Backend::Avx2 => return unsafe { x86::axpy_avx2(alpha, x, y) },
        // SAFETY: `backend()` is `Sse2` only on x86_64, where SSE2 is baseline;
        // lengths as above.
        Backend::Sse2 => return unsafe { x86::axpy_sse2(alpha, x, y) },
        Backend::Scalar => {}
    }
    striped::axpy(alpha, x, y)
}

/// `y[i] += x[i]`.
///
/// # Panics
/// Panics when the lengths differ.
pub fn add(y: &mut [f32], x: &[f32]) {
    assert_same_len(x, y);
    #[cfg(target_arch = "x86_64")]
    match backend() {
        // SAFETY: `backend()` is `Avx2` only when the CPU reports AVX2, and
        // `assert_same_len` above makes `x` and `y` equally long.
        Backend::Avx2 => return unsafe { x86::add_avx2(y, x) },
        // SAFETY: `backend()` is `Sse2` only on x86_64, where SSE2 is baseline;
        // lengths as above.
        Backend::Sse2 => return unsafe { x86::add_sse2(y, x) },
        Backend::Scalar => {}
    }
    striped::add(y, x)
}

/// `v[i] *= s`.
pub fn scale(v: &mut [f32], s: f32) {
    for x in v.iter_mut() {
        *x *= s;
    }
}

/// `y[i] *= x[i]` (Hadamard product in place).
///
/// # Panics
/// Panics when the lengths differ.
pub fn mul(y: &mut [f32], x: &[f32]) {
    assert_same_len(x, y);
    for (yv, xv) in y.iter_mut().zip(x) {
        *yv *= xv;
    }
}

/// Rows of `A` handled together by the [`gemm`] microkernel (register
/// blocking: one pass over a B panel updates this many output rows).
pub const GEMM_MR: usize = 4;
/// k-extent of a packed B panel (tile height).
const GEMM_KC: usize = 128;
/// n-extent of a packed B panel (tile width).
const GEMM_NC: usize = 256;

/// Blocked matrix multiply: `out += A · B` with `A` m×k, `B` k×n, `out` m×n,
/// all row-major. `out` is typically zeroed by the caller.
///
/// Loop structure: n is tiled by `GEMM_NC`, k by `GEMM_KC`; each k×n tile of
/// `B` is packed into a contiguous panel (a no-op borrow when the tile spans
/// the full width — rows are already contiguous), and an `MR`-row microkernel
/// streams the panel once per `MR` output rows instead of once per row. On
/// AVX2 the microkernel holds a 4×16 output tile in eight 256-bit registers
/// for a whole k-tile instead of accumulating through memory. Per output
/// element the float additions still happen in strictly increasing `p`
/// order — k-tiles are visited in order and every tile covers a contiguous
/// `p` range — so the result is **bit-identical to the naive i-k-j loop**
/// on every backend and machine.
///
/// # Panics
/// Panics when a buffer length does not match its shape.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm: A buffer does not match {m}x{k}");
    assert_eq!(b.len(), k * n, "gemm: B buffer does not match {k}x{n}");
    assert_eq!(out.len(), m * n, "gemm: out buffer does not match {m}x{n}");
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 {
        // SSE2 gets no bespoke gemm: LLVM already vectorizes the striped
        // microkernel with 128-bit ops, and the win there is marginal.
        // SAFETY: `backend()` is `Avx2` only when the CPU reports AVX2, and the
        // asserts above make `a`, `b` and `out` exactly m×k, k×n and m×n.
        return unsafe { x86::gemm_avx2(m, k, n, a, b, out) };
    }
    striped::gemm(m, k, n, a, b, out)
}

pub mod striped {
    //! The striped **scalar** kernels — the reference implementation every
    //! SIMD backend must match bit-for-bit, and the dispatch target of
    //! [`Backend::Scalar`](super::Backend::Scalar). The lane loops are
    //! shaped so LLVM autovectorizes them (8 × f32 = one AVX register, two
    //! SSE registers); benches call these directly to report the
    //! autovectorized baseline next to the `core::arch` rows.

    use super::{assert_same_len, reduce8, GEMM_KC, GEMM_MR, GEMM_NC, LANES};

    /// Striped scalar dot product. See [`super::dot`].
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        assert_same_len(a, b);
        let split = a.len() - a.len() % LANES;
        let mut acc = [0.0f32; LANES];
        for (ca, cb) in a[..split].chunks_exact(LANES).zip(b[..split].chunks_exact(LANES)) {
            for j in 0..LANES {
                acc[j] += ca[j] * cb[j];
            }
        }
        for (j, (&x, &y)) in a[split..].iter().zip(&b[split..]).enumerate() {
            acc[j] += x * y;
        }
        reduce8(acc)
    }

    /// Striped scalar sum of squares. See [`super::sum_sq`].
    pub fn sum_sq(v: &[f32]) -> f32 {
        let split = v.len() - v.len() % LANES;
        let mut acc = [0.0f32; LANES];
        for c in v[..split].chunks_exact(LANES) {
            for j in 0..LANES {
                acc[j] += c[j] * c[j];
            }
        }
        for (j, &x) in v[split..].iter().enumerate() {
            acc[j] += x * x;
        }
        reduce8(acc)
    }

    /// Striped scalar squared L2 distance. See [`super::l2_sq`].
    pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        assert_same_len(a, b);
        let split = a.len() - a.len() % LANES;
        let mut acc = [0.0f32; LANES];
        for (ca, cb) in a[..split].chunks_exact(LANES).zip(b[..split].chunks_exact(LANES)) {
            for j in 0..LANES {
                let d = ca[j] - cb[j];
                acc[j] += d * d;
            }
        }
        for (j, (&x, &y)) in a[split..].iter().zip(&b[split..]).enumerate() {
            let d = x - y;
            acc[j] += d * d;
        }
        reduce8(acc)
    }

    /// Striped scalar fused `(a·b, ‖a‖², ‖b‖²)`. See [`super::dot_norms`].
    pub fn dot_norms(a: &[f32], b: &[f32]) -> (f32, f32, f32) {
        assert_same_len(a, b);
        let split = a.len() - a.len() % LANES;
        let mut acc_d = [0.0f32; LANES];
        let mut acc_a = [0.0f32; LANES];
        let mut acc_b = [0.0f32; LANES];
        for (ca, cb) in a[..split].chunks_exact(LANES).zip(b[..split].chunks_exact(LANES)) {
            for j in 0..LANES {
                acc_d[j] += ca[j] * cb[j];
                acc_a[j] += ca[j] * ca[j];
                acc_b[j] += cb[j] * cb[j];
            }
        }
        for (j, (&x, &y)) in a[split..].iter().zip(&b[split..]).enumerate() {
            acc_d[j] += x * y;
            acc_a[j] += x * x;
            acc_b[j] += y * y;
        }
        (reduce8(acc_d), reduce8(acc_a), reduce8(acc_b))
    }

    /// Striped scalar block dot: one [`dot`] per panel row. See
    /// [`super::dot_block`].
    pub fn dot_block(query: &[f32], panel: &[f32], out: &mut [f32]) {
        let d = query.len();
        assert_eq!(panel.len(), d * out.len(), "dot_block: panel/rows mismatch");
        for (r, o) in out.iter_mut().enumerate() {
            *o = dot(query, &panel[r * d..(r + 1) * d]);
        }
    }

    /// Striped scalar `y += alpha * x`. See [`super::axpy`].
    pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        assert_same_len(x, y);
        let split = x.len() - x.len() % LANES;
        for (cx, cy) in x[..split].chunks_exact(LANES).zip(y[..split].chunks_exact_mut(LANES)) {
            for j in 0..LANES {
                cy[j] += alpha * cx[j];
            }
        }
        for (xv, yv) in x[split..].iter().zip(&mut y[split..]) {
            *yv += alpha * xv;
        }
    }

    /// Striped scalar `y += x`. See [`super::add`].
    pub fn add(y: &mut [f32], x: &[f32]) {
        assert_same_len(x, y);
        let split = x.len() - x.len() % LANES;
        for (cx, cy) in x[..split].chunks_exact(LANES).zip(y[..split].chunks_exact_mut(LANES)) {
            for j in 0..LANES {
                cy[j] += cx[j];
            }
        }
        for (xv, yv) in x[split..].iter().zip(&mut y[split..]) {
            *yv += xv;
        }
    }

    /// Blocked/packed scalar gemm. See [`super::gemm`] for the contract.
    pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        assert_eq!(a.len(), m * k, "gemm: A buffer does not match {m}x{k}");
        assert_eq!(b.len(), k * n, "gemm: B buffer does not match {k}x{n}");
        assert_eq!(out.len(), m * n, "gemm: out buffer does not match {m}x{n}");
        let mut packed = Vec::new();
        for jb in (0..n).step_by(GEMM_NC) {
            let nb = GEMM_NC.min(n - jb);
            for pb in (0..k).step_by(GEMM_KC) {
                let kb = GEMM_KC.min(k - pb);
                // Pack B[pb.., jb..] into a contiguous kb×nb panel; when the
                // tile spans the full row width the rows already are one.
                let panel: &[f32] = if nb == n {
                    &b[pb * n..(pb + kb) * n]
                } else {
                    packed.clear();
                    packed.reserve(kb * nb);
                    for p in 0..kb {
                        let row = (pb + p) * n + jb;
                        packed.extend_from_slice(&b[row..row + nb]);
                    }
                    &packed
                };
                let mut i = 0;
                while i + GEMM_MR <= m {
                    gemm_micro4(i, k, n, pb, kb, jb, nb, a, panel, out);
                    i += GEMM_MR;
                }
                for i in i..m {
                    let arow = &a[i * k + pb..i * k + pb + kb];
                    let orow = &mut out[i * n + jb..i * n + jb + nb];
                    for (p, &av) in arow.iter().enumerate() {
                        axpy(av, &panel[p * nb..(p + 1) * nb], orow);
                    }
                }
            }
        }
    }

    /// Four-row microkernel of [`gemm`]: `out[i..i+4][jb..jb+nb] += A-block ·
    /// panel`. Each panel row is loaded once and fans out to four
    /// accumulating output rows (4× less B traffic than row-at-a-time).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn gemm_micro4(
        i: usize,
        k: usize,
        n: usize,
        pb: usize,
        kb: usize,
        jb: usize,
        nb: usize,
        a: &[f32],
        panel: &[f32],
        out: &mut [f32],
    ) {
        let arow = |r: usize| &a[(i + r) * k + pb..(i + r) * k + pb + kb];
        let (a0, a1, a2, a3) = (arow(0), arow(1), arow(2), arow(3));
        let (r0, rest) = out[i * n..(i + GEMM_MR) * n].split_at_mut(n);
        let (r1, rest) = rest.split_at_mut(n);
        let (r2, r3) = rest.split_at_mut(n);
        let o0 = &mut r0[jb..jb + nb];
        let o1 = &mut r1[jb..jb + nb];
        let o2 = &mut r2[jb..jb + nb];
        let o3 = &mut r3[jb..jb + nb];
        for p in 0..kb {
            let brow = &panel[p * nb..(p + 1) * nb];
            let (x0, x1, x2, x3) = (a0[p], a1[p], a2[p], a3[p]);
            for (j, &bv) in brow.iter().enumerate() {
                o0[j] += x0 * bv;
                o1[j] += x1 * bv;
                o2[j] += x2 * bv;
                o3[j] += x3 * bv;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! Hand-written `core::arch` paths. Lane `j` of each vector accumulator
    //! performs exactly the additions scalar lane `j` of [`striped`] performs,
    //! in the same order: the AVX2 kernels keep one 256-bit accumulator per
    //! stripe set, the SSE2 kernels keep two 128-bit halves (lanes 0–3 and
    //! 4–7), tails fall back to the same lane array, and every reduction
    //! goes through the shared [`reduce8`] tree. Multiplication and addition
    //! stay separate intrinsics — no FMA, ever, or the bits change.

    use core::arch::x86_64::*;

    use super::{reduce8, GEMM_KC, GEMM_MR, GEMM_NC, LANES};

    // ---- dot ------------------------------------------------------------

    /// # Safety
    ///
    /// The CPU must support AVX2. `a` and `b` must have the same length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let split = n - n % LANES;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < split {
            let va = _mm256_loadu_ps(pa.add(i));
            let vb = _mm256_loadu_ps(pb.add(i));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
            i += LANES;
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        for (j, i) in (split..n).enumerate() {
            lanes[j] += *pa.add(i) * *pb.add(i);
        }
        reduce8(lanes)
    }

    /// # Safety
    ///
    /// The CPU must support SSE2, as every x86_64 CPU does. `a` and `b` must
    /// have the same length.
    #[target_feature(enable = "sse2")]
    pub unsafe fn dot_sse2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let split = n - n % LANES;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut lo = _mm_setzero_ps();
        let mut hi = _mm_setzero_ps();
        let mut i = 0;
        while i < split {
            lo = _mm_add_ps(lo, _mm_mul_ps(_mm_loadu_ps(pa.add(i)), _mm_loadu_ps(pb.add(i))));
            hi = _mm_add_ps(
                hi,
                _mm_mul_ps(_mm_loadu_ps(pa.add(i + 4)), _mm_loadu_ps(pb.add(i + 4))),
            );
            i += LANES;
        }
        let mut lanes = [0.0f32; LANES];
        _mm_storeu_ps(lanes.as_mut_ptr(), lo);
        _mm_storeu_ps(lanes.as_mut_ptr().add(4), hi);
        for (j, i) in (split..n).enumerate() {
            lanes[j] += *pa.add(i) * *pb.add(i);
        }
        reduce8(lanes)
    }

    // ---- sum_sq ---------------------------------------------------------

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sum_sq_avx2(v: &[f32]) -> f32 {
        let n = v.len();
        let split = n - n % LANES;
        let pv = v.as_ptr();
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < split {
            let x = _mm256_loadu_ps(pv.add(i));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(x, x));
            i += LANES;
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        for (j, i) in (split..n).enumerate() {
            let x = *pv.add(i);
            lanes[j] += x * x;
        }
        reduce8(lanes)
    }

    /// # Safety
    ///
    /// The CPU must support SSE2, as every x86_64 CPU does.
    #[target_feature(enable = "sse2")]
    pub unsafe fn sum_sq_sse2(v: &[f32]) -> f32 {
        let n = v.len();
        let split = n - n % LANES;
        let pv = v.as_ptr();
        let mut lo = _mm_setzero_ps();
        let mut hi = _mm_setzero_ps();
        let mut i = 0;
        while i < split {
            let x0 = _mm_loadu_ps(pv.add(i));
            let x1 = _mm_loadu_ps(pv.add(i + 4));
            lo = _mm_add_ps(lo, _mm_mul_ps(x0, x0));
            hi = _mm_add_ps(hi, _mm_mul_ps(x1, x1));
            i += LANES;
        }
        let mut lanes = [0.0f32; LANES];
        _mm_storeu_ps(lanes.as_mut_ptr(), lo);
        _mm_storeu_ps(lanes.as_mut_ptr().add(4), hi);
        for (j, i) in (split..n).enumerate() {
            let x = *pv.add(i);
            lanes[j] += x * x;
        }
        reduce8(lanes)
    }

    // ---- l2_sq ----------------------------------------------------------

    /// # Safety
    ///
    /// The CPU must support AVX2. `a` and `b` must have the same length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn l2_sq_avx2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let split = n - n % LANES;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < split {
            let d = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
            i += LANES;
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        for (j, i) in (split..n).enumerate() {
            let d = *pa.add(i) - *pb.add(i);
            lanes[j] += d * d;
        }
        reduce8(lanes)
    }

    /// # Safety
    ///
    /// The CPU must support SSE2, as every x86_64 CPU does. `a` and `b` must
    /// have the same length.
    #[target_feature(enable = "sse2")]
    pub unsafe fn l2_sq_sse2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let split = n - n % LANES;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut lo = _mm_setzero_ps();
        let mut hi = _mm_setzero_ps();
        let mut i = 0;
        while i < split {
            let d0 = _mm_sub_ps(_mm_loadu_ps(pa.add(i)), _mm_loadu_ps(pb.add(i)));
            let d1 = _mm_sub_ps(_mm_loadu_ps(pa.add(i + 4)), _mm_loadu_ps(pb.add(i + 4)));
            lo = _mm_add_ps(lo, _mm_mul_ps(d0, d0));
            hi = _mm_add_ps(hi, _mm_mul_ps(d1, d1));
            i += LANES;
        }
        let mut lanes = [0.0f32; LANES];
        _mm_storeu_ps(lanes.as_mut_ptr(), lo);
        _mm_storeu_ps(lanes.as_mut_ptr().add(4), hi);
        for (j, i) in (split..n).enumerate() {
            let d = *pa.add(i) - *pb.add(i);
            lanes[j] += d * d;
        }
        reduce8(lanes)
    }

    // ---- dot_norms ------------------------------------------------------

    /// # Safety
    ///
    /// The CPU must support AVX2. `a` and `b` must have the same length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_norms_avx2(a: &[f32], b: &[f32]) -> (f32, f32, f32) {
        let n = a.len();
        let split = n - n % LANES;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc_d = _mm256_setzero_ps();
        let mut acc_a = _mm256_setzero_ps();
        let mut acc_b = _mm256_setzero_ps();
        let mut i = 0;
        while i < split {
            let va = _mm256_loadu_ps(pa.add(i));
            let vb = _mm256_loadu_ps(pb.add(i));
            acc_d = _mm256_add_ps(acc_d, _mm256_mul_ps(va, vb));
            acc_a = _mm256_add_ps(acc_a, _mm256_mul_ps(va, va));
            acc_b = _mm256_add_ps(acc_b, _mm256_mul_ps(vb, vb));
            i += LANES;
        }
        let mut ld = [0.0f32; LANES];
        let mut la = [0.0f32; LANES];
        let mut lb = [0.0f32; LANES];
        _mm256_storeu_ps(ld.as_mut_ptr(), acc_d);
        _mm256_storeu_ps(la.as_mut_ptr(), acc_a);
        _mm256_storeu_ps(lb.as_mut_ptr(), acc_b);
        for (j, i) in (split..n).enumerate() {
            let (x, y) = (*pa.add(i), *pb.add(i));
            ld[j] += x * y;
            la[j] += x * x;
            lb[j] += y * y;
        }
        (reduce8(ld), reduce8(la), reduce8(lb))
    }

    /// # Safety
    ///
    /// The CPU must support SSE2, as every x86_64 CPU does. `a` and `b` must
    /// have the same length.
    #[target_feature(enable = "sse2")]
    pub unsafe fn dot_norms_sse2(a: &[f32], b: &[f32]) -> (f32, f32, f32) {
        let n = a.len();
        let split = n - n % LANES;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut d_lo = _mm_setzero_ps();
        let mut d_hi = _mm_setzero_ps();
        let mut a_lo = _mm_setzero_ps();
        let mut a_hi = _mm_setzero_ps();
        let mut b_lo = _mm_setzero_ps();
        let mut b_hi = _mm_setzero_ps();
        let mut i = 0;
        while i < split {
            let va0 = _mm_loadu_ps(pa.add(i));
            let vb0 = _mm_loadu_ps(pb.add(i));
            let va1 = _mm_loadu_ps(pa.add(i + 4));
            let vb1 = _mm_loadu_ps(pb.add(i + 4));
            d_lo = _mm_add_ps(d_lo, _mm_mul_ps(va0, vb0));
            d_hi = _mm_add_ps(d_hi, _mm_mul_ps(va1, vb1));
            a_lo = _mm_add_ps(a_lo, _mm_mul_ps(va0, va0));
            a_hi = _mm_add_ps(a_hi, _mm_mul_ps(va1, va1));
            b_lo = _mm_add_ps(b_lo, _mm_mul_ps(vb0, vb0));
            b_hi = _mm_add_ps(b_hi, _mm_mul_ps(vb1, vb1));
            i += LANES;
        }
        let mut ld = [0.0f32; LANES];
        let mut la = [0.0f32; LANES];
        let mut lb = [0.0f32; LANES];
        _mm_storeu_ps(ld.as_mut_ptr(), d_lo);
        _mm_storeu_ps(ld.as_mut_ptr().add(4), d_hi);
        _mm_storeu_ps(la.as_mut_ptr(), a_lo);
        _mm_storeu_ps(la.as_mut_ptr().add(4), a_hi);
        _mm_storeu_ps(lb.as_mut_ptr(), b_lo);
        _mm_storeu_ps(lb.as_mut_ptr().add(4), b_hi);
        for (j, i) in (split..n).enumerate() {
            let (x, y) = (*pa.add(i), *pb.add(i));
            ld[j] += x * y;
            la[j] += x * x;
            lb[j] += y * y;
        }
        (reduce8(ld), reduce8(la), reduce8(lb))
    }

    // ---- dot_block ------------------------------------------------------

    /// Four independent striped-dot accumulator chains sharing each query
    /// load. Per row the accumulation is exactly [`dot_avx2`]; the speedup
    /// is inter-dot instruction-level parallelism, not a different order.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. `panel.len()` must equal `query.len() *
    /// out.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_block_avx2(query: &[f32], panel: &[f32], out: &mut [f32]) {
        let d = query.len();
        let rows = out.len();
        let split = d - d % LANES;
        let pq = query.as_ptr();
        let pp = panel.as_ptr();
        let mut r = 0;
        while r + 4 <= rows {
            let p0 = pp.add(r * d);
            let p1 = pp.add((r + 1) * d);
            let p2 = pp.add((r + 2) * d);
            let p3 = pp.add((r + 3) * d);
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut acc2 = _mm256_setzero_ps();
            let mut acc3 = _mm256_setzero_ps();
            let mut i = 0;
            while i < split {
                let q = _mm256_loadu_ps(pq.add(i));
                acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(q, _mm256_loadu_ps(p0.add(i))));
                acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(q, _mm256_loadu_ps(p1.add(i))));
                acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(q, _mm256_loadu_ps(p2.add(i))));
                acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(q, _mm256_loadu_ps(p3.add(i))));
                i += LANES;
            }
            let mut l0 = [0.0f32; LANES];
            let mut l1 = [0.0f32; LANES];
            let mut l2 = [0.0f32; LANES];
            let mut l3 = [0.0f32; LANES];
            _mm256_storeu_ps(l0.as_mut_ptr(), acc0);
            _mm256_storeu_ps(l1.as_mut_ptr(), acc1);
            _mm256_storeu_ps(l2.as_mut_ptr(), acc2);
            _mm256_storeu_ps(l3.as_mut_ptr(), acc3);
            for (j, i) in (split..d).enumerate() {
                let q = *pq.add(i);
                l0[j] += q * *p0.add(i);
                l1[j] += q * *p1.add(i);
                l2[j] += q * *p2.add(i);
                l3[j] += q * *p3.add(i);
            }
            out[r] = reduce8(l0);
            out[r + 1] = reduce8(l1);
            out[r + 2] = reduce8(l2);
            out[r + 3] = reduce8(l3);
            r += 4;
        }
        for r in r..rows {
            out[r] = dot_avx2(query, &panel[r * d..(r + 1) * d]);
        }
    }

    /// # Safety
    ///
    /// The CPU must support SSE2, as every x86_64 CPU does. `panel.len()` must
    /// equal `query.len() * out.len()`.
    #[target_feature(enable = "sse2")]
    pub unsafe fn dot_block_sse2(query: &[f32], panel: &[f32], out: &mut [f32]) {
        let d = query.len();
        let rows = out.len();
        let split = d - d % LANES;
        let pq = query.as_ptr();
        let pp = panel.as_ptr();
        let mut r = 0;
        while r + 2 <= rows {
            let p0 = pp.add(r * d);
            let p1 = pp.add((r + 1) * d);
            let mut a0_lo = _mm_setzero_ps();
            let mut a0_hi = _mm_setzero_ps();
            let mut a1_lo = _mm_setzero_ps();
            let mut a1_hi = _mm_setzero_ps();
            let mut i = 0;
            while i < split {
                let q_lo = _mm_loadu_ps(pq.add(i));
                let q_hi = _mm_loadu_ps(pq.add(i + 4));
                a0_lo = _mm_add_ps(a0_lo, _mm_mul_ps(q_lo, _mm_loadu_ps(p0.add(i))));
                a0_hi = _mm_add_ps(a0_hi, _mm_mul_ps(q_hi, _mm_loadu_ps(p0.add(i + 4))));
                a1_lo = _mm_add_ps(a1_lo, _mm_mul_ps(q_lo, _mm_loadu_ps(p1.add(i))));
                a1_hi = _mm_add_ps(a1_hi, _mm_mul_ps(q_hi, _mm_loadu_ps(p1.add(i + 4))));
                i += LANES;
            }
            let mut l0 = [0.0f32; LANES];
            let mut l1 = [0.0f32; LANES];
            _mm_storeu_ps(l0.as_mut_ptr(), a0_lo);
            _mm_storeu_ps(l0.as_mut_ptr().add(4), a0_hi);
            _mm_storeu_ps(l1.as_mut_ptr(), a1_lo);
            _mm_storeu_ps(l1.as_mut_ptr().add(4), a1_hi);
            for (j, i) in (split..d).enumerate() {
                let q = *pq.add(i);
                l0[j] += q * *p0.add(i);
                l1[j] += q * *p1.add(i);
            }
            out[r] = reduce8(l0);
            out[r + 1] = reduce8(l1);
            r += 2;
        }
        for r in r..rows {
            out[r] = dot_sse2(query, &panel[r * d..(r + 1) * d]);
        }
    }

    // ---- element-wise ---------------------------------------------------

    /// # Safety
    ///
    /// The CPU must support AVX2. `x` and `y` must have the same length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_avx2(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = x.len();
        let split = n - n % LANES;
        let va = _mm256_set1_ps(alpha);
        let px = x.as_ptr();
        let py = y.as_mut_ptr();
        let mut i = 0;
        while i < split {
            let vy = _mm256_loadu_ps(py.add(i));
            let vx = _mm256_loadu_ps(px.add(i));
            _mm256_storeu_ps(py.add(i), _mm256_add_ps(vy, _mm256_mul_ps(va, vx)));
            i += LANES;
        }
        for i in split..n {
            *py.add(i) += alpha * *px.add(i);
        }
    }

    /// # Safety
    ///
    /// The CPU must support SSE2, as every x86_64 CPU does. `x` and `y` must
    /// have the same length.
    #[target_feature(enable = "sse2")]
    pub unsafe fn axpy_sse2(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = x.len();
        let split = n - n % 4;
        let va = _mm_set1_ps(alpha);
        let px = x.as_ptr();
        let py = y.as_mut_ptr();
        let mut i = 0;
        while i < split {
            let vy = _mm_loadu_ps(py.add(i));
            let vx = _mm_loadu_ps(px.add(i));
            _mm_storeu_ps(py.add(i), _mm_add_ps(vy, _mm_mul_ps(va, vx)));
            i += 4;
        }
        for i in split..n {
            *py.add(i) += alpha * *px.add(i);
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2. `x` and `y` must have the same length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_avx2(y: &mut [f32], x: &[f32]) {
        let n = x.len();
        let split = n - n % LANES;
        let px = x.as_ptr();
        let py = y.as_mut_ptr();
        let mut i = 0;
        while i < split {
            let vy = _mm256_loadu_ps(py.add(i));
            let vx = _mm256_loadu_ps(px.add(i));
            _mm256_storeu_ps(py.add(i), _mm256_add_ps(vy, vx));
            i += LANES;
        }
        for i in split..n {
            *py.add(i) += *px.add(i);
        }
    }

    /// # Safety
    ///
    /// The CPU must support SSE2, as every x86_64 CPU does. `x` and `y` must
    /// have the same length.
    #[target_feature(enable = "sse2")]
    pub unsafe fn add_sse2(y: &mut [f32], x: &[f32]) {
        let n = x.len();
        let split = n - n % 4;
        let px = x.as_ptr();
        let py = y.as_mut_ptr();
        let mut i = 0;
        while i < split {
            let vy = _mm_loadu_ps(py.add(i));
            let vx = _mm_loadu_ps(px.add(i));
            _mm_storeu_ps(py.add(i), _mm_add_ps(vy, vx));
            i += 4;
        }
        for i in split..n {
            *py.add(i) += *px.add(i);
        }
    }

    // ---- gemm -----------------------------------------------------------

    /// Same blocking/packing as [`striped::gemm`], with a register-tiled
    /// microkernel: a 4×16 output tile lives in eight ymm registers for a
    /// whole k-tile. Per output element the adds still run in strictly
    /// increasing `p` order, so the result is bit-identical to the scalar
    /// driver — the win is dropping the store-to-load forwarding chain the
    /// memory-accumulating microkernel pays on every `o[j] +=`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. `a`, `b` and `out` must hold exactly `m * k`,
    /// `k * n` and `m * n` elements.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_avx2(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        let mut packed: Vec<f32> = Vec::new();
        for jb in (0..n).step_by(GEMM_NC) {
            let nb = GEMM_NC.min(n - jb);
            for pb in (0..k).step_by(GEMM_KC) {
                let kb = GEMM_KC.min(k - pb);
                let panel: &[f32] = if nb == n {
                    &b[pb * n..(pb + kb) * n]
                } else {
                    packed.clear();
                    packed.reserve(kb * nb);
                    for p in 0..kb {
                        let row = (pb + p) * n + jb;
                        packed.extend_from_slice(&b[row..row + nb]);
                    }
                    &packed
                };
                let mut i = 0;
                while i + GEMM_MR <= m {
                    gemm_micro4x16_avx2(i, k, n, pb, kb, jb, nb, a, panel, out);
                    i += GEMM_MR;
                }
                for i in i..m {
                    let arow = &a[i * k + pb..i * k + pb + kb];
                    let orow = &mut out[i * n + jb..i * n + jb + nb];
                    for (p, &av) in arow.iter().enumerate() {
                        axpy_avx2(av, &panel[p * nb..(p + 1) * nb], orow);
                    }
                }
            }
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2. Rows `i..i + 4` must exist in `a` (rows of
    /// `k`) and in `out` (rows of `n`), `pb + kb <= k`, `jb + nb <= n`, and
    /// `panel` must hold at least `kb * nb` elements.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    unsafe fn gemm_micro4x16_avx2(
        i: usize,
        k: usize,
        n: usize,
        pb: usize,
        kb: usize,
        jb: usize,
        nb: usize,
        a: &[f32],
        panel: &[f32],
        out: &mut [f32],
    ) {
        let ap = a.as_ptr();
        let a0 = ap.add(i * k + pb);
        let a1 = ap.add((i + 1) * k + pb);
        let a2 = ap.add((i + 2) * k + pb);
        let a3 = ap.add((i + 3) * k + pb);
        let op = out.as_mut_ptr();
        let o0 = op.add(i * n + jb);
        let o1 = op.add((i + 1) * n + jb);
        let o2 = op.add((i + 2) * n + jb);
        let o3 = op.add((i + 3) * n + jb);
        let pp = panel.as_ptr();
        let mut j = 0;
        // 4×16 register tile: 8 ymm accumulators, loaded and stored once
        // per k-tile instead of once per (p, j) step.
        while j + 16 <= nb {
            let mut c00 = _mm256_loadu_ps(o0.add(j));
            let mut c01 = _mm256_loadu_ps(o0.add(j + 8));
            let mut c10 = _mm256_loadu_ps(o1.add(j));
            let mut c11 = _mm256_loadu_ps(o1.add(j + 8));
            let mut c20 = _mm256_loadu_ps(o2.add(j));
            let mut c21 = _mm256_loadu_ps(o2.add(j + 8));
            let mut c30 = _mm256_loadu_ps(o3.add(j));
            let mut c31 = _mm256_loadu_ps(o3.add(j + 8));
            for p in 0..kb {
                let b0 = _mm256_loadu_ps(pp.add(p * nb + j));
                let b1 = _mm256_loadu_ps(pp.add(p * nb + j + 8));
                let x0 = _mm256_set1_ps(*a0.add(p));
                c00 = _mm256_add_ps(c00, _mm256_mul_ps(x0, b0));
                c01 = _mm256_add_ps(c01, _mm256_mul_ps(x0, b1));
                let x1 = _mm256_set1_ps(*a1.add(p));
                c10 = _mm256_add_ps(c10, _mm256_mul_ps(x1, b0));
                c11 = _mm256_add_ps(c11, _mm256_mul_ps(x1, b1));
                let x2 = _mm256_set1_ps(*a2.add(p));
                c20 = _mm256_add_ps(c20, _mm256_mul_ps(x2, b0));
                c21 = _mm256_add_ps(c21, _mm256_mul_ps(x2, b1));
                let x3 = _mm256_set1_ps(*a3.add(p));
                c30 = _mm256_add_ps(c30, _mm256_mul_ps(x3, b0));
                c31 = _mm256_add_ps(c31, _mm256_mul_ps(x3, b1));
            }
            _mm256_storeu_ps(o0.add(j), c00);
            _mm256_storeu_ps(o0.add(j + 8), c01);
            _mm256_storeu_ps(o1.add(j), c10);
            _mm256_storeu_ps(o1.add(j + 8), c11);
            _mm256_storeu_ps(o2.add(j), c20);
            _mm256_storeu_ps(o2.add(j + 8), c21);
            _mm256_storeu_ps(o3.add(j), c30);
            _mm256_storeu_ps(o3.add(j + 8), c31);
            j += 16;
        }
        // 4×8 tile for the next-size-down remainder.
        while j + 8 <= nb {
            let mut c0 = _mm256_loadu_ps(o0.add(j));
            let mut c1 = _mm256_loadu_ps(o1.add(j));
            let mut c2 = _mm256_loadu_ps(o2.add(j));
            let mut c3 = _mm256_loadu_ps(o3.add(j));
            for p in 0..kb {
                let bv = _mm256_loadu_ps(pp.add(p * nb + j));
                c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_set1_ps(*a0.add(p)), bv));
                c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_set1_ps(*a1.add(p)), bv));
                c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_set1_ps(*a2.add(p)), bv));
                c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_set1_ps(*a3.add(p)), bv));
            }
            _mm256_storeu_ps(o0.add(j), c0);
            _mm256_storeu_ps(o1.add(j), c1);
            _mm256_storeu_ps(o2.add(j), c2);
            _mm256_storeu_ps(o3.add(j), c3);
            j += 8;
        }
        // Scalar column tail, same p-outer order as the scalar microkernel.
        if j < nb {
            for p in 0..kb {
                let (x0, x1, x2, x3) = (*a0.add(p), *a1.add(p), *a2.add(p), *a3.add(p));
                for jj in j..nb {
                    let bv = *pp.add(p * nb + jj);
                    *o0.add(jj) += x0 * bv;
                    *o1.add(jj) += x1 * bv;
                    *o2.add(jj) += x2 * bv;
                    *o3.add(jj) += x3 * bv;
                }
            }
        }
    }
}

pub mod reference {
    //! Straight-line scalar references with the *same* summation order as
    //! the kernels: element `i` into lane `i % 8`, same pairwise reduction.
    //! The property tests pin each kernel bit-for-bit against these — any
    //! divergence means the kernel changed the math, not just the speed.

    use super::{reduce8, LANES};

    /// Scalar-indexed striped dot product.
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len());
        let mut acc = [0.0f32; LANES];
        for i in 0..a.len() {
            acc[i % LANES] += a[i] * b[i];
        }
        reduce8(acc)
    }

    /// Scalar-indexed striped sum of squares.
    pub fn sum_sq(v: &[f32]) -> f32 {
        let mut acc = [0.0f32; LANES];
        for (i, &x) in v.iter().enumerate() {
            acc[i % LANES] += x * x;
        }
        reduce8(acc)
    }

    /// Scalar-indexed striped squared L2 distance.
    pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len());
        let mut acc = [0.0f32; LANES];
        for i in 0..a.len() {
            let d = a[i] - b[i];
            acc[i % LANES] += d * d;
        }
        reduce8(acc)
    }

    /// Scalar-indexed striped fused `(a·b, ‖a‖², ‖b‖²)`.
    pub fn dot_norms(a: &[f32], b: &[f32]) -> (f32, f32, f32) {
        assert_eq!(a.len(), b.len());
        let mut acc_d = [0.0f32; LANES];
        let mut acc_a = [0.0f32; LANES];
        let mut acc_b = [0.0f32; LANES];
        for i in 0..a.len() {
            acc_d[i % LANES] += a[i] * b[i];
            acc_a[i % LANES] += a[i] * a[i];
            acc_b[i % LANES] += b[i] * b[i];
        }
        (reduce8(acc_d), reduce8(acc_a), reduce8(acc_b))
    }

    /// Naive `y += alpha * x`.
    pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), y.len());
        for i in 0..x.len() {
            y[i] += alpha * x[i];
        }
    }

    /// Naive i-k-j matrix multiply, `out += A · B` — the accumulation-order
    /// reference [`super::gemm`] must match bit-for-bit.
    pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        assert_eq!(a.len(), m * k);
        assert_eq!(b.len(), k * n);
        assert_eq!(out.len(), m * n);
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                for j in 0..n {
                    out[i * n + j] += av * b[p * n + j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic non-trivial fill (no RNG needed).
    fn wave(len: usize, phase: f32) -> Vec<f32> {
        (0..len).map(|i| (i as f32 * 0.37 + phase).sin() * 1.5).collect()
    }

    #[test]
    fn dot_known_value() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn sum_sq_and_l2_known_values() {
        assert_eq!(sum_sq(&[3.0, 4.0]), 25.0);
        assert_eq!(l2_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn dot_norms_matches_parts() {
        let a = wave(37, 0.1);
        let b = wave(37, 2.2);
        let (d, na2, nb2) = dot_norms(&a, &b);
        assert_eq!(d.to_bits(), dot(&a, &b).to_bits());
        assert_eq!(na2.to_bits(), sum_sq(&a).to_bits());
        assert_eq!(nb2.to_bits(), sum_sq(&b).to_bits());
    }

    #[test]
    fn cosine_sim_conventions() {
        assert!((cosine_sim(&[1.0, 0.0], &[2.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine_sim(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert_eq!(cosine_sim(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
        assert_eq!(cosine_sim(&[0.0; 4], &[0.0; 4]), 0.0);
    }

    #[test]
    fn axpy_add_scale_mul() {
        let x = wave(19, 0.4);
        let mut y = wave(19, 1.3);
        let mut y2 = y.clone();
        axpy(0.5, &x, &mut y);
        reference::axpy(0.5, &x, &mut y2);
        assert_eq!(y, y2);
        let mut z = vec![1.0, 2.0];
        add(&mut z, &[3.0, 4.0]);
        assert_eq!(z, vec![4.0, 6.0]);
        scale(&mut z, 0.5);
        assert_eq!(z, vec![2.0, 3.0]);
        mul(&mut z, &[2.0, -1.0]);
        assert_eq!(z, vec![4.0, -3.0]);
    }

    #[test]
    fn kernels_bit_match_reference_across_tail_lengths() {
        for len in 0..=(3 * LANES + 1) {
            let a = wave(len, 0.0);
            let b = wave(len, 1.0);
            assert_eq!(dot(&a, &b).to_bits(), reference::dot(&a, &b).to_bits(), "len {len}");
            assert_eq!(sum_sq(&a).to_bits(), reference::sum_sq(&a).to_bits(), "len {len}");
            assert_eq!(l2_sq(&a, &b).to_bits(), reference::l2_sq(&a, &b).to_bits(), "len {len}");
        }
    }

    #[test]
    fn gemm_matches_reference_all_small_shapes() {
        for &(m, k, n) in
            &[(1, 1, 1), (3, 5, 7), (4, 8, 4), (5, 9, 3), (8, 300, 5), (9, 130, 260), (2, 0, 3)]
        {
            let a = wave(m * k, 0.3);
            let b = wave(k * n, 0.7);
            let mut out = vec![0.0f32; m * n];
            let mut expect = vec![0.0f32; m * n];
            gemm(m, k, n, &a, &b, &mut out);
            reference::gemm(m, k, n, &a, &b, &mut expect);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&expect), "shape {m}x{k}x{n}");
        }
    }

    /// The backend contract, all in one test function: switching backends is
    /// globally visible, so the sweep runs under a single test to avoid
    /// racing itself (other tests are safe — every backend is bit-identical,
    /// which is exactly what this pins).
    #[test]
    fn every_backend_bit_matches_striped() {
        let backends: &[Backend] = if best_available() == Backend::Avx2 {
            &[Backend::Scalar, Backend::Sse2, Backend::Avx2]
        } else if cfg!(target_arch = "x86_64") {
            &[Backend::Scalar, Backend::Sse2]
        } else {
            &[Backend::Scalar]
        };
        let restore = backend();
        for &be in backends {
            set_backend(be);
            assert_eq!(backend(), be);
            for len in (0..=2 * LANES).chain([3 * LANES + 5, 64, 127, 128, 200]) {
                let a = wave(len, 0.2);
                let b = wave(len, 1.7);
                let name = be.name();
                assert_eq!(
                    dot(&a, &b).to_bits(),
                    striped::dot(&a, &b).to_bits(),
                    "dot {name} len {len}"
                );
                assert_eq!(
                    sum_sq(&a).to_bits(),
                    striped::sum_sq(&a).to_bits(),
                    "sum_sq {name} len {len}"
                );
                assert_eq!(
                    l2_sq(&a, &b).to_bits(),
                    striped::l2_sq(&a, &b).to_bits(),
                    "l2_sq {name} len {len}"
                );
                let fused = dot_norms(&a, &b);
                let want = striped::dot_norms(&a, &b);
                assert_eq!(
                    (fused.0.to_bits(), fused.1.to_bits(), fused.2.to_bits()),
                    (want.0.to_bits(), want.1.to_bits(), want.2.to_bits()),
                    "dot_norms {name} len {len}"
                );
                let mut y = wave(len, 0.9);
                let mut y2 = y.clone();
                axpy(0.37, &a, &mut y);
                striped::axpy(0.37, &a, &mut y2);
                assert_eq!(y, y2, "axpy {name} len {len}");
                let mut s = wave(len, 2.4);
                let mut s2 = s.clone();
                add(&mut s, &a);
                striped::add(&mut s2, &a);
                assert_eq!(s, s2, "add {name} len {len}");
                // Block dots across ragged row counts.
                for rows in [0, 1, 3, 4, 5, 9] {
                    let panel: Vec<f32> = (0..rows).flat_map(|r| wave(len, r as f32)).collect();
                    let mut got = vec![0.0f32; rows];
                    let mut want = vec![0.0f32; rows];
                    dot_block(&a, &panel, &mut got);
                    striped::dot_block(&a, &panel, &mut want);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "dot_block {name} len {len} rows {rows}");
                }
            }
            // gemm across shapes that exercise every tile edge: full 4×16
            // tiles, 8-wide remainders, scalar column tails, leftover rows,
            // multi-k-tile and multi-n-tile drivers.
            for &(m, k, n) in &[
                (1, 1, 1),
                (4, 16, 16),
                (5, 9, 3),
                (7, 31, 21),
                (8, 300, 5),
                (9, 130, 260),
                (12, 64, 272),
                (2, 0, 3),
            ] {
                let a = wave(m * k, 0.3);
                let b = wave(k * n, 0.7);
                let mut out = wave(m * n, 1.1); // nonzero: gemm accumulates
                let mut expect = out.clone();
                gemm(m, k, n, &a, &b, &mut out);
                striped::gemm(m, k, n, &a, &b, &mut expect);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(&expect), "gemm {} {m}x{k}x{n}", be.name());
            }
        }
        set_backend(restore);
    }

    #[test]
    fn backend_names_and_indices_are_stable() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Sse2.name(), "sse2");
        assert_eq!(Backend::Avx2.name(), "avx2");
        assert_eq!(Backend::Scalar.index(), 0);
        assert_eq!(Backend::Avx2.index(), 2);
        assert!(!Backend::Scalar.is_simd());
        assert!(Backend::Sse2.is_simd());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_rejects_mismatched_dims() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "panel length")]
    fn dot_block_rejects_mismatched_panel() {
        let mut out = [0.0f32; 2];
        dot_block(&[1.0, 2.0], &[1.0, 2.0, 3.0], &mut out);
    }
}
