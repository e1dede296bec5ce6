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
//! beat it — inter-dot parallelism can). [`dot_i8`] / [`dot_i8_block`] are
//! the int8 quantized-probe primitives; integer addition is associative, so
//! those are exact on every backend by definition.

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

/// True when row `r` of `width` elements lies inside a store of `len`
/// elements. The arithmetic is checked: a wrapped `(r + 1) · width` would
/// pass a plain `<=` and send the SIMD kernels' row offsets outside the
/// store.
fn row_fits(r: usize, width: usize, len: usize) -> bool {
    r.checked_add(1).and_then(|end| end.checked_mul(width)).is_some_and(|end| end <= len)
}

/// Longest table set the AVX2 ADC gathers address: their offsets are
/// `i32` lanes. A longer one takes the scalar walk, which is bit-identical.
#[cfg(target_arch = "x86_64")]
const GATHER_MAX: usize = i32::MAX as usize;

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
/// data per cycle. This is the ANN probe primitive: ExactIndex scans,
/// HNSW batched neighbor expansions, and `matmul_t` all reduce to it.
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

/// Integer dot product of two int8 code vectors, exact in `i32`. Integer
/// addition is associative, so every backend returns the same value by
/// definition — the quantized probe path is backend-invariant for free.
///
/// # Panics
/// Panics when the lengths differ.
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch: {} vs {}", a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 {
        // SAFETY: `backend()` is `Avx2` only when the CPU reports AVX2, and the
        // assert above makes `a` and `b` equally long.
        return unsafe { x86::dot_i8_avx2(a, b) };
    }
    striped::dot_i8(a, b)
}

/// Block form of [`dot_i8`]: one int8 query against a packed panel of code
/// rows. Exact on every backend.
///
/// # Panics
/// Panics when `panel.len() != query.len() * out.len()`.
pub fn dot_i8_block(query: &[i8], panel: &[i8], out: &mut [i32]) {
    assert_eq!(
        panel.len(),
        query.len() * out.len(),
        "dot_i8_block: panel length {} does not match {} rows of {}",
        panel.len(),
        out.len(),
        query.len()
    );
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 {
        // SAFETY: `backend()` is `Avx2` only when the CPU reports AVX2, and the
        // assert above makes `panel` exactly `out.len()` rows of `query.len()`.
        return unsafe { x86::dot_i8_block_avx2(query, panel, out) };
    }
    striped::dot_i8_block(query, panel, out)
}

/// Row-indexed form of [`dot_i8_block`]: dots of one int8 query against the
/// rows `rows[j]` of a flat row-major code store, written straight to `out`
/// with no packed panel in between. Exact on every backend.
///
/// # Panics
/// Panics when `rows.len() != out.len()` or any row index is out of range
/// for `codes` (`query.len()` elements per row).
pub fn dot_i8_rows(query: &[i8], codes: &[i8], rows: &[usize], out: &mut [i32]) {
    let d = query.len();
    assert_eq!(rows.len(), out.len(), "dot_i8_rows: {} rows for {} outputs", rows.len(), out.len());
    for &r in rows {
        assert!(row_fits(r, d, codes.len()), "dot_i8_rows: row {r} out of range");
    }
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 {
        // SAFETY: `backend()` is `Avx2` only when the CPU reports AVX2; the
        // asserts above match `rows` to `out` and put every indexed row inside
        // `codes`.
        return unsafe { x86::dot_i8_rows_avx2(query, codes, rows, out) };
    }
    striped::dot_i8_rows(query, codes, rows, out)
}

/// Sum of `lut[s·256 + codes[s]]` over subspaces `s` — the 8-bit ADC
/// (asymmetric distance computation) primitive for product-quantized
/// probes. Entries are fixed-point integers (the PQ table builder quantizes
/// each f32 sub-dot to 16-bit fixed point in a `u32` slot), so accumulation
/// is pure integer adds: associative, exact, and therefore bit-identical on
/// every backend and at every thread count by definition. The AVX2 path
/// turns the table walk into 8-wide `vpgatherdd` gathers (one gather per
/// eight subspaces); SSE2 has no gather, so it shares the scalar loop.
///
/// # Panics
/// Panics when `lut.len() != codes.len() * 256`.
pub fn lut_gather(lut: &[u32], codes: &[u8]) -> u32 {
    assert_eq!(
        lut.len(),
        codes.len() * 256,
        "lut_gather: lut length {} does not match {} subspaces of 256",
        lut.len(),
        codes.len()
    );
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 && lut.len() <= GATHER_MAX {
        // SAFETY: `backend()` is `Avx2` only when the CPU reports AVX2; the
        // assert above gives `lut` one 256-entry table per code, so every
        // gathered offset `s·256 + code` is below `lut.len()`, which
        // `GATHER_MAX` keeps within `i32`.
        return unsafe { x86::lut_gather_avx2(lut, codes) };
    }
    striped::lut_gather(lut, codes)
}

/// Block form of [`lut_gather`]: one ADC table set against a packed
/// row-major panel of code rows (`panel[r·m..(r+1)·m]` is row `r`). Exact
/// on every backend.
///
/// # Panics
/// Panics when `lut.len()` is not a multiple of 256 or `panel.len()` does
/// not match `out.len()` rows of `lut.len() / 256` codes.
pub fn lut_gather_block(lut: &[u32], panel: &[u8], out: &mut [u32]) {
    assert_eq!(
        lut.len() % 256,
        0,
        "lut_gather_block: lut length {} is not a multiple of 256",
        lut.len()
    );
    let m = lut.len() / 256;
    assert_eq!(
        panel.len(),
        m * out.len(),
        "lut_gather_block: panel length {} does not match {} rows of {m}",
        panel.len(),
        out.len()
    );
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 && lut.len() <= GATHER_MAX {
        // SAFETY: `backend()` is `Avx2` only when the CPU reports AVX2; the
        // asserts above make `lut` whole 256-entry tables, at most `GATHER_MAX`
        // entries long, and `panel` exactly `out.len()` rows of one code per
        // table.
        return unsafe { x86::lut_gather_block_avx2(lut, panel, out) };
    }
    striped::lut_gather_block(lut, panel, out)
}

/// Row-indexed form of [`lut_gather_block`]: ADC sums for the code rows
/// `rows[j]` of a flat row-major store, with no packed panel in between.
/// Exact on every backend.
///
/// # Panics
/// Panics when `lut.len()` is not a multiple of 256, `rows.len() !=
/// out.len()`, or any row index is out of range for `codes`.
pub fn lut_gather_rows(lut: &[u32], codes: &[u8], rows: &[usize], out: &mut [u32]) {
    assert_eq!(
        lut.len() % 256,
        0,
        "lut_gather_rows: lut length {} not a multiple of 256",
        lut.len()
    );
    let m = lut.len() / 256;
    assert_eq!(
        rows.len(),
        out.len(),
        "lut_gather_rows: {} rows for {} outputs",
        rows.len(),
        out.len()
    );
    for &r in rows {
        assert!(row_fits(r, m, codes.len()), "lut_gather_rows: row {r} out of range");
    }
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 && lut.len() <= GATHER_MAX {
        // SAFETY: `backend()` is `Avx2` only when the CPU reports AVX2; the
        // asserts above make `lut` whole 256-entry tables, at most `GATHER_MAX`
        // entries long, match `rows` to `out`, and put every indexed row inside
        // `codes`.
        return unsafe { x86::lut_gather_rows_avx2(lut, codes, rows, out) };
    }
    striped::lut_gather_rows(lut, codes, rows, out)
}

/// 4-bit ADC single-row form: `codes[s]` holds one nibble value per byte
/// (high nibble bits are ignored) and `lut` holds `codes.len()` tables of
/// 16 `u8` entries. A single row has no lanes to amortize a shuffle over,
/// so every backend shares the scalar walk — the SIMD win lives in
/// [`lut_gather4_block`].
///
/// # Panics
/// Panics when `lut.len() != codes.len() * 16`.
pub fn lut_gather4(lut: &[u8], codes: &[u8]) -> u32 {
    assert_eq!(
        lut.len(),
        codes.len() * 16,
        "lut_gather4: lut length {} does not match {} subspaces of 16",
        lut.len(),
        codes.len()
    );
    striped::lut_gather4(lut, codes)
}

/// Block form of the 4-bit ADC over a **transposed** (subspace-major)
/// nibble panel: `codes_t[s·rows + r]` is row `r`'s code in subspace `s`,
/// one nibble value per byte (high bits ignored). The transposed layout is
/// what lets AVX2 run `pshufb`-style 16-way nibble gathers: each
/// subspace's 16-entry table broadcasts to both 128-bit lanes and one
/// shuffle looks up 32 rows' codes at once. Partial sums ride exact
/// `u16`/`u32` integer adds, so every backend agrees bit-for-bit (SSE2
/// lacks `pshufb`, so it shares the scalar loop).
///
/// # Panics
/// Panics when the buffer shapes disagree or there are more than 256
/// subspaces (the `u16` partials are exact only up to 256 entries of 255).
pub fn lut_gather4_block(lut: &[u8], codes_t: &[u8], out: &mut [u32]) {
    assert_eq!(
        lut.len() % 16,
        0,
        "lut_gather4_block: lut length {} is not a multiple of 16",
        lut.len()
    );
    let m = lut.len() / 16;
    assert!(m <= 256, "lut_gather4_block: {m} subspaces overflow the u16 partial sums");
    assert_eq!(
        codes_t.len(),
        m * out.len(),
        "lut_gather4_block: transposed panel length {} does not match {} rows of {m}",
        codes_t.len(),
        out.len()
    );
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 {
        // SAFETY: `backend()` is `Avx2` only when the CPU reports AVX2, and the
        // asserts above make `lut` whole 16-entry tables and `codes_t` one code
        // per table for each of the `out.len()` rows.
        return unsafe { x86::lut_gather4_block_avx2(lut, codes_t, out) };
    }
    striped::lut_gather4_block(lut, codes_t, out)
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

    /// Scalar int8 dot, exact in `i32`. See [`super::dot_i8`].
    pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        assert_eq!(a.len(), b.len(), "dimension mismatch: {} vs {}", a.len(), b.len());
        let mut sum = 0i32;
        for (&x, &y) in a.iter().zip(b) {
            sum += x as i32 * y as i32;
        }
        sum
    }

    /// Scalar int8 block dot. See [`super::dot_i8_block`].
    pub fn dot_i8_block(query: &[i8], panel: &[i8], out: &mut [i32]) {
        let d = query.len();
        assert_eq!(panel.len(), d * out.len(), "dot_i8_block: panel/rows mismatch");
        for (r, o) in out.iter_mut().enumerate() {
            *o = dot_i8(query, &panel[r * d..(r + 1) * d]);
        }
    }

    /// Scalar row-indexed int8 dots. See [`super::dot_i8_rows`].
    pub fn dot_i8_rows(query: &[i8], codes: &[i8], rows: &[usize], out: &mut [i32]) {
        let d = query.len();
        assert_eq!(rows.len(), out.len(), "dot_i8_rows: rows/outputs mismatch");
        for (&r, o) in rows.iter().zip(out) {
            *o = dot_i8(query, &codes[r * d..(r + 1) * d]);
        }
    }

    /// Scalar 8-bit ADC table walk, exact in `u32`. See
    /// [`super::lut_gather`].
    pub fn lut_gather(lut: &[u32], codes: &[u8]) -> u32 {
        assert_eq!(lut.len(), codes.len() * 256, "lut_gather: lut/codes mismatch");
        let mut sum = 0u32;
        for (s, &c) in codes.iter().enumerate() {
            sum = sum.wrapping_add(lut[s * 256 + c as usize]);
        }
        sum
    }

    /// Scalar 8-bit ADC block walk. See [`super::lut_gather_block`].
    pub fn lut_gather_block(lut: &[u32], panel: &[u8], out: &mut [u32]) {
        let m = lut.len() / 256;
        assert_eq!(panel.len(), m * out.len(), "lut_gather_block: panel/rows mismatch");
        for (r, o) in out.iter_mut().enumerate() {
            *o = lut_gather(lut, &panel[r * m..(r + 1) * m]);
        }
    }

    /// Scalar row-indexed 8-bit ADC walk. See [`super::lut_gather_rows`].
    pub fn lut_gather_rows(lut: &[u32], codes: &[u8], rows: &[usize], out: &mut [u32]) {
        let m = lut.len() / 256;
        assert_eq!(rows.len(), out.len(), "lut_gather_rows: rows/outputs mismatch");
        for (&r, o) in rows.iter().zip(out) {
            *o = lut_gather(lut, &codes[r * m..(r + 1) * m]);
        }
    }

    /// Scalar 4-bit ADC table walk. See [`super::lut_gather4`].
    pub fn lut_gather4(lut: &[u8], codes: &[u8]) -> u32 {
        assert_eq!(lut.len(), codes.len() * 16, "lut_gather4: lut/codes mismatch");
        let mut sum = 0u32;
        for (s, &c) in codes.iter().enumerate() {
            sum += lut[s * 16 + (c & 15) as usize] as u32;
        }
        sum
    }

    /// Scalar 4-bit ADC block walk over a transposed panel. See
    /// [`super::lut_gather4_block`].
    pub fn lut_gather4_block(lut: &[u8], codes_t: &[u8], out: &mut [u32]) {
        let m = lut.len() / 16;
        let rows = out.len();
        assert_eq!(codes_t.len(), m * rows, "lut_gather4_block: panel/rows mismatch");
        for (r, o) in out.iter_mut().enumerate() {
            let mut sum = 0u32;
            for s in 0..m {
                sum += lut[s * 16 + (codes_t[s * rows + r] & 15) as usize] as u32;
            }
            *o = sum;
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

    // ---- dot_i8 ---------------------------------------------------------

    /// int8 dot via sign-extension to i16 and `madd` (pairs of i16 products
    /// summed into i32 lanes). Integer adds are associative, so the lane
    /// layout is free to differ from scalar — the result is exact either way.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. `a` and `b` must have the same length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
        let n = a.len();
        let split = n - n % 16;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i < split {
            let va = _mm256_cvtepi8_epi16(_mm_loadu_si128(pa.add(i) as *const __m128i));
            let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(pb.add(i) as *const __m128i));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
            i += 16;
        }
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
        let mut sum: i32 = lanes.iter().sum();
        for i in split..n {
            sum += *pa.add(i) as i32 * *pb.add(i) as i32;
        }
        sum
    }

    /// Four int8 dots sharing every 16-wide query conversion: one
    /// `cvtepi8_epi16` of the query chunk feeds four independent
    /// `madd`-accumulator chains (inter-dot ILP), and a 3-`hadd` transpose
    /// reduces all four accumulators at once instead of four lane spills.
    /// Integer adds are associative, so the result is exact either way.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. Each of `p0`–`p3` must be valid for reads of
    /// `query.len()` elements.
    #[target_feature(enable = "avx2")]
    unsafe fn dot_i8_quad_avx2(
        query: &[i8],
        p0: *const i8,
        p1: *const i8,
        p2: *const i8,
        p3: *const i8,
    ) -> (i32, i32, i32, i32) {
        let n = query.len();
        let split = n - n % 16;
        let pq = query.as_ptr();
        let mut a0 = _mm256_setzero_si256();
        let mut a1 = _mm256_setzero_si256();
        let mut a2 = _mm256_setzero_si256();
        let mut a3 = _mm256_setzero_si256();
        let mut i = 0;
        while i < split {
            let vq = _mm256_cvtepi8_epi16(_mm_loadu_si128(pq.add(i) as *const __m128i));
            let r0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(p0.add(i) as *const __m128i));
            let r1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(p1.add(i) as *const __m128i));
            let r2 = _mm256_cvtepi8_epi16(_mm_loadu_si128(p2.add(i) as *const __m128i));
            let r3 = _mm256_cvtepi8_epi16(_mm_loadu_si128(p3.add(i) as *const __m128i));
            a0 = _mm256_add_epi32(a0, _mm256_madd_epi16(vq, r0));
            a1 = _mm256_add_epi32(a1, _mm256_madd_epi16(vq, r1));
            a2 = _mm256_add_epi32(a2, _mm256_madd_epi16(vq, r2));
            a3 = _mm256_add_epi32(a3, _mm256_madd_epi16(vq, r3));
            i += 16;
        }
        let (mut s0, mut s1, mut s2, mut s3) = reduce_quad_epi32(a0, a1, a2, a3);
        for i in split..n {
            let q = *pq.add(i) as i32;
            s0 += q * *p0.add(i) as i32;
            s1 += q * *p1.add(i) as i32;
            s2 += q * *p2.add(i) as i32;
            s3 += q * *p3.add(i) as i32;
        }
        (s0, s1, s2, s3)
    }

    /// Transposes four 8-lane i32 accumulators into their four total sums:
    /// `hadd(hadd(a0,a1), hadd(a2,a3))` leaves `[a0 a1 a2 a3]` partials in
    /// each 128-bit half, and one final add folds the halves.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn reduce_quad_epi32(
        a0: __m256i,
        a1: __m256i,
        a2: __m256i,
        a3: __m256i,
    ) -> (i32, i32, i32, i32) {
        let h01 = _mm256_hadd_epi32(a0, a1);
        let h23 = _mm256_hadd_epi32(a2, a3);
        let h = _mm256_hadd_epi32(h01, h23);
        let s = _mm_add_epi32(_mm256_castsi256_si128(h), _mm256_extracti128_si256::<1>(h));
        let mut lanes = [0i32; 4];
        _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, s);
        (lanes[0], lanes[1], lanes[2], lanes[3])
    }

    /// Blocked int8 dots: quad rows share query conversions, the tail runs
    /// the single-row kernel. See [`super::dot_i8_block`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. `panel.len()` must equal `query.len() *
    /// out.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8_block_avx2(query: &[i8], panel: &[i8], out: &mut [i32]) {
        let d = query.len();
        let rows = out.len();
        let pp = panel.as_ptr();
        let mut r = 0;
        while r + 4 <= rows {
            let (s0, s1, s2, s3) = dot_i8_quad_avx2(
                query,
                pp.add(r * d),
                pp.add((r + 1) * d),
                pp.add((r + 2) * d),
                pp.add((r + 3) * d),
            );
            out[r] = s0;
            out[r + 1] = s1;
            out[r + 2] = s2;
            out[r + 3] = s3;
            r += 4;
        }
        for r in r..rows {
            out[r] = dot_i8_avx2(query, &panel[r * d..(r + 1) * d]);
        }
    }

    /// Row-indexed int8 dots straight off the flat code store. See
    /// [`super::dot_i8_rows`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. `rows.len()` must equal `out.len()`, and
    /// every `r` in `rows` must satisfy `(r + 1) * query.len() <= codes.len()`
    /// without overflow.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8_rows_avx2(query: &[i8], codes: &[i8], rows: &[usize], out: &mut [i32]) {
        let d = query.len();
        let pc = codes.as_ptr();
        let mut r = 0;
        while r + 4 <= rows.len() {
            let (s0, s1, s2, s3) = dot_i8_quad_avx2(
                query,
                pc.add(rows[r] * d),
                pc.add(rows[r + 1] * d),
                pc.add(rows[r + 2] * d),
                pc.add(rows[r + 3] * d),
            );
            out[r] = s0;
            out[r + 1] = s1;
            out[r + 2] = s2;
            out[r + 3] = s3;
            r += 4;
        }
        for r in r..rows.len() {
            out[r] = dot_i8_avx2(query, &codes[rows[r] * d..(rows[r] + 1) * d]);
        }
    }

    // ---- lut_gather (product-quantization ADC) --------------------------

    /// 8-bit ADC via `vpgatherdd`: eight subspace codes zero-extend to i32
    /// table offsets and one gather pulls eight fixed-point entries at once.
    /// Integer adds are associative, so the lane layout is free to differ
    /// from scalar — the sum is exact either way.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. `lut.len()` must equal `codes.len() * 256`
    /// and be at most `i32::MAX`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn lut_gather_avx2(lut: &[u32], codes: &[u8]) -> u32 {
        let m = codes.len();
        let split = m - m % 8;
        let base = lut.as_ptr() as *const i32;
        let pc = codes.as_ptr();
        let mut offs = _mm256_setr_epi32(0, 256, 512, 768, 1024, 1280, 1536, 1792);
        let step = _mm256_set1_epi32(8 * 256);
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i < split {
            let idx = _mm256_cvtepu8_epi32(_mm_loadl_epi64(pc.add(i) as *const __m128i));
            let vals = _mm256_i32gather_epi32::<4>(base, _mm256_add_epi32(offs, idx));
            acc = _mm256_add_epi32(acc, vals);
            offs = _mm256_add_epi32(offs, step);
            i += 8;
        }
        let mut lanes = [0u32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
        let mut sum = lanes.iter().fold(0u32, |a, &x| a.wrapping_add(x));
        for s in split..m {
            sum = sum.wrapping_add(lut[s * 256 + *pc.add(s) as usize]);
        }
        sum
    }

    /// Four ADC row sums at once: each 8-subspace chunk issues four
    /// `vpgatherdd`s sharing the same offset vector, and the quad `hadd`
    /// transpose replaces four per-row lane spills — the reduction is the
    /// dominant cost at the PQ code widths (m = 8 is a single chunk).
    /// Wrapping integer adds are associative, so the sums are exact.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. `lut.len()` must be a multiple of 256 and at
    /// most `i32::MAX`, and each of `c0`–`c3` must be valid for reads of
    /// `lut.len() / 256` bytes.
    #[target_feature(enable = "avx2")]
    unsafe fn lut_gather_quad_avx2(
        lut: &[u32],
        c0: *const u8,
        c1: *const u8,
        c2: *const u8,
        c3: *const u8,
    ) -> (u32, u32, u32, u32) {
        let m = lut.len() / 256;
        let split = m - m % 8;
        let base = lut.as_ptr() as *const i32;
        let mut offs = _mm256_setr_epi32(0, 256, 512, 768, 1024, 1280, 1536, 1792);
        let step = _mm256_set1_epi32(8 * 256);
        let mut a0 = _mm256_setzero_si256();
        let mut a1 = _mm256_setzero_si256();
        let mut a2 = _mm256_setzero_si256();
        let mut a3 = _mm256_setzero_si256();
        let mut i = 0;
        while i < split {
            let i0 = _mm256_cvtepu8_epi32(_mm_loadl_epi64(c0.add(i) as *const __m128i));
            let i1 = _mm256_cvtepu8_epi32(_mm_loadl_epi64(c1.add(i) as *const __m128i));
            let i2 = _mm256_cvtepu8_epi32(_mm_loadl_epi64(c2.add(i) as *const __m128i));
            let i3 = _mm256_cvtepu8_epi32(_mm_loadl_epi64(c3.add(i) as *const __m128i));
            a0 =
                _mm256_add_epi32(a0, _mm256_i32gather_epi32::<4>(base, _mm256_add_epi32(offs, i0)));
            a1 =
                _mm256_add_epi32(a1, _mm256_i32gather_epi32::<4>(base, _mm256_add_epi32(offs, i1)));
            a2 =
                _mm256_add_epi32(a2, _mm256_i32gather_epi32::<4>(base, _mm256_add_epi32(offs, i2)));
            a3 =
                _mm256_add_epi32(a3, _mm256_i32gather_epi32::<4>(base, _mm256_add_epi32(offs, i3)));
            offs = _mm256_add_epi32(offs, step);
            i += 8;
        }
        let (s0, s1, s2, s3) = reduce_quad_epi32(a0, a1, a2, a3);
        let (mut s0, mut s1, mut s2, mut s3) = (s0 as u32, s1 as u32, s2 as u32, s3 as u32);
        for s in split..m {
            s0 = s0.wrapping_add(lut[s * 256 + *c0.add(s) as usize]);
            s1 = s1.wrapping_add(lut[s * 256 + *c1.add(s) as usize]);
            s2 = s2.wrapping_add(lut[s * 256 + *c2.add(s) as usize]);
            s3 = s3.wrapping_add(lut[s * 256 + *c3.add(s) as usize]);
        }
        (s0, s1, s2, s3)
    }

    /// Blocked 8-bit ADC: quad rows share gather offsets, the tail runs the
    /// single-row kernel. See [`super::lut_gather_block`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. `lut.len()` must be a multiple of 256 and at
    /// most `i32::MAX`, and `panel.len()` must equal `lut.len() / 256 *
    /// out.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn lut_gather_block_avx2(lut: &[u32], panel: &[u8], out: &mut [u32]) {
        let m = lut.len() / 256;
        let rows = out.len();
        let pp = panel.as_ptr();
        let mut r = 0;
        while r + 4 <= rows {
            let (s0, s1, s2, s3) = lut_gather_quad_avx2(
                lut,
                pp.add(r * m),
                pp.add((r + 1) * m),
                pp.add((r + 2) * m),
                pp.add((r + 3) * m),
            );
            out[r] = s0;
            out[r + 1] = s1;
            out[r + 2] = s2;
            out[r + 3] = s3;
            r += 4;
        }
        for r in r..rows {
            out[r] = lut_gather_avx2(lut, &panel[r * m..(r + 1) * m]);
        }
    }

    /// Row-indexed 8-bit ADC sums straight off the flat code store. See
    /// [`super::lut_gather_rows`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. `lut.len()` must be a multiple of 256 and at
    /// most `i32::MAX`, `rows.len()` must equal `out.len()`, and every `r` in
    /// `rows` must satisfy `(r + 1) * (lut.len() / 256) <= codes.len()` without
    /// overflow.
    #[target_feature(enable = "avx2")]
    pub unsafe fn lut_gather_rows_avx2(lut: &[u32], codes: &[u8], rows: &[usize], out: &mut [u32]) {
        let m = lut.len() / 256;
        let pc = codes.as_ptr();
        let mut r = 0;
        while r + 4 <= rows.len() {
            let (s0, s1, s2, s3) = lut_gather_quad_avx2(
                lut,
                pc.add(rows[r] * m),
                pc.add(rows[r + 1] * m),
                pc.add(rows[r + 2] * m),
                pc.add(rows[r + 3] * m),
            );
            out[r] = s0;
            out[r + 1] = s1;
            out[r + 2] = s2;
            out[r + 3] = s3;
            r += 4;
        }
        for r in r..rows.len() {
            out[r] = lut_gather_avx2(lut, &codes[rows[r] * m..(rows[r] + 1) * m]);
        }
    }

    /// 4-bit ADC fast scan: per subspace the 16-entry table broadcasts to
    /// both 128-bit lanes and one `pshufb` looks up 32 rows' nibbles at
    /// once; 32-row strips accumulate `u16` partials (exact for m ≤ 256)
    /// widened to `u32` at strip end.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. `lut.len()` must be a multiple of 16, and
    /// `codes_t.len()` must equal `lut.len() / 16 * out.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn lut_gather4_block_avx2(lut: &[u8], codes_t: &[u8], out: &mut [u32]) {
        let m = lut.len() / 16;
        let rows = out.len();
        let split = rows - rows % 32;
        let mask = _mm256_set1_epi8(0x0f);
        let zero = _mm256_setzero_si256();
        let pl = lut.as_ptr();
        let pc = codes_t.as_ptr();
        let mut r = 0;
        while r < split {
            let mut acc_lo = _mm256_setzero_si256();
            let mut acc_hi = _mm256_setzero_si256();
            for s in 0..m {
                let table =
                    _mm256_broadcastsi128_si256(_mm_loadu_si128(pl.add(s * 16) as *const __m128i));
                let idx = _mm256_and_si256(
                    _mm256_loadu_si256(pc.add(s * rows + r) as *const __m256i),
                    mask,
                );
                let vals = _mm256_shuffle_epi8(table, idx);
                acc_lo = _mm256_add_epi16(acc_lo, _mm256_unpacklo_epi8(vals, zero));
                acc_hi = _mm256_add_epi16(acc_hi, _mm256_unpackhi_epi8(vals, zero));
            }
            // Undo the per-lane unpack interleave: within each 128-bit lane,
            // unpacklo carried bytes 0–7 and unpackhi bytes 8–15, so lane 0
            // covers rows r..r+16 and lane 1 rows r+16..r+32.
            let mut lo = [0u16; 16];
            let mut hi = [0u16; 16];
            _mm256_storeu_si256(lo.as_mut_ptr() as *mut __m256i, acc_lo);
            _mm256_storeu_si256(hi.as_mut_ptr() as *mut __m256i, acc_hi);
            for j in 0..8 {
                out[r + j] = lo[j] as u32;
                out[r + 8 + j] = hi[j] as u32;
                out[r + 16 + j] = lo[8 + j] as u32;
                out[r + 24 + j] = hi[8 + j] as u32;
            }
            r += 32;
        }
        while r < rows {
            let mut sum = 0u32;
            for s in 0..m {
                sum += *pl.add(s * 16 + (*pc.add(s * rows + r) & 15) as usize) as u32;
            }
            out[r] = sum;
            r += 1;
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

    /// Widening int8 dot, exact in `i32`.
    pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        assert_eq!(a.len(), b.len());
        let mut sum = 0i32;
        for i in 0..a.len() {
            sum += a[i] as i32 * b[i] as i32;
        }
        sum
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

    fn wave_i8(len: usize, phase: u32) -> Vec<i8> {
        (0..len)
            .map(|i| {
                (((i as u32).wrapping_mul(2654435761).wrapping_add(phase) >> 24) as i32 - 128) as i8
            })
            .collect()
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
                // int8: exact integers, every backend.
                let ia = wave_i8(len, 7);
                let ib = wave_i8(len, 99);
                assert_eq!(
                    dot_i8(&ia, &ib),
                    reference::dot_i8(&ia, &ib),
                    "dot_i8 {name} len {len}"
                );
                for rows in [0, 1, 3, 5] {
                    let panel: Vec<i8> =
                        (0..rows).flat_map(|r| wave_i8(len, r as u32 + 11)).collect();
                    let mut got = vec![0i32; rows];
                    let mut want = vec![0i32; rows];
                    dot_i8_block(&ia, &panel, &mut got);
                    striped::dot_i8_block(&ia, &panel, &mut want);
                    assert_eq!(got, want, "dot_i8_block {name} len {len} rows {rows}");
                }
                // Row-indexed int8 dots over a shuffled, repeating row set
                // (quad path + tail + repeated rows).
                let store: Vec<i8> = (0..7).flat_map(|r| wave_i8(len, r as u32 + 23)).collect();
                let rows_idx = [3usize, 0, 6, 6, 2, 5];
                let mut got = vec![0i32; rows_idx.len()];
                let mut want = vec![0i32; rows_idx.len()];
                dot_i8_rows(&ia, &store, &rows_idx, &mut got);
                striped::dot_i8_rows(&ia, &store, &rows_idx, &mut want);
                assert_eq!(got, want, "dot_i8_rows {name} len {len}");
            }
            // ADC lut gathers: fixed-point integers, exact on every backend.
            for m in [0usize, 1, 5, 8, 16, 19] {
                let name = be.name();
                let lut: Vec<u32> =
                    (0..m * 256).map(|i| (i as u32).wrapping_mul(2654435761) >> 16).collect();
                let codes: Vec<u8> = (0..m).map(|s| (s * 37 + 11) as u8).collect();
                assert_eq!(
                    lut_gather(&lut, &codes),
                    striped::lut_gather(&lut, &codes),
                    "lut_gather {name} m {m}"
                );
                for rows in [0usize, 1, 3, 9] {
                    let panel: Vec<u8> = (0..rows * m).map(|i| (i * 13 + 5) as u8).collect();
                    let mut got = vec![0u32; rows];
                    let mut want = vec![0u32; rows];
                    lut_gather_block(&lut, &panel, &mut got);
                    striped::lut_gather_block(&lut, &panel, &mut want);
                    assert_eq!(got, want, "lut_gather_block {name} m {m} rows {rows}");
                }
                // Row-indexed ADC sums over a shuffled, repeating row set.
                let store: Vec<u8> = (0..7 * m).map(|i| (i * 11 + 2) as u8).collect();
                let rows_idx = [4usize, 1, 1, 6, 0, 3];
                let mut got = vec![0u32; rows_idx.len()];
                let mut want = vec![0u32; rows_idx.len()];
                lut_gather_rows(&lut, &store, &rows_idx, &mut got);
                striped::lut_gather_rows(&lut, &store, &rows_idx, &mut want);
                assert_eq!(got, want, "lut_gather_rows {name} m {m}");
                let lut4: Vec<u8> = (0..m * 16).map(|i| (i * 29 + 3) as u8).collect();
                let codes4: Vec<u8> = (0..m).map(|s| (s % 16) as u8).collect();
                assert_eq!(
                    lut_gather4(&lut4, &codes4),
                    striped::lut_gather4(&lut4, &codes4),
                    "lut_gather4 {name} m {m}"
                );
                for rows in [0usize, 1, 31, 32, 33, 80] {
                    let codes_t: Vec<u8> = (0..m * rows).map(|i| (i % 16) as u8).collect();
                    let mut got = vec![0u32; rows];
                    let mut want = vec![0u32; rows];
                    lut_gather4_block(&lut4, &codes_t, &mut got);
                    striped::lut_gather4_block(&lut4, &codes_t, &mut want);
                    assert_eq!(got, want, "lut_gather4_block {name} m {m} rows {rows}");
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
    fn lut_gather_known_values() {
        let mut lut = vec![0u32; 2 * 256];
        lut[3] = 10;
        lut[256 + 200] = 5;
        assert_eq!(lut_gather(&lut, &[3, 200]), 15);
        assert_eq!(lut_gather(&[], &[]), 0);
        let lut4: Vec<u8> = (0..32).collect();
        assert_eq!(lut_gather4(&lut4, &[2, 3]), 2 + 16 + 3);
        // High nibble bits of a 4-bit code are ignored.
        assert_eq!(lut_gather4(&lut4, &[0xf2, 3]), 2 + 16 + 3);
        // Block forms agree with the single-row forms.
        let mut out = [0u32; 2];
        lut_gather_block(&lut, &[3, 200, 0, 0], &mut out);
        assert_eq!(out, [15, 0]);
        let codes_t = [2, 0, 3, 1]; // transposed: subspace 0 rows, subspace 1 rows
        lut_gather4_block(&lut4, &codes_t, &mut out);
        assert_eq!(out, [2 + 16 + 3, 16 + 1]);
    }

    #[test]
    #[should_panic(expected = "lut_gather: lut length")]
    fn lut_gather_rejects_mismatch() {
        lut_gather(&[0u32; 256], &[0, 1]);
    }

    /// A row index whose end offset `(r + 1) · 16` wraps to 0. Four of
    /// them reach the 4-row kernels, which offset by `r · 16`.
    const WRAPPING_ROW: usize = usize::MAX / 16;

    #[test]
    #[should_panic(expected = "out of range")]
    fn dot_i8_rows_rejects_a_row_whose_offset_wraps() {
        let mut out = [0i32; 4];
        dot_i8_rows(&[1; 16], &[1; 32], &[WRAPPING_ROW; 4], &mut out);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lut_gather_rows_rejects_a_row_whose_offset_wraps() {
        let mut out = [0u32; 4];
        lut_gather_rows(&vec![1; 16 * 256], &[1; 32], &[WRAPPING_ROW; 4], &mut out);
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
