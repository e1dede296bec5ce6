//! Scalar-reference vs kernel ns/op for the compute primitives the pipeline
//! leans on, now with one row **per kernel backend**: `scalar` is the
//! pre-kernel implementation (sequential single-accumulator sums, per-probe
//! norm recomputation, naive i-k-j matmul), `striped` is the portable
//! 8-lane-striped kernel backend, and `simd` is the widest `core::arch`
//! backend the host supports (AVX2/SSE2; the row is absent on hosts without
//! one). The striped and simd rows compute bit-identical results — the rows
//! measure the speed of the *same* arithmetic.
//!
//! One ANN-level workload rides along: `ExactIndex::search` over 100k
//! 64-dim entries, the f32 scan the semantic cache's near tier runs.
//!
//! After the Criterion runs a hand-written `main` computes per-workload
//! speedups and writes a machine-readable summary to `BENCH_kernels.json`
//! at the workspace root.

use criterion::Criterion;
use std::hint::black_box;

use pas_ann::{CosineDistance, ExactIndex, Metric};
use pas_kernels::Backend;
use pas_nn::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The embedding dimension of the selection pipeline (`SelectionConfig`).
const EMBED_DIM: usize = 64;
/// Stored vectors probed per iteration in the dot/cosine workloads.
const PROBES: usize = 256;

/// Pre-kernel scalar implementations, verbatim from the replaced code.
mod scalar {
    /// Sequential single-accumulator dot product.
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// The old `CosineDistance::distance`: fused pass recomputing both
    /// operand norms (two `sqrt`s) on every probe.
    pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
        let mut dot = 0.0f32;
        let mut na = 0.0f32;
        let mut nb = 0.0f32;
        for (&x, &y) in a.iter().zip(b) {
            dot += x * y;
            na += x * x;
            nb += y * y;
        }
        if na == 0.0 || nb == 0.0 {
            return 1.0;
        }
        (1.0 - dot / (na.sqrt() * nb.sqrt())).max(0.0)
    }

    /// The old unblocked i-k-j `Matrix::matmul`.
    pub fn matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        out
    }
}

fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| (0..dim).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect()).collect()
}

fn prepare_unit(v: &[f32]) -> Vec<f32> {
    let mut u = v.to_vec();
    CosineDistance.prepare(&mut u);
    u
}

/// Benches `scalar` under `group/scalar` and `kernel` under both
/// `group/striped` (backend pinned to the portable stripes) and
/// `group/simd` (widest supported backend; skipped on scalar-only hosts).
/// Leaves the process on the best backend.
fn bench_rows<R, F: Fn() -> R, G: Fn() -> R>(c: &mut Criterion, group: &str, scalar: F, kernel: G) {
    let mut g = c.benchmark_group(group);
    g.sample_size(20);
    g.bench_function("scalar", |b| b.iter(|| black_box(scalar())));
    pas_kernels::set_backend(Backend::Scalar);
    g.bench_function("striped", |b| b.iter(|| black_box(kernel())));
    if pas_kernels::simd_available() {
        pas_kernels::set_backend(pas_kernels::best_supported());
        g.bench_function("simd", |b| b.iter(|| black_box(kernel())));
    }
    pas_kernels::set_backend(pas_kernels::best_supported());
    g.finish();
}

fn bench_dot(c: &mut Criterion) {
    // Pairwise dots are latency-bound (one dependent accumulator chain), so
    // the simd row here shows parity, not speedup — the panel workloads
    // below are where the independent-chain backends pull ahead.
    let stored = random_vectors(PROBES, EMBED_DIM, 101);
    let query = &random_vectors(1, EMBED_DIM, 103)[0];
    bench_rows(
        c,
        "kernels_dot_64",
        || stored.iter().map(|v| scalar::dot(query, v)).sum::<f32>(),
        || stored.iter().map(|v| pas_kernels::dot(query, v)).sum::<f32>(),
    );
}

fn bench_cosine_probe(c: &mut Criterion) {
    // Scalar side probes raw vectors, recomputing both norms each time (the
    // old per-probe path). Kernel side is the production probe: unit vectors
    // prepared once at insert and packed into a panel, one
    // `prepared_distance_block` per sweep.
    let raw = random_vectors(PROBES, EMBED_DIM, 107);
    let raw_query = &random_vectors(1, EMBED_DIM, 109)[0];
    let panel: Vec<f32> = raw.iter().flat_map(|v| prepare_unit(v)).collect();
    let unit_query = prepare_unit(raw_query);
    bench_rows(
        c,
        "kernels_cosine_probe_64",
        || raw.iter().map(|v| scalar::cosine_distance(raw_query, v)).sum::<f32>(),
        || {
            let mut out = vec![0.0f32; PROBES];
            CosineDistance.prepared_distance_block(&unit_query, &panel, &mut out);
            out.iter().sum::<f32>()
        },
    );
}

fn bench_matmul(c: &mut Criterion, group: &'static str, m: usize, k: usize, n: usize) {
    let a = random_vectors(1, m * k, 113 + (m * k) as u64)[0].clone();
    let b = random_vectors(1, k * n, 127 + (k * n) as u64)[0].clone();
    let ma = Matrix::from_vec(m, k, a.clone());
    let mb = Matrix::from_vec(k, n, b.clone());
    bench_rows(c, group, || scalar::matmul(m, k, n, &a, &b)[0], || ma.matmul(&mb).data()[0]);
}

/// Index size for the large-index probe workload.
const BIG_ROWS: usize = 100_000;

fn bench_big_index_probe(c: &mut Criterion) {
    // `ExactIndex::search` at 100k entries: 25.6 MB of f32 rows, scanned
    // in parallel chunks, each kept to a bounded top-k.
    let mut index = ExactIndex::new(CosineDistance);
    for v in random_vectors(BIG_ROWS, EMBED_DIM, 157) {
        index.insert(v);
    }
    let query = &random_vectors(1, EMBED_DIM, 163)[0];
    let mut g = c.benchmark_group("ann_exact_probe_100000x64");
    g.sample_size(10);
    g.bench_function("f32", |b| b.iter(|| black_box(index.search(query, 8).len())));
    g.finish();
}

/// One kernel workload's summary line in `BENCH_kernels.json`.
struct Workload {
    name: &'static str,
    group: &'static str,
    elements: usize,
}

const WORKLOADS: [Workload; 5] = [
    Workload { name: "dot_64", group: "kernels_dot_64", elements: PROBES },
    Workload { name: "cosine_probe_64", group: "kernels_cosine_probe_64", elements: PROBES },
    Workload { name: "matmul_lm_hidden_32x64x32", group: "kernels_matmul_32x64x32", elements: 1 },
    Workload { name: "matmul_lm_logits_32x32x256", group: "kernels_matmul_32x32x256", elements: 1 },
    Workload { name: "matmul_square_64", group: "kernels_matmul_64x64x64", elements: 1 },
];

fn json_ratio(num: f64, denom: Option<f64>) -> String {
    match denom {
        Some(d) => format!("{:.2}", num / d),
        None => "null".into(),
    }
}

fn write_summary(c: &Criterion) {
    let mut kernel_lines = Vec::new();
    for w in &WORKLOADS {
        let scalar_ns = c.median_ns(&format!("{}/scalar", w.group));
        let striped_ns = c.median_ns(&format!("{}/striped", w.group));
        // `bench_rows` runs the simd row only where a SIMD backend exists.
        let simd_ns =
            pas_kernels::simd_available().then(|| c.median_ns(&format!("{}/simd", w.group)));
        kernel_lines.push(format!(
            concat!(
                "    {{\"name\": \"{}\", \"elements\": {}, ",
                "\"scalar_ns\": {:.0}, \"striped_ns\": {:.0}, \"simd_ns\": {}, ",
                "\"striped_vs_scalar\": {:.2}, \"simd_vs_striped\": {}}}"
            ),
            w.name,
            w.elements,
            scalar_ns,
            striped_ns,
            simd_ns.map(|v| format!("{v:.0}")).unwrap_or_else(|| "null".into()),
            scalar_ns / striped_ns,
            json_ratio(striped_ns, simd_ns),
        ));
    }

    let ann_line = format!(
        "    {{\"name\": \"exact_probe_100000x64\", \"rows\": {}, \"f32_ns\": {:.0}}}",
        BIG_ROWS,
        c.median_ns("ann_exact_probe_100000x64/f32"),
    );

    let json = format!(
        concat!(
            "{{\n  \"host\": {},\n  \"backend\": \"{}\",\n",
            "  \"kernels\": [\n{}\n  ],\n  \"ann\": [\n{}\n  ]\n}}\n"
        ),
        bench::host_json(),
        pas_kernels::backend().name(),
        kernel_lines.join(",\n"),
        ann_line,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(path, &json).expect("write BENCH_kernels.json");
    println!("\nwrote {path}:\n{json}");
}

fn main() {
    let mut c = Criterion::default();
    bench_dot(&mut c);
    bench_cosine_probe(&mut c);
    bench_matmul(&mut c, "kernels_matmul_32x64x32", 32, 64, 32);
    bench_matmul(&mut c, "kernels_matmul_32x32x256", 32, 32, 256);
    bench_matmul(&mut c, "kernels_matmul_64x64x64", 64, 64, 64);
    bench_big_index_probe(&mut c);
    write_summary(&c);
}
