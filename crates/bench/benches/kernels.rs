//! Scalar-reference vs kernel ns/op for the compute primitives the pipeline
//! leans on, now with one row **per kernel backend**: `scalar` is the
//! pre-kernel implementation (sequential single-accumulator sums, per-probe
//! norm recomputation, naive i-k-j matmul), `striped` is the portable
//! 8-lane-striped kernel backend, and `simd` is the widest `core::arch`
//! backend the host supports (AVX2/SSE2; the row is absent on hosts without
//! one). The striped and simd rows compute bit-identical results — the rows
//! measure the speed of the *same* arithmetic.
//!
//! ANN-level workloads ride along: the quantized probe paths (f32 panel
//! scan vs int8 integer-dot scan vs product-quantized ADC scan at the same
//! 64-dim shape, with the stored probe bytes per vector for each), PQ
//! codebook training, a 100k-entry `ExactIndex` probe across all three
//! tiers, and `Hnsw::search_batch` vs a sequential search loop over the
//! same micro-batch on every tier. The summary asserts the int8 and PQ
//! batched paths are no slower than their sequential loops — the committed
//! `BENCH_kernels.json` is the regression fence.
//!
//! After the Criterion runs a hand-written `main` computes per-workload
//! speedups and writes a machine-readable summary to `BENCH_kernels.json`
//! at the workspace root.

use criterion::Criterion;
use std::hint::black_box;

use pas_ann::{
    CosineDistance, ExactIndex, Hnsw, HnswConfig, Metric, PqConfig, PqStore, QuantStore,
};
use pas_kernels::Backend;
use pas_nn::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The embedding dimension of the selection pipeline (`SelectionConfig`).
const EMBED_DIM: usize = 64;
/// Stored vectors probed per iteration in the dot/cosine workloads.
const PROBES: usize = 256;
/// Rows in the quantized-probe panel (one ExactIndex scan chunk's worth).
const QUANT_ROWS: usize = 1024;
/// Index size and micro-batch width for the `search_batch` workload.
const BATCH_INDEX: usize = 2000;
const BATCH_QUERIES: usize = 16;

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

/// Benches two bodies under fixed row names, on the best backend.
fn bench_pair<R, F: Fn() -> R, G: Fn() -> R>(
    c: &mut Criterion,
    group: &str,
    rows: [&str; 2],
    first: F,
    second: G,
) {
    let mut g = c.benchmark_group(group);
    g.sample_size(20);
    g.bench_function(rows[0], |b| b.iter(|| black_box(first())));
    g.bench_function(rows[1], |b| b.iter(|| black_box(second())));
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

fn bench_quantized_probe(c: &mut Criterion) {
    // The ExactIndex/HNSW probe path at chunk scale: one query against a
    // packed 1024-row panel — f32 block probe vs int8 integer-dot block
    // probe vs product-quantized ADC block probe. All run on the best
    // backend; the bytes each path reads per stored vector go into the
    // summary. Per-query prep is excluded uniformly (the unit query, its
    // int8 codes, and the ADC table are built once outside the timed body).
    let raw = random_vectors(QUANT_ROWS, EMBED_DIM, 131);
    let unit: Vec<Vec<f32>> = raw.iter().map(|v| prepare_unit(v)).collect();
    let panel: Vec<f32> = unit.concat();
    let mut store = QuantStore::new();
    for u in &unit {
        store.push(&CosineDistance, u);
    }
    let rows: Vec<&[f32]> = unit.iter().map(|v| v.as_slice()).collect();
    let mut pq = PqStore::new(PqConfig::default());
    pq.train_encode(&rows, EMBED_DIM);
    let unit_query = prepare_unit(&random_vectors(1, EMBED_DIM, 137)[0]);
    let (qcodes, qscale) = CosineDistance.quantize(&unit_query).expect("cosine quantizes");
    let (codes, scales) = store.rows(0, QUANT_ROWS);
    let table = pq.table(&unit_query);
    let mut g = c.benchmark_group("ann_quant_probe_1024x64");
    g.sample_size(20);
    g.bench_function("f32", |b| {
        b.iter(|| {
            let mut out = vec![0.0f32; QUANT_ROWS];
            CosineDistance.prepared_distance_block(&unit_query, &panel, &mut out);
            black_box(out.iter().sum::<f32>())
        })
    });
    g.bench_function("int8", |b| {
        b.iter(|| {
            let mut out = vec![0.0f32; QUANT_ROWS];
            CosineDistance.quantized_distance_block(&qcodes, qscale, codes, scales, &mut out);
            black_box(out.iter().sum::<f32>())
        })
    });
    g.bench_function("pq", |b| {
        b.iter(|| {
            let mut sums = Vec::new();
            let mut out = Vec::new();
            table.distance_block(pq.rows(0, QUANT_ROWS), &mut sums, &mut out);
            black_box(out.iter().sum::<f32>())
        })
    });
    g.finish();
}

fn bench_pq_train(c: &mut Criterion) {
    // Codebook training + bulk encoding at index scale: seeded per-subspace
    // k-means over the training sample, then one encode pass over all rows.
    // This is the one-off cost the lazy-training threshold amortizes.
    let raw = random_vectors(QUANT_ROWS, EMBED_DIM, 131);
    let unit: Vec<Vec<f32>> = raw.iter().map(|v| prepare_unit(v)).collect();
    let rows: Vec<&[f32]> = unit.iter().map(|v| v.as_slice()).collect();
    let mut g = c.benchmark_group("ann_pq_train_1024x64");
    g.sample_size(10);
    g.bench_function("train", |b| {
        b.iter(|| {
            let mut store = PqStore::new(PqConfig::default());
            store.train_encode(&rows, EMBED_DIM);
            black_box(store.len())
        })
    });
    g.finish();
}

/// Index size for the large-index probe workload.
const BIG_ROWS: usize = 100_000;

fn bench_big_index_probe(c: &mut Criterion) {
    // End-to-end `ExactIndex::search` (scan + over-fetch + exact re-rank)
    // at 100k entries, where the probe tier's memory traffic dominates:
    // 25.6 MB of f32 panels vs 6.8 MB of int8 codes vs 0.8 MB of PQ codes.
    let raw = random_vectors(BIG_ROWS, EMBED_DIM, 157);
    let mut plain = ExactIndex::new(CosineDistance);
    let mut int8 = ExactIndex::new(CosineDistance);
    int8.set_quantization(true);
    let mut pq = ExactIndex::new(CosineDistance);
    pq.set_product_quantization(true);
    for v in &raw {
        plain.insert(v.clone());
        int8.insert(v.clone());
        pq.insert(v.clone());
    }
    let query = &random_vectors(1, EMBED_DIM, 163)[0];
    let mut g = c.benchmark_group("ann_exact_probe_100000x64");
    g.sample_size(10);
    for (row, idx) in [("f32", &plain), ("int8", &int8), ("pq", &pq)] {
        g.bench_function(row, |b| b.iter(|| black_box(idx.search(query, 8).len())));
    }
    g.finish();
}

fn bench_search_batch(c: &mut Criterion) {
    // A gateway micro-batch against the HNSW index: sequential per-query
    // `search` vs `search_batch`, on the f32 index and on its int8- and
    // product-quantized twins. On f32 `search_batch` is that same loop, so
    // its row reads ~1.0x; the quantized tiers probe each expansion's
    // neighbors with one row-blocked kernel call. Queries cluster around a
    // few bases, like the near-duplicate prompts a linger window collects.
    let vecs = random_vectors(BATCH_INDEX, EMBED_DIM, 139);
    let bases = random_vectors(3, EMBED_DIM, 149);
    let noise = random_vectors(BATCH_QUERIES, EMBED_DIM, 151);
    let queries: Vec<Vec<f32>> = (0..BATCH_QUERIES)
        .map(|i| {
            let base = &bases[i % bases.len()];
            base.iter().zip(&noise[i]).map(|(b, n)| b + 0.02 * n).collect()
        })
        .collect();
    let mut index = Hnsw::new(HnswConfig::default(), CosineDistance);
    for v in &vecs {
        index.insert(v.clone());
    }
    let mut quant = Hnsw::new(HnswConfig::default(), CosineDistance);
    quant.set_quantization(true);
    for v in &vecs {
        quant.insert(v.clone());
    }
    let mut pq = Hnsw::new(HnswConfig::default(), CosineDistance);
    pq.set_product_quantization(true);
    for v in &vecs {
        pq.insert(v.clone());
    }
    for (group, idx) in [
        ("ann_search_batch_f32", &index),
        ("ann_search_batch_int8", &quant),
        ("ann_search_batch_pq", &pq),
    ] {
        bench_pair(
            c,
            group,
            ["sequential", "batched"],
            || queries.iter().map(|q| idx.search(q, 8, 48).len()).sum::<usize>(),
            || idx.search_batch(&queries, 8, 48).iter().map(|r| r.len()).sum::<usize>(),
        );
    }
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

fn median_ns(c: &Criterion, name: &str) -> f64 {
    maybe_median_ns(c, name).unwrap_or_else(|| panic!("no bench result named {name}"))
}

fn maybe_median_ns(c: &Criterion, name: &str) -> Option<f64> {
    c.results().iter().find(|r| r.name == name).map(|r| r.median_ns)
}

fn json_ratio(num: f64, denom: Option<f64>) -> String {
    match denom {
        Some(d) => format!("{:.2}", num / d),
        None => "null".into(),
    }
}

fn write_summary(c: &Criterion) {
    let mut kernel_lines = Vec::new();
    for w in &WORKLOADS {
        let scalar_ns = median_ns(c, &format!("{}/scalar", w.group));
        let striped_ns = median_ns(c, &format!("{}/striped", w.group));
        let simd_ns = maybe_median_ns(c, &format!("{}/simd", w.group));
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

    let f32_ns = median_ns(c, "ann_quant_probe_1024x64/f32");
    let int8_ns = median_ns(c, "ann_quant_probe_1024x64/int8");
    let pq_ns = median_ns(c, "ann_quant_probe_1024x64/pq");
    let bytes_f32 = EMBED_DIM * 4;
    let bytes_int8 = EMBED_DIM + 4;
    // PQ stores one code byte per subspace: dim 64 / subspace width 8.
    let bytes_pq = EMBED_DIM / 8;
    let mut ann_lines = vec![format!(
        concat!(
            "    {{\"name\": \"quantized_probe_1024x64\", \"rows\": {}, ",
            "\"f32_ns\": {:.0}, \"int8_ns\": {:.0}, \"speedup\": {:.2}, ",
            "\"probe_bytes_f32\": {}, \"probe_bytes_int8\": {}, ",
            "\"bytes_ratio\": {:.2}}}"
        ),
        QUANT_ROWS,
        f32_ns,
        int8_ns,
        f32_ns / int8_ns,
        bytes_f32,
        bytes_int8,
        bytes_f32 as f64 / bytes_int8 as f64,
    )];
    ann_lines.push(format!(
        concat!(
            "    {{\"name\": \"pq_probe_{}x{}\", \"rows\": {}, \"m\": {}, ",
            "\"f32_ns\": {:.0}, \"int8_ns\": {:.0}, \"pq_ns\": {:.0}, ",
            "\"pq_vs_f32\": {:.2}, \"pq_vs_int8\": {:.2}, ",
            "\"probe_bytes_f32\": {}, \"probe_bytes_pq\": {}, ",
            "\"bytes_ratio\": {:.2}}}"
        ),
        bytes_pq,
        QUANT_ROWS,
        QUANT_ROWS,
        bytes_pq,
        f32_ns,
        int8_ns,
        pq_ns,
        f32_ns / pq_ns,
        int8_ns / pq_ns,
        bytes_f32,
        bytes_pq,
        bytes_f32 as f64 / bytes_pq as f64,
    ));
    let train_ns = median_ns(c, "ann_pq_train_1024x64/train");
    ann_lines.push(format!(
        "    {{\"name\": \"pq_train_1024x64\", \"rows\": {}, \"train_ns\": {:.0}, \"train_ms\": {:.2}}}",
        QUANT_ROWS,
        train_ns,
        train_ns / 1e6,
    ));
    // Wall-clock training time is a bench-only metric, recorded here and
    // never by library code: it would break the byte-identical golden
    // fixtures (same rule as `kernels.backend`).
    let obs_was_on = pas_obs::enabled();
    pas_obs::set_enabled(true);
    pas_obs::counter_add("ann.pq.train_ms", (train_ns / 1e6).round() as u64);
    pas_obs::set_enabled(obs_was_on);
    ann_lines.push(format!(
        concat!(
            "    {{\"name\": \"exact_probe_100000x64\", \"rows\": {}, ",
            "\"f32_ns\": {:.0}, \"int8_ns\": {:.0}, \"pq_ns\": {:.0}, ",
            "\"int8_vs_f32\": {:.2}, \"pq_vs_f32\": {:.2}}}"
        ),
        BIG_ROWS,
        median_ns(c, "ann_exact_probe_100000x64/f32"),
        median_ns(c, "ann_exact_probe_100000x64/int8"),
        median_ns(c, "ann_exact_probe_100000x64/pq"),
        median_ns(c, "ann_exact_probe_100000x64/f32")
            / median_ns(c, "ann_exact_probe_100000x64/int8"),
        median_ns(c, "ann_exact_probe_100000x64/f32")
            / median_ns(c, "ann_exact_probe_100000x64/pq"),
    ));
    for group in ["ann_search_batch_f32", "ann_search_batch_int8", "ann_search_batch_pq"] {
        let seq_ns = median_ns(c, &format!("{group}/sequential"));
        let bat_ns = median_ns(c, &format!("{group}/batched"));
        let speedup = seq_ns / bat_ns;
        // The regression fence from the batch-probe rework: batching the
        // quantized tiers must never be slower than the sequential loop.
        if group != "ann_search_batch_f32" {
            assert!(
                speedup >= 1.0,
                "{group}: batched ({bat_ns:.0} ns) slower than sequential ({seq_ns:.0} ns)"
            );
        }
        ann_lines.push(format!(
            concat!(
                "    {{\"name\": \"{}_{}x{}\", \"sequential_ns\": {:.0}, ",
                "\"batched_ns\": {:.0}, \"speedup\": {:.2}}}"
            ),
            group.trim_start_matches("ann_"),
            BATCH_QUERIES,
            BATCH_INDEX,
            seq_ns,
            bat_ns,
            speedup,
        ));
    }

    let json = format!(
        concat!(
            "{{\n  \"host\": {},\n  \"backend\": \"{}\",\n",
            "  \"kernels\": [\n{}\n  ],\n  \"ann\": [\n{}\n  ]\n}}\n"
        ),
        bench::host_json(),
        pas_kernels::backend().name(),
        kernel_lines.join(",\n"),
        ann_lines.join(",\n"),
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
    bench_quantized_probe(&mut c);
    bench_pq_train(&mut c);
    bench_big_index_probe(&mut c);
    bench_search_batch(&mut c);
    write_summary(&c);
}
