//! A cross-commit golden for `M_p`: the texts `Pas::optimize` and
//! `Bpo::optimize` return for every distinct prompt of the serving
//! benchmark's traffic (15 898 of them, `common/benchmark_prompts.rs`),
//! folded into a count and an FNV-1a digest per optimizer and compared
//! byte for byte with `tests/snapshots/optimize_outputs.json`.
//!
//! `Pas` is the quick-scale system pasbench serves (its `system_config`);
//! `Bpo` is `BpoConfig::default()` trained on that system's dataset. Any
//! change to featurization, aspect inference, the tokenizer or the
//! complement realizer that moves one served byte moves a digest. After an
//! intentional change, regenerate with
//! `UPDATE_SNAPSHOTS=1 cargo test --release --test optimize_bits`.

#[path = "common/benchmark_prompts.rs"]
mod benchmark_prompts;

use std::path::Path;

use benchmark_prompts::benchmark_prompts;
use pas::baselines::{Bpo, BpoConfig};
use pas::core::{BuildOptions, PasSystem, PromptOptimizer, SystemConfig};
use pas::data::{CorpusConfig, SelectionConfig};

/// pasbench's `system_config` (`crates/bench/src/bin/pasbench/workload.rs`).
fn system_config() -> SystemConfig {
    SystemConfig {
        corpus: CorpusConfig { size: 350, seed: 11, ..CorpusConfig::default() },
        selection: SelectionConfig { labeled_size: 500, ..SelectionConfig::default() },
        ..SystemConfig::default()
    }
}

/// FNV-1a over every output, in prompt order, each followed by a `0xff`
/// separator (a byte UTF-8 text never contains).
fn outputs_fnv<'a>(outputs: impl Iterator<Item = &'a String>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in outputs.flat_map(|r| r.bytes().chain([0xff])) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn optimizer_outputs_match_the_committed_golden() {
    let prompts = benchmark_prompts();
    let system = PasSystem::try_build(&system_config(), &BuildOptions::default())
        .expect("quick-scale PAS builds");
    let bpo = Bpo::train(&BpoConfig::default(), &system.dataset);
    let optimizers: [(&str, &dyn PromptOptimizer); 2] = [("pas", &system.pas), ("bpo", &bpo)];
    let mut golden = String::from("{\n");
    for (k, (name, optimizer)) in optimizers.into_iter().enumerate() {
        let outputs: Vec<String> = prompts.iter().map(|p| optimizer.optimize(p)).collect();
        let sep = if k + 1 < optimizers.len() { "," } else { "" };
        golden.push_str(&format!(
            "  \"{name}\": {{\"count\": {}, \"fnv\": \"{:#018x}\"}}{sep}\n",
            outputs.len(),
            outputs_fnv(outputs.iter())
        ));
    }
    golden.push_str("}\n");

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/optimize_outputs.json");
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::write(&path, &golden)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("updated fixture {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run UPDATE_SNAPSHOTS=1 cargo test --test optimize_bits",
            path.display()
        )
    });
    assert!(
        expected == golden,
        "optimizer outputs diverged from {}:\n{golden}if the change is intentional, regenerate \
         with UPDATE_SNAPSHOTS=1",
        path.display()
    );
}
