//! The fault-tolerance contract, enforced end-to-end (DESIGN.md §7):
//!
//! 1. **Fault invisibility** — any fault schedule with eventual success
//!    produces a dataset, reports, and trained model bit-identical to the
//!    fault-free run, at `--threads 1` and `--threads 8` alike.
//! 2. **Kill-and-resume** — a run killed mid-generation or mid-SFT and
//!    resumed from its checkpoint journal (even with a torn final line)
//!    finishes bit-identically to an uninterrupted run.
//! 3. **Graceful degradation** — a permanent `M_p` outage at serve time
//!    degrades to passthrough (the bare prompt) with every degradation
//!    counted; it never fails a request.
//! 4. **Per-lane cluster chaos** (DESIGN.md §15) — fault sweeps aimed at a
//!    single cluster traffic lane: duplicated replication messages are
//!    idempotent (identical responses and cache contents to the clean
//!    run), and dropped gossip heartbeats only *delay* failure-detector
//!    convergence — the settled views still match ground truth exactly.
//!
//! Properties 1–2 live in one test function because the thread count is
//! process-global and the harness runs tests concurrently (same pattern as
//! `tests/parallel_determinism.rs`).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use pas::core::{
    BuildOptions, DegradingServer, NoOptimizer, Pas, PasConfig, PasSystem, SystemConfig,
};
use pas::data::{Corpus, CorpusConfig, GenConfig, Generator, SelectionConfig, SelectionPipeline};
use pas::embed::NgramEmbedder;
use pas::eval::harness::evaluate_suite;
use pas::eval::judge::Judge;
use pas::eval::suite::{EvalEnv, EvalEnvConfig};
use pas::fault::{DiskFaults, FaultConfig, FaultProfile, Journal};
use pas::gateway::{CacheOutcome, OpenMode, SemanticCache, SemanticCacheConfig};
use pas::llm::SimLlm;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pas-chaos-{}-{name}.jsonl", std::process::id()))
}

fn small_config(fault_profile: FaultProfile) -> SystemConfig {
    SystemConfig {
        corpus: CorpusConfig { size: 350, seed: 11, ..CorpusConfig::default() },
        selection: SelectionConfig { labeled_size: 500, ..SelectionConfig::default() },
        generation: GenConfig {
            fault: FaultConfig { profile: fault_profile, ..FaultConfig::default() },
            ..GenConfig::default()
        },
        pas: PasConfig::default(),
    }
}

/// Everything a build run produces, flattened to comparable bits.
#[derive(Debug, PartialEq)]
struct BuildOutcome {
    pairs: Vec<(String, String)>,
    generation_report: String,
    sft_loss: u32,
    model_json: String,
}

fn build_outcome(profile: FaultProfile, threads: usize) -> (BuildOutcome, pas::fault::FaultReport) {
    pas_par::with_threads(threads, || {
        let system = PasSystem::try_build(&small_config(profile), &BuildOptions::default())
            .expect("eventual-success profiles must never fail the build");
        let outcome = BuildOutcome {
            pairs: system
                .dataset
                .pairs
                .iter()
                .map(|p| (p.prompt.clone(), p.complement.clone()))
                .collect(),
            generation_report: format!("{:?}", system.generation_report),
            sft_loss: system.sft_loss.to_bits(),
            model_json: serde_json::to_string(&system.pas).expect("model serializes"),
        };
        (outcome, system.fault_report)
    })
}

#[test]
fn eventual_success_faults_and_kills_are_invisible() {
    // ── Property 1: fault invisibility across thread counts ──────────────
    let (clean, clean_faults) = build_outcome(FaultProfile::none(), 1);
    let (chaos_serial, faults_serial) = build_outcome(FaultProfile::chaos(), 1);
    let (chaos_parallel, faults_parallel) = build_outcome(FaultProfile::chaos(), 8);

    assert!(clean_faults.is_clean(), "clean profile must inject nothing: {clean_faults:?}");
    assert!(faults_serial.total_faults() > 0, "chaos must actually inject faults");
    assert_eq!(faults_serial.failed, 0, "chaos (eventual success) must never fail a call");
    assert!(faults_serial.retries > 0, "absorbed faults imply retries");
    assert_eq!(
        faults_serial, faults_parallel,
        "the fault schedule itself must be thread-invariant"
    );
    assert_eq!(clean, chaos_serial, "a chaos build must be bit-identical to the clean build");
    assert_eq!(clean, chaos_parallel, "…at any thread count");
    assert!(clean.pairs.len() > 100, "degenerate pipeline: {} pairs", clean.pairs.len());

    // ── Property 2a: kill-and-resume for Algorithm 1 generation ──────────
    let config = small_config(FaultProfile::bursty());
    let corpus = Corpus::generate(&config.corpus);
    let world = Arc::new(corpus.world.clone());
    let (selected, _) = SelectionPipeline::new(config.selection.clone()).run(&corpus.records);
    let generator = Generator::new(config.generation.clone(), Arc::clone(&world));
    let fingerprint = PasSystem::config_fingerprint(&config);

    let (full_dataset, full_report, full_faults) =
        generator.try_run(&selected).expect("bursty profile eventually succeeds");

    // "Kill" a journaled run after 40% of the prompts: running the prefix
    // commits exactly the pairs a process dying at that point would have.
    let path = tmp("genpipe");
    let _ = std::fs::remove_file(&path);
    let killed_after = 2 * selected.len() / 5;
    {
        let journal = Journal::open(&path, fingerprint).expect("fresh journal opens");
        generator
            .try_run_journaled(&selected[..killed_after], Some(&journal))
            .expect("prefix run succeeds");
        assert_eq!(journal.len(), killed_after, "one committed entry per finished pair");
    }
    // A real crash can also tear the final line mid-write; the reopened
    // journal must drop it and recompute only that pair.
    {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        write!(file, "{{\"key\":\"pair:{killed_after}\",\"payl").unwrap();
    }
    let journal = Journal::open(&path, fingerprint).expect("journal survives a torn final line");
    assert_eq!(journal.preloaded(), killed_after, "torn line must be dropped, not kept");
    let (resumed_dataset, resumed_report, resumed_faults) =
        generator.try_run_journaled(&selected, Some(&journal)).expect("resumed run succeeds");
    assert_eq!(
        resumed_dataset.pairs, full_dataset.pairs,
        "resumed dataset must equal the uninterrupted one"
    );
    assert_eq!(resumed_report, full_report);
    assert_eq!(resumed_faults, full_faults, "replayed pairs must replay their fault accounting");
    let _ = std::fs::remove_file(&path);

    // ── Property 2b: kill-and-resume for SFT epochs ──────────────────────
    let pas_config = config.pas.clone();
    let (uninterrupted, full_loss) = Pas::sft(&pas_config, &full_dataset);

    let path = tmp("sft");
    let _ = std::fs::remove_file(&path);
    {
        // "Kill" after 5 of the configured epochs by training a 5-epoch run
        // against the same journal: it commits sft:1..=sft:5 and dies.
        let journal = Journal::open(&path, fingerprint).expect("fresh journal opens");
        let mut short = pas_config.clone();
        short.trainer.epochs = 5;
        Pas::sft_with_journal(&short, &full_dataset, Some(&journal)).expect("short run trains");
        assert_eq!(journal.len(), 5);
    }
    let journal = Journal::open(&path, fingerprint).expect("journal reopens");
    assert_eq!(journal.preloaded(), 5);
    let (resumed, resumed_loss) =
        Pas::sft_with_journal(&pas_config, &full_dataset, Some(&journal)).expect("resume trains");
    assert_eq!(
        serde_json::to_string(&resumed).unwrap(),
        serde_json::to_string(&uninterrupted).unwrap(),
        "SFT resumed from epoch 5 must reproduce the uninterrupted model bit-for-bit"
    );
    assert_eq!(resumed_loss.to_bits(), full_loss.to_bits());
    let _ = std::fs::remove_file(&path);
}

// ── Disk-fault crash-point sweep over the persistent semantic cache ──
//
// `pas-store` asks its `DiskFaults` handle for permission at every
// durability boundary (record appends, segment rolls, each compaction
// step, each checkpoint step). The sweep below kills a store-backed
// `SemanticCache` at *every* reachable boundary of a fixed workload and
// proves that a clean reopen recovers a state the interrupted op allows —
// never a duplicate, never a ghost, never a torn frame — and that warm
// (checkpoint + suffix replay) and cold (full replay) reopens are
// bit-identical and immediately usable.

/// One scripted cache operation.
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Insert(u64),
    /// An exact-hit `lookup`, which logs a recency touch.
    Touch(u64),
    /// An in-place `insert_versioned` upgrade of a live entry.
    Upgrade(u64),
    Checkpoint,
}

type SweepCache = SemanticCache<NgramEmbedder>;

/// A 4-entry cache with the near tier on, so every insert logs its
/// embedding and every checkpoint carries the live index rows.
fn sweep_config() -> SemanticCacheConfig {
    SemanticCacheConfig { capacity: 4, tau: 0.3, ..SemanticCacheConfig::default() }
}

fn sweep_prompt(i: u64) -> String {
    format!("sweep prompt {i} about topic {}", i % 7)
}

/// Deterministic workload crossing every fault-point family: 84 distinct
/// inserts into 4 slots evict 80 entries, which crosses the cache's
/// fallback compaction once (at 64 dead); touches and an upgrade log meta
/// records; three checkpoints (before and after the compaction, and at
/// the end) cover the snapshot path.
fn sweep_script() -> Vec<CacheOp> {
    let mut script = Vec::new();
    for i in 0..84 {
        script.push(CacheOp::Insert(i));
        if i % 5 == 4 {
            script.push(CacheOp::Touch(i - 2));
        }
        if i == 40 {
            script.push(CacheOp::Upgrade(i - 1));
        }
        if i == 20 || i == 70 {
            script.push(CacheOp::Checkpoint);
        }
    }
    script.push(CacheOp::Checkpoint);
    script
}

fn open_sweep(
    dir: &Path,
    mode: OpenMode,
    faults: Option<DiskFaults>,
) -> std::io::Result<SweepCache> {
    SemanticCache::open_from_with(sweep_config(), NgramEmbedder::default(), dir, mode, faults)
}

/// Runs `op`; a boundary that failed surfaces as the cache's sticky store
/// error (appends, compaction) or as the checkpoint's own error.
fn apply_cache_op(cache: &mut SweepCache, dir: &Path, op: CacheOp) -> Result<(), String> {
    match op {
        CacheOp::Insert(i) => {
            assert!(cache.insert_versioned(&sweep_prompt(i), &format!("resp {i}"), 1));
        }
        CacheOp::Touch(i) => {
            let hit = cache.lookup(&sweep_prompt(i));
            assert!(matches!(hit, CacheOutcome::ExactHit(_)), "touch {i}: {hit:?}");
        }
        CacheOp::Upgrade(i) => {
            assert!(cache.insert_versioned(&sweep_prompt(i), &format!("resp {i} v2"), 2));
        }
        CacheOp::Checkpoint => return cache.persist_to(dir).map_err(|e| e.to_string()),
    }
    cache.store_error().map_or(Ok(()), |e| Err(e.to_string()))
}

/// The cache's logical state: live `(prompt, response, version)` in LRU
/// order.
type CacheState = Vec<(String, String, u64)>;

fn observe_cache(cache: &SweepCache) -> CacheState {
    cache
        .live_entries_versioned()
        .into_iter()
        .map(|(p, r, v)| (p.to_string(), r.to_string(), v))
        .collect()
}

/// A lookup outcome with the near-hit distance as raw bits.
fn probe_bits(outcome: CacheOutcome) -> (&'static str, String, u32) {
    match outcome {
        CacheOutcome::ExactHit(r) => ("exact", r, 0),
        CacheOutcome::NearHit { response, distance } => ("near", response, distance.to_bits()),
        CacheOutcome::Miss => ("miss", String::new(), 0),
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
    }
}

#[test]
fn disk_fault_sweep_recovers_a_consistent_prefix_at_every_crash_point() {
    let base = std::env::temp_dir().join(format!("pas-chaos-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let script = sweep_script();

    // Fault-free baseline: `states[k]` is the state once `k` ops completed,
    // `evictions[k]` how many entries op `k` (0-based) evicted.
    let mut states: Vec<CacheState> = Vec::with_capacity(script.len() + 1);
    let mut evictions: Vec<usize> = Vec::with_capacity(script.len());
    {
        let dir = base.join("baseline");
        let mut cache = open_sweep(&dir, OpenMode::Replay, None).expect("baseline opens");
        states.push(observe_cache(&cache));
        for &op in &script {
            let before = cache.evictions();
            apply_cache_op(&mut cache, &dir, op).expect("baseline op succeeds");
            evictions.push((cache.evictions() - before) as usize);
            states.push(observe_cache(&cache));
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.evictions(), 80, "84 inserts into 4 slots");
    }

    // Sweep: kill the store at boundary 0, 1, 2, … until a run completes
    // without firing (the crash point lies beyond every boundary).
    let seed = 0xd00d;
    let probes: Vec<String> =
        (0..84).step_by(3).map(|i| format!("{} again", sweep_prompt(i))).collect();
    let mut labels_hit = std::collections::BTreeSet::new();
    let mut crash_points = 0u64;
    // Recovered states seen: the prefix, the prefix plus the op in flight,
    // and the prefix with some of the in-flight insert's evictions applied.
    let mut outcomes = [0u64; 3];
    let mut near_hits = 0u64;
    for crash_at in 0.. {
        let dir = base.join(format!("crash-{crash_at:03}"));
        let faults = DiskFaults::crash_at(seed, crash_at);
        let mut cache =
            open_sweep(&dir, OpenMode::Replay, Some(faults)).expect("a fresh directory opens");
        let mut completed = 0usize;
        let mut failure: Option<String> = None;
        for &op in &script {
            match apply_cache_op(&mut cache, &dir, op) {
                Ok(()) => completed += 1,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        drop(cache);
        let Some(message) = failure else {
            // No boundary left to kill: the sweep covered all of them.
            let _ = std::fs::remove_dir_all(&dir);
            break;
        };
        crash_points += 1;
        assert!(message.contains("injected disk fault"), "crash {crash_at}: {message}");
        if let Some((_, tail)) = message.split_once('(') {
            if let Some((label, _)) = tail.split_once(')') {
                labels_hit.insert(label.to_string());
            }
        }

        // The process "died" mid-boundary. Reopen from whatever the crash
        // left on disk — cold (full replay, on a copy) and warm
        // (checkpoint + suffix replay, in place).
        let cold_dir = base.join(format!("cold-{crash_at:03}"));
        copy_dir(&dir, &cold_dir);
        let mut cold = open_sweep(&cold_dir, OpenMode::Replay, None)
            .unwrap_or_else(|e| panic!("cold reopen after crash {crash_at} ({message}): {e}"));
        let mut warm = open_sweep(&dir, OpenMode::Warm, None)
            .unwrap_or_else(|e| panic!("warm reopen after crash {crash_at} ({message}): {e}"));
        let got = observe_cache(&cold);

        // Prefix consistency with `k` ops completed: exactly `states[k]`;
        // or `states[k + 1]` when the failing op's bytes all landed (e.g.
        // a failed flush); or `states[k]` minus its first `i` LRU entries,
        // `1 ≤ i ≤` the evictions of the failing op, because an insert logs
        // its victims' tombstones before its own records. Anything else —
        // a ghost surviving its tombstone, a half-applied insert, a state
        // from the future — fails.
        let k = completed;
        let outcome = if got == states[k] {
            0
        } else if got == states[k + 1] {
            1
        } else if (1..=evictions[k]).any(|i| got[..] == states[k][i..]) {
            2
        } else {
            panic!(
                "crash {crash_at} ({message}): recovered {got:?}, which no prefix of {k} \
                 completed ops allows"
            );
        };
        outcomes[outcome] += 1;

        // Warm and cold reopens agree bit-for-bit, probes included.
        assert_eq!(got, observe_cache(&warm), "warm/cold state diverged after crash {crash_at}");
        for p in &probes {
            let (c, w) = (probe_bits(cold.lookup(p)), probe_bits(warm.lookup(p)));
            assert_eq!(c, w, "warm/cold probe {p:?} diverged after crash {crash_at}");
            near_hits += u64::from(c.0 == "near");
        }

        // The recovered cache is fully usable: insert, hit, checkpoint.
        let fresh = format!("fresh prompt after crash {crash_at}");
        warm.insert(&fresh, "fresh");
        assert!(warm.store_error().is_none(), "insert after crash {crash_at} failed");
        assert_eq!(warm.lookup(&fresh), CacheOutcome::ExactHit("fresh".into()));
        warm.persist_to(&dir).unwrap_or_else(|e| panic!("checkpoint after crash {crash_at}: {e}"));
        drop((cold, warm));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&cold_dir).unwrap();
    }

    // Every fault-point family was actually swept, and every recovery
    // shape actually occurred.
    for label in [
        "append",
        "segment.roll",
        "compact.begin",
        "compact.write",
        "compact.rename",
        "compact.cleanup",
        "snapshot.write",
        "snapshot.rename",
    ] {
        assert!(labels_hit.contains(label), "sweep never crashed at {label}: {labels_hit:?}");
    }
    assert!(crash_points >= 200, "sweep must cover many boundaries, got {crash_points}");
    assert!(outcomes.iter().all(|&n| n > 0), "recovery shapes seen: {outcomes:?}");
    assert!(near_hits > 0, "the probes must exercise the near tier");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn permanent_outage_degrades_to_passthrough_and_chaos_serving_is_exact() {
    let env = EvalEnv::build(&EvalEnvConfig { arena_items: 60, alpaca_items: 10, seed: 0x0a7 });
    let judge = Judge::default();
    let model = SimLlm::named("gpt-4-0613", env.world.clone());
    let reference = SimLlm::named(&env.arena.reference_model, env.world.clone());

    let system =
        PasSystem::try_build(&small_config(FaultProfile::none()), &BuildOptions::default())
            .expect("clean build succeeds");

    // A permanently unreachable M_p: serving must fall back to the bare
    // prompt for every request — bit-identical to running no optimizer at
    // all — and count each degradation rather than surface an error.
    let outage = FaultConfig { profile: FaultProfile::outage(), ..FaultConfig::default() };
    let down = DegradingServer::new(system.pas.clone(), &outage);
    let degraded_score = evaluate_suite(&model, &down, &env.arena, &reference, &judge);
    let baseline = evaluate_suite(&model, &NoOptimizer, &env.arena, &reference, &judge);
    assert_eq!(
        degraded_score.win_rate.to_bits(),
        baseline.win_rate.to_bits(),
        "degraded serving must equal the no-optimizer baseline: {} vs {}",
        degraded_score.win_rate,
        baseline.win_rate
    );
    let report = down.fault_report();
    assert_eq!(report.degraded as usize, degraded_score.items, "every request degrades");
    assert!(report.breaker_trips >= 1, "a hard outage must trip the circuit breaker");

    // A chaotic-but-recovering M_p: serving must be bit-identical to the
    // healthy optimizer, with zero degradations.
    let chaos = FaultConfig { profile: FaultProfile::chaos(), ..FaultConfig::default() };
    let flaky = DegradingServer::new(system.pas.clone(), &chaos);
    let flaky_score = evaluate_suite(&model, &flaky, &env.arena, &reference, &judge);
    let healthy_score = evaluate_suite(&model, &system.pas, &env.arena, &reference, &judge);
    assert_eq!(flaky_score.win_rate.to_bits(), healthy_score.win_rate.to_bits());
    let flaky_report = flaky.fault_report();
    assert_eq!(flaky_report.degraded, 0, "eventual-success faults must never degrade");
    assert!(flaky_report.total_faults() > 0, "chaos must actually inject at serve time");
    // Non-vacuity: the healthy optimizer really transforms prompts, so
    // "degraded == baseline" and "flaky == healthy" compare different paths.
    use pas::core::PromptOptimizer;
    let probe = &env.arena.items[0].prompt;
    assert_ne!(&system.pas.optimize(probe), probe, "PAS must augment, not pass through");
}

#[test]
fn transient_outage_trips_breaker_then_recovers() {
    use pas::core::PromptOptimizer;
    use pas::fault::{streams, RetryPolicy};
    use pas::text::fx_hash_str;

    // A toy optimizer with visible output, so recovery is observable.
    struct Suffix;
    impl PromptOptimizer for Suffix {
        fn name(&self) -> &str {
            "suffix"
        }
        fn optimize(&self, prompt: &str) -> String {
            format!("{prompt} [augmented]")
        }
        fn requires_human_labels(&self) -> bool {
            false
        }
        fn llm_agnostic(&self) -> bool {
            true
        }
        fn task_agnostic(&self) -> bool {
            true
        }
        fn training_pairs(&self) -> Option<usize> {
            None
        }
    }

    // A *transient* outage, as opposed to the permanent one above: 90%
    // per-attempt transient errors with failure runs up to 6 deep, far
    // beyond the 2-attempt retry budget below, so most calls fail outright
    // — while calls whose schedule clears attempt 0 model the backend
    // coming back and give the breaker's probes something to succeed on.
    let profile = FaultProfile {
        name: "flapping",
        transient_rate: 0.9,
        max_consecutive: 6,
        ..FaultProfile::none()
    };
    let policy = RetryPolicy {
        max_attempts: 2,
        breaker_threshold: 3,
        breaker_probe_interval: 4,
        ..RetryPolicy::default()
    };
    let fault = FaultConfig { profile, policy, ..FaultConfig::default() };
    let server = DegradingServer::new(Suffix, &fault);

    // Read the (pure) fault schedule to pick prompts by fate.
    let injector = fault.injector();
    let fails_outright =
        |p: &str| (0..2).all(|a| injector.check(streams::SERVE_MP, fx_hash_str(p), a).is_err());
    let clears_first = |p: &str| injector.check(streams::SERVE_MP, fx_hash_str(p), 0).is_ok();
    let candidates: Vec<String> = (0..200).map(|i| format!("serve request {i}")).collect();
    let failing: Vec<&String> = candidates.iter().filter(|p| fails_outright(p)).take(3).collect();
    assert_eq!(failing.len(), 3, "the schedule must fail some calls outright");
    let mut survivors = candidates.iter().filter(|p| clears_first(p));
    let recovery = survivors.next().expect("some call clears its first attempt");
    let after = survivors.next().expect("a second call clears its first attempt");

    // Outage phase: three consecutive exhausted calls serve passthrough
    // and the third trips the breaker.
    for p in &failing {
        assert_eq!(&server.optimize(p), *p, "an exhausted call must pass through");
        assert!(server.fault_report().failed > 0);
    }
    assert!(server.breaker_open(), "three consecutive call failures must trip the breaker");
    assert_eq!(server.degraded(), 3);

    // While open, requests shed fast (passthrough, no backend attempts)
    // until the scheduled probe slot comes around; the probe reaches the
    // recovered backend, succeeds, and closes the breaker (half-open →
    // closed), returning the exact augmented output mid-recovery.
    let mut shed = 0u64;
    loop {
        let out = server.optimize(recovery);
        if out == format!("{recovery} [augmented]") {
            break;
        }
        assert_eq!(&out, recovery, "while open, requests pass through");
        shed += 1;
        assert!(shed < 8, "the probe slot never arrived");
    }
    assert_eq!(shed, 3, "exactly probe_interval − 1 requests shed before the probe");
    assert!(!server.breaker_open(), "a successful probe must close the breaker");

    // Recovered phase: subsequent requests get exact augmentation again.
    assert_eq!(server.optimize(after), format!("{after} [augmented]"));
    assert_eq!(server.optimize(recovery), format!("{recovery} [augmented]"));
    let report = server.fault_report();
    assert_eq!(report.breaker_trips, 1);
    assert_eq!(report.breaker_fast_fails, shed);
    assert_eq!(server.degraded(), 3 + shed);
}

/// Replay-mode cache opens must survive disk faults fired *mid-replay*
/// (the read path: one boundary per segment open plus one per record).
/// Every crash point inside the replay window fails the open cleanly —
/// no partial cache escapes — and a clean reopen recovers the full
/// state. Closes the gap where only append/compact boundaries had fault
/// legs.
#[test]
fn cache_replay_open_survives_mid_replay_disk_faults() {
    let dir = std::env::temp_dir().join(format!("pas-chaos-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = SemanticCacheConfig { capacity: 64, tau: 0.3, ..SemanticCacheConfig::default() };
    let entries: Vec<(String, String)> = (0..25)
        .map(|i| (format!("prompt {i} about thing {}", i % 7), format!("resp {i}")))
        .collect();

    // Seed the log, then kill (drop without checkpoint; appends flushed).
    let mut seeded =
        SemanticCache::open_from(config.clone(), NgramEmbedder::default(), &dir, OpenMode::Replay)
            .expect("seeding open");
    for (p, r) in &entries {
        seeded.insert(p, r);
    }
    assert!(seeded.store_error().is_none());
    drop(seeded);

    // Sweep every replay boundary: faults fired during the read path must
    // fail the open (no partially-replayed cache), after which a clean
    // reopen still recovers everything.
    let seed = 0x5eed;
    let mut fired = 0u64;
    loop {
        let faults = DiskFaults::crash_at(seed, fired);
        match SemanticCache::open_from_with(
            config.clone(),
            NgramEmbedder::default(),
            &dir,
            OpenMode::Replay,
            Some(faults),
        ) {
            Err(e) => {
                let message = e.to_string();
                assert!(
                    message.contains("injected disk fault"),
                    "crash {fired}: unexpected error {message}"
                );
                assert!(
                    message.contains("replay.segment") || message.contains("replay.record"),
                    "crash {fired}: fault outside the replay legs: {message}"
                );
                fired += 1;
            }
            // First crash point past the replay window: the open no
            // longer touches it. (Later write boundaries would, but this
            // cache is dropped unused.)
            Ok(_) => break,
        }
        assert!(fired < 200, "replay window implausibly large");
    }
    // One boundary per segment + one per replayed record: at least the
    // record count for 25 inserts (meta + vector records each).
    assert!(fired > 25, "expected the sweep to cover every record boundary, got {fired}");

    let mut clean =
        SemanticCache::open_from(config.clone(), NgramEmbedder::default(), &dir, OpenMode::Replay)
            .expect("clean reopen after fault sweep");
    for (p, r) in &entries {
        match clean.lookup(p) {
            CacheOutcome::ExactHit(got) => assert_eq!(&got, r),
            other => panic!("entry {p:?} lost after fault sweep: {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ── Property 4: per-lane cluster chaos ───────────────────────────────────

mod cluster_lanes {
    use pas::cluster::{fleet_workloads, Cluster, ClusterConfig, Membership, NodeStatus};
    use pas::core::PromptOptimizer;
    use pas::fault::{FaultProfile, MsgLane, NetFaultProfile};
    use pas::gateway::{GatewayConfig, WorkloadConfig};

    /// Pure, visible optimizer: served output differs from passthrough, so
    /// response comparisons catch any degradation divergence.
    struct Suffix;

    impl PromptOptimizer for Suffix {
        fn name(&self) -> &str {
            "suffix"
        }
        fn optimize(&self, prompt: &str) -> String {
            format!("{prompt} [augmented]")
        }
        fn requires_human_labels(&self) -> bool {
            false
        }
        fn llm_agnostic(&self) -> bool {
            true
        }
        fn task_agnostic(&self) -> bool {
            true
        }
    }

    fn quiet_gateway() -> GatewayConfig {
        let mut g = GatewayConfig::default();
        g.fault.profile = FaultProfile::none();
        g
    }

    fn lane_workloads(nodes: usize) -> Vec<Vec<pas::gateway::Request>> {
        let base = WorkloadConfig { requests: 150, universe: 40, ..WorkloadConfig::default() };
        fleet_workloads(&base, nodes)
    }

    /// Duplicating every message on the replication lane is invisible:
    /// versioned inserts make the second copy a no-op, so responses and
    /// final cache contents are byte-identical to the duplicate-free run.
    #[test]
    fn duplicated_replication_messages_are_idempotent() {
        let nodes = 4;
        let config = |net: NetFaultProfile| ClusterConfig {
            nodes,
            replication: 2,
            gateway: quiet_gateway(),
            net,
            ae_interval_ms: 20,
            quiet_ms: 400,
            ..ClusterConfig::default()
        };
        let workloads = lane_workloads(nodes);
        let run = |net| {
            let mut cluster = Cluster::new(config(net), |_, _| Suffix);
            let (responses, report) = cluster.run(&workloads);
            let entries: Vec<_> = (0..nodes as u32).map(|n| cluster.cache_entries(n)).collect();
            (responses, report, entries)
        };

        let clean = run(NetFaultProfile::none());
        let duppy = run(NetFaultProfile::none().with_lane(MsgLane::Replicate, 0.0, 0.6));

        assert_eq!(clean.1.errors(), 0);
        assert_eq!(duppy.1.errors(), 0);
        assert!(duppy.1.net_duplicates > 0, "the duplicate schedule must actually fire");
        assert!(duppy.1.repl_stale > 0, "duplicate replication copies must be counted as no-ops");
        // The lane chaos is invisible where it matters: reports differ
        // (net_duplicates, repl_stale), but served text and cache state
        // cannot.
        assert_eq!(clean.0, duppy.0, "duplicated replication must not change responses");
        assert_eq!(clean.2, duppy.2, "duplicated replication must not change cache contents");
    }

    /// Dropping 40% of gossip heartbeats delays suspicion and death
    /// verdicts but cannot corrupt them: after quiescence every live
    /// node's view matches scripted ground truth (the crashed node Dead,
    /// everyone else Alive), with zero false deaths along the way.
    #[test]
    fn dropped_heartbeats_only_delay_gossip_convergence() {
        let nodes = 4usize;
        let victim = 3u32;
        let interval = 20u64;
        let dead_rounds = 12u64;
        let config = |net: NetFaultProfile| ClusterConfig {
            nodes,
            replication: 2,
            gateway: quiet_gateway(),
            net,
            gossip_interval_ms: interval,
            gossip_suspect_rounds: 6,
            gossip_dead_rounds: dead_rounds,
            // Generous quiet window: drops stretch detection latency, so
            // give the lossy run room to reach the same settled verdicts.
            quiet_ms: interval * (dead_rounds + 20),
            script: vec![(300, Membership::Crash(victim))],
            ..ClusterConfig::default()
        };
        let workloads = lane_workloads(nodes);
        let run = |net| {
            let mut cluster = Cluster::new(config(net), |_, _| Suffix);
            let (responses, report) = cluster.run(&workloads);
            let views: Vec<_> = (0..nodes as u32)
                .filter(|&n| cluster.is_live(n))
                .map(|n| cluster.membership_view(n))
                .collect();
            (responses, report, views)
        };

        let clean = run(NetFaultProfile::none());
        let droppy = run(NetFaultProfile::none().with_lane(MsgLane::Gossip, 0.4, 0.0));

        for (_, report, views) in [&clean, &droppy] {
            assert_eq!(report.errors(), 0);
            assert_eq!(report.crashes, 1);
            assert_eq!(report.gossip_false_deaths, 0, "drops must never fake a death");
            let truth: Vec<(u32, NodeStatus)> = (0..nodes as u32)
                .map(|n| (n, if n == victim { NodeStatus::Dead } else { NodeStatus::Alive }))
                .collect();
            for view in views {
                assert_eq!(view, &truth, "settled views must match scripted ground truth");
            }
        }
        assert!(droppy.1.net_drops > clean.1.net_drops, "the drop schedule must actually bite");
        // Delay, not divergence: the served text is identical either way.
        assert_eq!(clean.0, droppy.0, "gossip drops must not change responses");
    }
}
