//! Shard isolation: traffic on one model must be invisible to every
//! other model in the registry. UPDATEs on a "noisy" shard interleaved
//! with QUERY/MC on a "quiet" shard leave the quiet shard's epoch,
//! cache, and served availabilities bit-identical to a run where the
//! quiet shard was alone in the process.

use std::sync::Arc;

use netgen::usi::{perspective_mapping, printing_service, usi_infrastructure};
use proptest::collection::vec;
use proptest::prelude::*;
use upsim_server::{Engine, EngineConfig, ModelSnapshot, ModelSpec, UpdateCommand};

fn usi_spec(name: &str) -> ModelSpec {
    ModelSpec {
        name: name.to_string(),
        snapshot: ModelSnapshot::new(usi_infrastructure(), printing_service())
            .expect("USI models are consistent"),
        mapper: Arc::new(|_, client, provider| perspective_mapping(client, provider)),
    }
}

fn two_model_engine(workers: usize) -> Engine {
    Engine::with_models(
        vec![usi_spec("noisy"), usi_spec("quiet")],
        EngineConfig {
            workers,
            ..EngineConfig::default()
        },
    )
    .expect("two distinct names register")
}

fn quiet_only_engine(workers: usize) -> Engine {
    Engine::with_models(
        vec![usi_spec("quiet")],
        EngineConfig {
            workers,
            ..EngineConfig::default()
        },
    )
    .expect("one named model registers")
}

/// Links safe to toggle on the noisy shard (same set the consistency
/// suite stresses).
const TOGGLE_LINKS: [(&str, &str); 5] = [
    ("c1", "c2"),
    ("d1", "c2"),
    ("d2", "c1"),
    ("d4", "c2"),
    ("e1", "d1"),
];

const CLIENTS: [&str; 15] = [
    "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "t10", "t11", "t12", "t13", "t14", "t15",
];
const PRINTERS: [&str; 3] = ["p1", "p2", "p3"];

fn quiet_cache_len(engine: &Engine) -> usize {
    engine
        .models()
        .into_iter()
        .find(|info| info.name == "quiet")
        .expect("quiet shard is registered")
        .stats
        .cache_len
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Interleave noisy-shard updates with quiet-shard reads and compare
    /// the quiet shard, observation by observation, against an engine
    /// that only ever saw the quiet traffic.
    #[test]
    fn noisy_updates_never_leak_into_the_quiet_shard(
        ops in vec((0u8..3u8, 0usize..64usize, 0usize..64usize), 1..12),
    ) {
        let mixed = two_model_engine(2);
        let alone = quiet_only_engine(2);
        let mut toggled = [false; TOGGLE_LINKS.len()];

        for (kind, i, j) in ops {
            let client = CLIENTS[i % CLIENTS.len()];
            let printer = PRINTERS[j % PRINTERS.len()];
            match kind {
                // Noisy-shard update: the quiet-only engine never sees it.
                0 => {
                    let link_ix = i % TOGGLE_LINKS.len();
                    let (a, b) = TOGGLE_LINKS[link_ix];
                    let command = if toggled[link_ix] {
                        UpdateCommand::Connect { a: a.into(), b: b.into() }
                    } else {
                        UpdateCommand::Disconnect { a: a.into(), b: b.into() }
                    };
                    toggled[link_ix] = !toggled[link_ix];
                    mixed
                        .update_on(Some("noisy"), command)
                        .expect("noisy update applies");
                }
                // Quiet-shard query: bit-identical to the solo engine,
                // including whether the cache answered.
                1 => {
                    let (entry, hit) = mixed
                        .query_traced_on(Some("quiet"), client, printer)
                        .expect("quiet query evaluates");
                    let (solo_entry, solo_hit) = alone
                        .query_traced_on(Some("quiet"), client, printer)
                        .expect("solo query evaluates");
                    prop_assert_eq!(
                        entry.availability.to_bits(),
                        solo_entry.availability.to_bits(),
                        "({}, {}): quiet availability drifted under noisy updates",
                        client,
                        printer
                    );
                    prop_assert_eq!(hit, solo_hit, "({}, {}): cache residency drifted", client, printer);
                    prop_assert_eq!(entry.epoch, 0, "quiet entries stay at epoch 0");
                }
                // Quiet-shard Monte-Carlo: the compiled program is a pure
                // function of (samples, seed), so estimates match exactly.
                _ => {
                    let samples = 256 + (i % 3) * 128;
                    let seed = j as u64;
                    let (result, _, _) = mixed
                        .monte_carlo_on(Some("quiet"), client, printer, samples, seed)
                        .expect("quiet MC runs");
                    let (solo_result, _, _) = alone
                        .monte_carlo_on(Some("quiet"), client, printer, samples, seed)
                        .expect("solo MC runs");
                    prop_assert_eq!(
                        result.estimate.to_bits(),
                        solo_result.estimate.to_bits(),
                        "({}, {}): MC estimate drifted under noisy updates",
                        client,
                        printer
                    );
                    prop_assert_eq!(result.samples, solo_result.samples);
                }
            }
            // Invariants after every single op: the quiet shard's epoch
            // never moves and its cache holds exactly what the solo run's
            // does.
            prop_assert_eq!(mixed.epoch_of("quiet").expect("quiet resolves"), 0);
            prop_assert_eq!(
                quiet_cache_len(&mixed),
                quiet_cache_len(&alone),
                "quiet cache residency drifted"
            );
        }
        mixed.shutdown();
        alone.shutdown();
    }
}
