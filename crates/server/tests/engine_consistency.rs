//! The engine must be a pure cache/concurrency layer: batched concurrent
//! evaluation returns exactly what a fresh sequential pipeline computes,
//! for every USI perspective and after any update interleaving.

use std::collections::BTreeSet;
use std::sync::Arc;

use dependability::transform::{AnalysisOptions, ServiceAvailabilityModel};
use netgen::usi::{
    all_printing_perspectives, perspective_mapping, printing_service, usi_infrastructure,
};
use proptest::collection::vec;
use proptest::prelude::*;
use upsim_core::infrastructure::Infrastructure;
use upsim_core::pipeline::UpsimPipeline;
use upsim_server::{Counter, Engine, EngineConfig, ModelSnapshot, UpdateCommand};

fn usi_engine(workers: usize) -> Engine {
    let snapshot = ModelSnapshot::new(usi_infrastructure(), printing_service())
        .expect("USI models are consistent");
    let config = EngineConfig {
        workers,
        mapper: Arc::new(|_, client, provider| perspective_mapping(client, provider)),
        ..EngineConfig::default()
    };
    Engine::new(snapshot, config)
}

/// Availability + UPSIM node set of one perspective, straight from a fresh
/// single-shot pipeline (the reference the engine must agree with).
fn reference(
    infra: &Infrastructure,
    client: &str,
    printer: &str,
) -> Result<(f64, BTreeSet<String>), String> {
    let mapping = perspective_mapping(client, printer);
    let mut pipeline = UpsimPipeline::new(infra.clone(), printing_service(), mapping)
        .map_err(|e| e.to_string())?;
    pipeline.record_paths = false;
    let run = pipeline.run().map_err(|e| e.to_string())?;
    let availability = ServiceAvailabilityModel::from_run(
        pipeline.infrastructure(),
        &run,
        AnalysisOptions::default(),
    )
    .availability_bdd();
    Ok((
        availability,
        run.touched_devices().map(String::from).collect(),
    ))
}

#[test]
fn batched_concurrent_evaluation_matches_sequential_pipeline() {
    let engine = usi_engine(4);
    let perspectives = all_printing_perspectives();
    assert_eq!(perspectives.len(), 45);

    let pairs: Vec<(String, String)> = perspectives
        .iter()
        .map(|(c, p, _)| (c.clone(), p.clone()))
        .collect();
    let batched = engine.batch(&pairs);
    assert_eq!(batched.len(), 45);

    let infra = usi_infrastructure();
    for ((client, printer), result) in pairs.iter().zip(batched) {
        let entry =
            result.unwrap_or_else(|e| panic!("batch failed for ({client}, {printer}): {e}"));
        let (availability, nodes) =
            reference(&infra, client, printer).expect("sequential reference runs");
        assert!(
            (entry.availability - availability).abs() < 1e-12,
            "({client}, {printer}): batched {} != sequential {availability}",
            entry.availability
        );
        let engine_nodes: BTreeSet<String> = entry.upsim_nodes.iter().map(str::to_string).collect();
        assert_eq!(
            engine_nodes, nodes,
            "({client}, {printer}): UPSIM node sets differ"
        );
    }
    engine.shutdown();
}

#[test]
fn repeated_queries_hit_the_cache() {
    let engine = usi_engine(2);
    let first = engine.query("t1", "p1").expect("first query evaluates");
    let second = engine.query("t1", "p1").expect("second query served");
    // Same Arc — the second response came straight out of the cache.
    assert!(Arc::ptr_eq(&first, &second));

    let stats = engine.stats();
    assert_eq!(stats[Counter::Queries], 2);
    assert!(
        stats[Counter::CacheHits] >= 1,
        "expected a cache hit, stats: {}",
        stats.render()
    );
    assert!(stats.hit_rate() > 0.0);
    assert!(stats.render().contains("hit_rate=0.5"));
    engine.shutdown();
}

#[test]
fn unknown_devices_are_rejected_without_evaluation() {
    let engine = usi_engine(1);
    let err = engine.query("ghost", "p1").expect_err("unknown client");
    assert!(err.to_string().contains("ghost"));
    let stats = engine.stats();
    assert_eq!(stats.eval_latency.count(), 0);
    assert_eq!(stats[Counter::Errors], 1);
    engine.shutdown();
}

/// Links whose removal stresses the redundant core/distribution paths of
/// Fig. 5 without orphaning a device class.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any interleaving of UPDATE and QUERY never serves a stale cache
    /// entry: after every operation, a query through the engine equals a
    /// fresh pipeline run against the current (shadow) model.
    #[test]
    fn updates_never_serve_stale_results(
        ops in vec((0u8..3u8, 0usize..64usize, 0usize..64usize), 1..10),
    ) {
        let engine = usi_engine(2);
        let mut shadow = usi_infrastructure();
        let mut removed: BTreeSet<usize> = BTreeSet::new();

        for (kind, i, j) in ops {
            if kind == 1 {
                let link_idx = i % TOGGLE_LINKS.len();
                let (a, b) = TOGGLE_LINKS[link_idx];
                if removed.contains(&link_idx) {
                    engine
                        .update(UpdateCommand::Connect { a: a.into(), b: b.into() })
                        .expect("reconnecting a known link");
                    shadow.connect(a, b).expect("shadow reconnect");
                    removed.remove(&link_idx);
                } else {
                    engine
                        .update(UpdateCommand::Disconnect { a: a.into(), b: b.into() })
                        .expect("disconnecting a present link");
                    shadow.disconnect(a, b).expect("shadow disconnect");
                    removed.insert(link_idx);
                }
            }
            // Probe after every op (including right after an update, the
            // interleaving the cache invalidation must get right).
            let client = CLIENTS[i % CLIENTS.len()];
            let printer = PRINTERS[j % PRINTERS.len()];
            let served = engine.query(client, printer);
            let fresh = reference(&shadow, client, printer);
            match (&served, &fresh) {
                (Ok(entry), Ok((availability, nodes))) => {
                    prop_assert!(
                        (entry.availability - availability).abs() < 1e-12,
                        "({client}, {printer}) after updates: engine {} != fresh {}",
                        entry.availability,
                        availability
                    );
                    let engine_nodes: BTreeSet<String> =
                        entry.upsim_nodes.iter().map(str::to_string).collect();
                    prop_assert_eq!(&engine_nodes, nodes);
                }
                (Err(_), Err(_)) => {} // both reject (e.g. partitioned model)
                _ => prop_assert!(
                    false,
                    "({client}, {printer}): engine {served:?} disagrees with fresh {fresh:?}"
                ),
            }
        }
        engine.shutdown();
    }
}
