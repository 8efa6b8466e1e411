//! Restart fidelity: a saved + journaled engine, restored into a fresh
//! process-equivalent engine, must resume at the exact epoch and serve
//! bit-identical results for every USI perspective.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

use netgen::usi::{
    all_printing_perspectives, perspective_mapping, printing_service, usi_infrastructure,
};
use upsim_core::service::CompositeService;
use upsim_server::{persist, Engine, EngineConfig, EngineError, ModelSnapshot, UpdateCommand};

fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("upsim-persist-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create state dir");
    dir
}

fn usi_engine(snapshot: ModelSnapshot, workers: usize) -> Engine {
    let config = EngineConfig {
        workers,
        mapper: Arc::new(|_, client, provider| perspective_mapping(client, provider)),
        ..EngineConfig::default()
    };
    Engine::new(snapshot, config)
}

fn fresh_snapshot() -> ModelSnapshot {
    ModelSnapshot::new(usi_infrastructure(), printing_service()).expect("USI models are consistent")
}

fn all_pairs() -> Vec<(String, String)> {
    all_printing_perspectives()
        .iter()
        .map(|(c, p, _)| (c.clone(), p.clone()))
        .collect()
}

#[test]
fn save_restore_resumes_exact_epoch_and_perspectives() {
    let dir = state_dir("roundtrip");
    let engine = usi_engine(fresh_snapshot(), 2);
    engine
        .enable_persistence(&dir, 0)
        .expect("enable persistence");

    // A mixed CONNECT / DISCONNECT / SERVICE sequence (epochs 1..=4). The
    // substituted service keeps the printing atomics so the USI mapper
    // still resolves, but under a new name.
    let substituted =
        CompositeService::sequential("printS-v2", &printing_service().atomic_services())
            .expect("well-formed substitute");
    engine
        .update(UpdateCommand::Disconnect {
            a: "c1".into(),
            b: "c2".into(),
        })
        .expect("disconnect core link");
    engine
        .update(UpdateCommand::Connect {
            a: "c1".into(),
            b: "c2".into(),
        })
        .expect("reconnect core link");
    engine
        .update(UpdateCommand::SubstituteService {
            service: substituted,
        })
        .expect("substitute service");
    engine
        .update(UpdateCommand::Disconnect {
            a: "d1".into(),
            b: "c2".into(),
        })
        .expect("disconnect distribution link");

    // SAVE at epoch 4, then one more journaled update past the snapshot —
    // the journal suffix a restart must replay.
    let save = engine.save_state().expect("save");
    assert_eq!(save.epoch, 4);
    engine
        .update(UpdateCommand::Connect {
            a: "d1".into(),
            b: "c2".into(),
        })
        .expect("reconnect after save");
    assert_eq!(engine.epoch(), 5);

    let stats = engine.stats();
    assert_eq!(stats.journal_len, 5);
    assert_eq!(stats.last_save_epoch, 4);
    assert_eq!(
        stats.state_dir.as_deref(),
        Some(dir.display().to_string().as_str())
    );

    let pairs = all_pairs();
    assert_eq!(pairs.len(), 45);
    let before: Vec<_> = engine
        .batch(&pairs)
        .into_iter()
        .map(|r| r.expect("pre-restart evaluation"))
        .collect();
    engine.shutdown(); // "kill" the first engine

    // Restart: fresh fallback models, snapshot + journal suffix replayed.
    let report = persist::restore(&dir, fresh_snapshot()).expect("restore");
    assert!(report.from_snapshot);
    assert_eq!(report.journal_entries, 5);
    assert_eq!(report.replayed, 1, "only the post-save suffix replays");
    assert_eq!(report.snapshot.epoch, 5);
    assert_eq!(report.snapshot.service_name(), "printS-v2");

    let restored = usi_engine(report.snapshot, 2);
    restored
        .enable_persistence(&dir, 0)
        .expect("re-enable persistence");
    assert_eq!(restored.epoch(), 5);
    assert_eq!(restored.stats().journal_len, 5);
    assert_eq!(restored.stats().last_save_epoch, 4);

    let after: Vec<_> = restored
        .batch(&pairs)
        .into_iter()
        .map(|r| r.expect("post-restart evaluation"))
        .collect();
    for (((client, provider), a), b) in pairs.iter().zip(&before).zip(&after) {
        assert_eq!(
            a.availability.to_bits(),
            b.availability.to_bits(),
            "({client}, {provider}): availability drifted across restart"
        );
        let nodes_a: BTreeSet<&str> = a.upsim_nodes.iter().collect();
        let nodes_b: BTreeSet<&str> = b.upsim_nodes.iter().collect();
        assert_eq!(
            nodes_a, nodes_b,
            "({client}, {provider}): UPSIM node set drifted"
        );
        assert_eq!(a.path_counts, b.path_counts, "({client}, {provider})");
        assert_eq!(a.epoch, 5);
        assert_eq!(b.epoch, 5);
    }
    restored.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn observe_stream_restores_exact_posterior_state() {
    let dir = state_dir("observe");
    let engine = usi_engine(fresh_snapshot(), 2);
    engine
        .enable_persistence(&dir, 0)
        .expect("enable persistence");

    // Mixed UPDATE / OBSERVE stream, epochs 1..=5: a closed down sojourn
    // and a closed up sojourn for c1, one closed down sojourn for d1, and
    // topology churn interleaved so replay must keep both machines in step.
    engine
        .update(UpdateCommand::Observe {
            component: "c1".into(),
            up: false,
            ts: 1_000,
        })
        .expect("c1 goes down");
    engine
        .update(UpdateCommand::Disconnect {
            a: "d1".into(),
            b: "c2".into(),
        })
        .expect("disconnect mid-stream");
    engine
        .update(UpdateCommand::Observe {
            component: "c1".into(),
            up: true,
            ts: 1_360,
        })
        .expect("c1 repaired after 360s");
    engine
        .update(UpdateCommand::ObserveBatch {
            events: vec![
                ("d1".into(), false, 2_000),
                ("d1".into(), true, 2_090),
                ("c1".into(), false, 40_000),
            ],
        })
        .expect("batched transitions");
    engine
        .update(UpdateCommand::Connect {
            a: "d1".into(),
            b: "c2".into(),
        })
        .expect("reconnect");

    // SAVE at epoch 5 (sufficient statistics land in snapshot.xml), then
    // one more OBSERVE past the snapshot — the journal suffix replay must
    // re-fold it into the posterior.
    let save = engine.save_state().expect("save");
    assert_eq!(save.epoch, 5);
    engine
        .update(UpdateCommand::Observe {
            component: "c1".into(),
            up: true,
            ts: 40_600,
        })
        .expect("repair past the snapshot");
    assert_eq!(engine.epoch(), 6);

    let expected_params = Arc::clone(&engine.model().params);
    assert_eq!(expected_params.observations_total(), 6);
    assert_eq!(expected_params.observed_components(), 2);
    let pairs = all_pairs();
    let before: Vec<_> = engine
        .batch(&pairs)
        .into_iter()
        .map(|r| r.expect("pre-kill evaluation"))
        .collect();

    // Kill mid-stream: no shutdown, no final save — the fsynced journal
    // and the epoch-5 snapshot are all a restart gets. Leak the engine the
    // way a SIGKILL would.
    std::mem::forget(engine);

    // A torn OBSERVE half-line at the tail (crash mid-append) must be
    // trimmed, not folded and not fatal.
    use std::io::Write as _;
    let mut journal = std::fs::OpenOptions::new()
        .append(true)
        .open(persist::journal_path(&dir))
        .expect("open journal");
    journal.write_all(b"7 OBSERVE c1 dow").expect("torn append");
    drop(journal);

    let report = persist::restore(&dir, fresh_snapshot()).expect("restore");
    assert!(report.from_snapshot);
    assert_eq!(report.snapshot.epoch, 6);
    assert_eq!(report.replayed, 1, "only the post-save OBSERVE replays");
    assert_eq!(
        *report.snapshot.params, *expected_params,
        "posterior sufficient statistics must round-trip exactly"
    );

    let restored = usi_engine(report.snapshot, 2);
    restored
        .enable_persistence(&dir, 0)
        .expect("re-open trims the torn tail");
    assert_eq!(restored.epoch(), 6);
    let after: Vec<_> = restored
        .batch(&pairs)
        .into_iter()
        .map(|r| r.expect("post-restart evaluation"))
        .collect();
    for (((client, provider), a), b) in pairs.iter().zip(&before).zip(&after) {
        assert_eq!(
            a.availability.to_bits(),
            b.availability.to_bits(),
            "({client}, {provider}): observation-refined availability drifted"
        );
    }

    // The restored monotonicity guard still sits at c1's last_ts = 40600:
    // an older timestamp is rejected, the next newer one lands at epoch 7.
    restored
        .update(UpdateCommand::Observe {
            component: "c1".into(),
            up: false,
            ts: 40_000,
        })
        .expect_err("stale timestamp rejected after restore");
    restored
        .update(UpdateCommand::Observe {
            component: "c1".into(),
            up: false,
            ts: 50_000,
        })
        .expect("fresh observation appends after trim");
    assert_eq!(restored.epoch(), 7);
    restored.shutdown();
    let entries = persist::read_journal(&persist::journal_path(&dir)).expect("journal valid");
    assert_eq!(entries.len(), 7, "torn tail replaced by the clean record");
    assert_eq!(entries[6].epoch, 7);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_without_snapshot_replays_full_journal() {
    let dir = state_dir("journal-only");
    let engine = usi_engine(fresh_snapshot(), 1);
    engine
        .enable_persistence(&dir, 0)
        .expect("enable persistence");
    engine
        .update(UpdateCommand::Disconnect {
            a: "c1".into(),
            b: "c2".into(),
        })
        .expect("disconnect");
    engine.shutdown();

    // No SAVE ever happened: restore starts from the fallback and replays
    // everything.
    let report = persist::restore(&dir, fresh_snapshot()).expect("restore");
    assert!(!report.from_snapshot);
    assert_eq!(report.replayed, 1);
    assert_eq!(report.snapshot.epoch, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn save_every_autosaves_the_snapshot() {
    let dir = state_dir("autosave");
    let engine = usi_engine(fresh_snapshot(), 1);
    engine
        .enable_persistence(&dir, 2)
        .expect("enable persistence");
    engine
        .update(UpdateCommand::Disconnect {
            a: "c1".into(),
            b: "c2".into(),
        })
        .expect("update 1");
    assert_eq!(engine.stats().last_save_epoch, 0, "not yet due");
    engine
        .update(UpdateCommand::Connect {
            a: "c1".into(),
            b: "c2".into(),
        })
        .expect("update 2");
    assert_eq!(engine.stats().last_save_epoch, 2, "autosaved on the 2nd");
    assert!(persist::snapshot_path(&dir).exists());
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_journal_tail_is_tolerated_on_restore() {
    let dir = state_dir("torn-tail");
    let engine = usi_engine(fresh_snapshot(), 1);
    engine
        .enable_persistence(&dir, 0)
        .expect("enable persistence");
    engine
        .update(UpdateCommand::Disconnect {
            a: "c1".into(),
            b: "c2".into(),
        })
        .expect("disconnect");
    engine.shutdown();

    // Simulate a torn write: append half a record with no newline.
    use std::io::Write as _;
    let mut journal = std::fs::OpenOptions::new()
        .append(true)
        .open(persist::journal_path(&dir))
        .expect("open journal");
    journal.write_all(b"2 CONN").expect("torn append");
    drop(journal);

    let report = persist::restore(&dir, fresh_snapshot()).expect("torn tail tolerated");
    assert_eq!(report.replayed, 1);
    assert_eq!(report.snapshot.epoch, 1);

    // Re-opening for append trims the torn tail so new records land clean.
    let restored = usi_engine(report.snapshot, 1);
    restored
        .enable_persistence(&dir, 0)
        .expect("re-open after torn tail");
    restored
        .update(UpdateCommand::Connect {
            a: "c1".into(),
            b: "c2".into(),
        })
        .expect("append after trim");
    restored.shutdown();
    let entries = persist::read_journal(&persist::journal_path(&dir)).expect("journal valid");
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[1].epoch, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_mid_journal_is_a_clean_error() {
    let dir = state_dir("garbage");
    std::fs::write(
        persist::journal_path(&dir),
        "1 DISCONNECT c1 c2\nnot a journal line\n2 CONNECT c1 c2\n",
    )
    .expect("write corrupt journal");
    let err = persist::restore(&dir, fresh_snapshot()).expect_err("corruption detected");
    assert!(
        err.to_string().contains("line 2"),
        "error names the corrupt line: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn save_without_state_dir_is_a_persist_error() {
    let engine = usi_engine(fresh_snapshot(), 1);
    let err = engine.save_state().expect_err("no state dir configured");
    assert!(matches!(err, EngineError::Persist(_)), "got {err:?}");
    engine.shutdown();
}
