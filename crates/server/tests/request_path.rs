//! One request path: the engine's blocking methods are thin waits on
//! `Engine::execute_wire`, so they count, queue and refuse requests
//! exactly as the TCP front-end's requests do — and an update the path
//! refuses never reaches the journal, nor an oversized `MC` the pool.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use netgen::usi::{perspective_mapping, printing_service, usi_infrastructure};
use upsim_server::{
    serve, CampaignSpec, Counter, Engine, EngineConfig, EngineError, MetricsSnapshot,
    ModelSnapshot, UpdateCommand, MAX_MC_SAMPLES,
};

const CAMPAIGN: &str = "kill-each-component pairs:t1:p1,t6:p2";

fn usi_engine() -> Engine {
    let snapshot = ModelSnapshot::new(usi_infrastructure(), printing_service())
        .expect("USI models are consistent");
    let config = EngineConfig {
        workers: 2,
        mapper: Arc::new(|_, client, provider| perspective_mapping(client, provider)),
        ..EngineConfig::default()
    };
    Engine::new(snapshot, config)
}

fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("upsim-path-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create state dir");
    dir
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client {
            reader,
            writer: stream,
        }
    }

    /// Sends one line and returns the final response line, skipping any
    /// `PROGRESS` lines a campaign streams ahead of it.
    fn request(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        loop {
            let mut response = String::new();
            self.reader.read_line(&mut response).expect("read response");
            if !response.starts_with("PROGRESS ") {
                return response.trim_end().to_string();
            }
        }
    }
}

/// The value of `key=` in a `key=value ...` response line.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let prefix = format!("{key}=");
    line.split_whitespace()
        .find_map(|word| word.strip_prefix(prefix.as_str()))
        .unwrap_or_else(|| panic!("no `{key}=` in `{line}`"))
}

/// What `STATS` counts: every counter of the table, so that one added
/// later is compared too, and the gauges. Left out are the time-valued
/// numbers (busy time, latencies, stage totals) and the state directory
/// path.
fn counts(stats: &MetricsSnapshot) -> ([u64; Counter::COUNT], [u64; 9]) {
    let mut counters = stats.counters;
    counters[Counter::WorkerBusyNs as usize] = 0;
    let gauges = [
        stats.eval_latency.count(),
        stats.observed_components,
        stats.cache_len as u64,
        stats.cache_capacity as u64,
        stats.cache_evictions,
        stats.epoch,
        stats.workers as u64,
        stats.journal_len,
        stats.last_save_epoch,
    ];
    (counters, gauges)
}

/// The same sequence — QUERY miss, QUERY hit, BATCH with an unknown
/// device, MC, UPDATE, SAVE, CAMPAIGN — through the blocking `_on`
/// methods and over TCP against a twin engine moves every counter alike,
/// pool tasks included.
#[test]
fn blocking_calls_move_the_same_counters_as_wire_requests() {
    let pairs: Vec<(String, String)> = [("t1", "p1"), ("t2", "p2"), ("ghost", "p1")]
        .iter()
        .map(|(c, p)| (c.to_string(), p.to_string()))
        .collect();
    let disconnect = UpdateCommand::Disconnect {
        a: "d1".into(),
        b: "c2".into(),
    };

    let blocking_dir = state_dir("blocking");
    let blocking = usi_engine();
    blocking
        .enable_persistence(&blocking_dir, 0)
        .expect("state dir");
    let (_, cached) = blocking
        .query_traced_on(None, "t1", "p1")
        .expect("valid perspective");
    assert!(!cached, "first query evaluates");
    let (_, cached) = blocking
        .query_traced_on(None, "t1", "p1")
        .expect("valid perspective");
    assert!(cached, "second query hits");
    let results = blocking.batch_on(None, &pairs).expect("batch runs");
    assert_eq!(
        results[2].as_ref().err(),
        Some(&EngineError::UnknownDevice("ghost".into()))
    );
    blocking
        .monte_carlo_on(None, "t1", "p1", 10_000, 7)
        .expect("valid perspective");
    blocking.update_on(None, disconnect).expect("link exists");
    blocking.save_state_on(None).expect("persistence enabled");
    let spec = CampaignSpec::parse(CAMPAIGN).expect("spec parses");
    blocking
        .campaign_on(None, spec, |_, _| {})
        .expect("campaign runs");
    // Joining the pool makes every job's accounting visible.
    blocking.shutdown();

    let wire_dir = state_dir("wire");
    let wire_engine = usi_engine();
    wire_engine
        .enable_persistence(&wire_dir, 0)
        .expect("state dir");
    let server = serve(wire_engine, "127.0.0.1:0").expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr());
    assert!(client.request("QUERY t1 p1").contains("source=miss"));
    assert!(client.request("QUERY t1 p1").contains("source=hit"));
    assert!(client
        .request("BATCH t1:p1 t2:p2 ghost:p1")
        .starts_with("ERR unknown device `ghost`"));
    assert!(client.request("MC t1 p1 10000 7").starts_with("OK "));
    assert!(client.request("UPDATE DISCONNECT d1 c2").starts_with("OK "));
    assert!(client.request("SAVE").starts_with("OK save "));
    assert!(client
        .request(&format!("CAMPAIGN {CAMPAIGN}"))
        .starts_with("OK campaign "));
    server.stop();

    assert_eq!(counts(&blocking.stats()), counts(&server.engine().stats()));
    for dir in [blocking_dir, wire_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// After `shutdown()`, every blocking verb answers `Shutdown` promptly —
/// `batch_on` included, as one request-level error — and `batch` fails
/// every pair instead of panicking.
#[test]
fn blocking_verbs_after_shutdown_fail_fast() {
    let engine = usi_engine();
    engine.shutdown();
    let (done_tx, done_rx) = mpsc::channel();
    let caller = engine.clone();
    std::thread::spawn(move || {
        let pairs = vec![("t1".to_string(), "p1".to_string()); 2];
        let spec = CampaignSpec::parse(CAMPAIGN).expect("spec parses");
        let disconnect = UpdateCommand::Disconnect {
            a: "d1".into(),
            b: "c2".into(),
        };
        let errors = vec![
            ("query", caller.query_traced_on(None, "t1", "p1").err()),
            ("batch", caller.batch_on(None, &pairs).err()),
            (
                "mc",
                caller.monte_carlo_on(None, "t1", "p1", 1_000, 1).err(),
            ),
            ("update", caller.update_on(None, disconnect).err()),
            ("save", caller.save_state_on(None).err()),
            ("campaign", caller.campaign_on(None, spec, |_, _| {}).err()),
        ];
        let _ = done_tx.send((errors, caller.batch(&pairs)));
    });
    let (errors, per_pair) = done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("every blocking verb must return within 5 s of shutdown");
    for (verb, error) in errors {
        assert_eq!(error, Some(EngineError::Shutdown), "{verb}");
    }
    assert_eq!(per_pair.len(), 2);
    for result in per_pair {
        assert_eq!(result.err(), Some(EngineError::Shutdown), "batch");
    }
}

/// `UPDATE CONNECT` of two devices that are already linked, in either
/// direction, answers a distinct `ERR` and leaves the epoch, the journal
/// and the cache alone; restoring a removed link still works. So do the
/// other updates that would change nothing or corrupt the model: removing
/// a link that is not there (or names no device), linking a device to
/// itself, and substituting a service the mapper cannot map.
#[test]
fn duplicate_connect_is_rejected_before_journaling() {
    let dir = state_dir("duplicate");
    let engine = usi_engine();
    engine.enable_persistence(&dir, 0).expect("state dir");
    let server = serve(engine, "127.0.0.1:0").expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr());

    let before = client.request("QUERY t1 p1");
    let stats_before = client.request("STATS");
    for command in ["UPDATE CONNECT d1 c2", "UPDATE CONNECT c2 d1"] {
        let reply = client.request(command);
        assert!(
            reply.starts_with("ERR link ") && reply.ends_with(" already exists"),
            "{command}: {reply}"
        );
    }
    for (command, expected) in [
        ("UPDATE DISCONNECT t1 p1", "ERR no link t1--p1"),
        ("UPDATE DISCONNECT ghost t1", "ERR no link ghost--t1"),
        ("UPDATE CONNECT t1 t1", "ERR cannot link t1 to itself"),
        (
            "UPDATE SERVICE backup store",
            "ERR model error: atomic service 'store' has no service mapping pair",
        ),
    ] {
        assert_eq!(client.request(command), expected, "{command}");
    }
    let stats_after = client.request("STATS");
    for key in ["epoch", "journal_len", "updates", "cache_len"] {
        assert_eq!(
            field(&stats_after, key),
            field(&stats_before, key),
            "{key} moved"
        );
    }
    let after = client.request("QUERY t1 p1");
    assert_eq!(after.replace("source=hit", "source=miss"), before);
    assert_eq!(field(&after, "paths"), field(&before, "paths"));

    assert!(client.request("UPDATE DISCONNECT d1 c2").starts_with("OK "));
    assert!(client.request("UPDATE CONNECT d1 c2").starts_with("OK "));
    let stats = client.request("STATS");
    assert_eq!(field(&stats, "journal_len"), "2");
    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}

/// An `MC` over the per-request trial cap is refused with its own `ERR`
/// before anything reaches the pool: no task runs, `mc_queries` and
/// `mc_trials` stay put, `errors` counts it, and the next `MC` on the
/// same connection still answers. The blocking call refuses it too.
#[test]
fn mc_over_the_trial_cap_is_refused_before_the_pool() {
    let over = MAX_MC_SAMPLES + 1;
    let server = serve(usi_engine(), "127.0.0.1:0").expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr());
    assert_eq!(
        client.request(&format!("MC t1 p1 {over} 7")),
        format!("ERR MC samples {over} exceed the per-request limit of 1073741824")
    );
    let stats = client.request("STATS");
    for (key, value) in [
        ("mc_queries", "0"),
        ("mc_trials", "0"),
        ("errors", "1"),
        ("tasks_executed", "0"),
    ] {
        assert_eq!(field(&stats, key), value, "{key} in {stats}");
    }
    assert!(client.request("MC t1 p1 1000 7").starts_with("OK mc "));
    server.stop();

    let engine = usi_engine();
    assert_eq!(
        engine.monte_carlo("t1", "p1", over, 7).err(),
        Some(EngineError::McSampleLimit(over))
    );
    engine.shutdown();
    let stats = engine.stats();
    assert_eq!(
        (stats[Counter::McQueries], stats[Counter::McTrials]),
        (0, 0)
    );
    assert_eq!(
        (stats[Counter::Errors], stats[Counter::TasksExecuted]),
        (1, 0)
    );
}

/// On an idle 2-worker engine an `MC` of many claims runs as two pool
/// tasks, the worker that took it plus one helper, and so does one of
/// four single-block claims, two for each. An `MC` of three claims or
/// fewer cannot give two claimants two claims each, and runs as one
/// task.
#[test]
fn mc_posts_a_helper_only_when_it_has_blocks_to_share() {
    for (samples, tasks) in [(200_000, 2), (2_048, 2), (1_536, 1), (512, 1)] {
        let engine = usi_engine();
        engine
            .monte_carlo("t1", "p1", samples, 7)
            .expect("valid perspective");
        // Joining the pool makes every task's accounting visible.
        engine.shutdown();
        assert_eq!(
            engine.stats()[Counter::TasksExecuted],
            tasks,
            "{samples}-trial MC on 2 idle workers"
        );
    }
}

/// A `BATCH` stops once its reply is known. Its pairs are probed in order
/// up to the first failure, so a pair after an unknown device is never
/// evaluated: only `t1:p1`, which comes first and could have failed
/// first, is, and the later `MC` on `t10:p1` finds no cached entry. A miss
/// that fails in the pool likewise stops every later miss, and each pair
/// from the first failure on carries that failure.
#[test]
fn a_batch_evaluates_no_pair_after_its_first_failure() {
    let server = serve(usi_engine(), "127.0.0.1:0").expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr());
    assert_eq!(
        client.request("BATCH t1:p1 ghost:p1 t10:p1 t11:p1 t12:p1"),
        "ERR unknown device `ghost`"
    );
    let stats = client.request("STATS");
    for (key, value) in [("cache_misses", "1"), ("evals", "1")] {
        assert_eq!(field(&stats, key), value, "{key} in {stats}");
    }
    let mc = client.request("MC t10 p1 1000 1");
    assert_eq!(field(&mc, "source"), "miss", "{mc}");
    server.stop();

    // On one worker the misses run in order: `t2`'s mapping names no
    // device, so its evaluation fails and `t3` and `t4` are skipped.
    let snapshot = ModelSnapshot::new(usi_infrastructure(), printing_service())
        .expect("USI models are consistent");
    let config = EngineConfig {
        workers: 1,
        mapper: Arc::new(|_, client, provider| {
            perspective_mapping(if client == "t2" { "nowhere" } else { client }, provider)
        }),
        ..EngineConfig::default()
    };
    let engine = Engine::new(snapshot, config);
    let pairs: Vec<(String, String)> = ["t1", "t2", "t3", "t4"]
        .iter()
        .map(|client| (client.to_string(), "p1".to_string()))
        .collect();
    let results = engine.batch(&pairs);
    assert!(results[0].is_ok(), "t1:p1 evaluates");
    let failure = results[1].clone().expect_err("t2's mapping fails");
    assert!(matches!(failure, EngineError::Model(_)), "{failure:?}");
    for result in &results[2..] {
        assert_eq!(result.as_ref().err(), Some(&failure));
    }
    let stats = engine.stats();
    assert_eq!(
        (stats[Counter::CacheMisses], stats.eval_latency.count()),
        (1, 1)
    );
    engine.shutdown();
}
