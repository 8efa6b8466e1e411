//! Shutdown liveness: no caller may block forever across a shutdown, no
//! matter how its query interleaves with the stop sequence, and the TCP
//! front-end must come down cleanly even on a wildcard bind.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use netgen::usi::{perspective_mapping, printing_service, usi_infrastructure};
use upsim_server::{serve, Engine, EngineConfig, EngineError, ModelSnapshot};

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

/// Hammer the engine from several threads while the main thread shuts it
/// down: every in-flight and raced query must return (result or
/// `Shutdown`) in bounded time. Pre-fix, a query that slipped past the
/// shutdown flag check could block on its reply channel forever.
#[test]
fn concurrent_queries_during_shutdown_all_return() {
    const THREADS: usize = 4;
    const CLIENTS: [&str; 4] = ["t1", "t5", "t10", "t15"];
    const PRINTERS: [&str; 3] = ["p1", "p2", "p3"];

    let engine = usi_engine(2);
    let (done_tx, done_rx) = mpsc::channel();
    for t in 0..THREADS {
        let engine = engine.clone();
        let done_tx = done_tx.clone();
        std::thread::spawn(move || {
            loop {
                let client = CLIENTS[t % CLIENTS.len()];
                let mut stopped = false;
                for printer in PRINTERS {
                    if let Err(EngineError::Shutdown) = engine.query(client, printer) {
                        stopped = true;
                    }
                }
                if stopped {
                    break;
                }
            }
            let _ = done_tx.send(t);
        });
    }
    drop(done_tx);

    // Let the threads get a few queries in flight, then pull the plug.
    std::thread::sleep(Duration::from_millis(20));
    engine.shutdown();

    for _ in 0..THREADS {
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("every query thread must observe Shutdown in bounded time");
    }
}

/// `stop()` on a wildcard bind (`0.0.0.0:<port>`): the self-poke must
/// reach the accept loop via loopback, so `join()` returns promptly.
/// Pre-fix, connecting to the unspecified bind address could fail and
/// leave the accept thread parked in `accept()` forever.
#[test]
fn stop_unparks_accept_loop_on_unspecified_bind() {
    let engine = usi_engine(1);
    let server = serve(engine, "0.0.0.0:0").expect("bind wildcard ephemeral port");
    assert!(server.local_addr().ip().is_unspecified());

    server.stop();
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("accept loop must exit after stop() on a wildcard bind");
}

/// `MC` callers racing `shutdown()` all return, with a result or
/// `Shutdown`, in bounded time — whether their run's helper jobs ran,
/// were still queued when the workers stopped, or were drained unrun.
#[test]
fn concurrent_mc_calls_during_shutdown_all_return() {
    const CLIENTS: [&str; 4] = ["t1", "t5", "t10", "t15"];

    let engine = usi_engine(2);
    let (done_tx, done_rx) = mpsc::channel();
    for client in CLIENTS {
        let engine = engine.clone();
        let done_tx = done_tx.clone();
        std::thread::spawn(move || {
            // 20,000 trials are 40 blocks: a run posts a helper
            // whenever the other worker has no job to run.
            let mut seed = 0;
            while !matches!(
                engine.monte_carlo(client, "p1", 20_000, seed),
                Err(EngineError::Shutdown)
            ) {
                seed += 1;
            }
            let _ = done_tx.send(client);
        });
    }
    drop(done_tx);

    std::thread::sleep(Duration::from_millis(20));
    engine.shutdown();

    for _ in CLIENTS {
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("every MC thread must observe Shutdown in bounded time");
    }
}
