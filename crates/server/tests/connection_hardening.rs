//! Regression tests for the four connection-layer bugs fixed alongside
//! the reactor rewrite: unbounded request lines, invalid UTF-8 killing
//! the session, over-cap load shedding (the accept path's backoff
//! sibling), and campaigns outliving their client.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use netgen::usi::{perspective_mapping, printing_service, usi_infrastructure};
use upsim_server::{serve, serve_with, Counter, Engine, EngineConfig, ModelSnapshot, ServerConfig};

fn usi_engine(workers: usize) -> Engine {
    let snapshot = ModelSnapshot::new(usi_infrastructure(), printing_service())
        .expect("USI models are consistent");
    Engine::new(
        snapshot,
        EngineConfig {
            workers,
            mapper: Arc::new(|_, client, provider| perspective_mapping(client, provider)),
            ..EngineConfig::default()
        },
    )
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client {
            reader,
            writer: stream,
        }
    }

    fn request(&mut self, line: &str) -> String {
        self.send(line);
        self.read_line()
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
        self.writer.flush().expect("flush");
    }

    fn read_line(&mut self) -> String {
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        response.trim_end().to_string()
    }

    /// Reads to EOF, asserting the server closed the connection. A reset
    /// also counts: closing while unread client bytes sit in the server's
    /// receive buffer (the flood test) surfaces as RST, not FIN.
    fn expect_eof(&mut self) {
        let mut rest = String::new();
        match self.reader.read_to_string(&mut rest) {
            Ok(_) => assert!(rest.is_empty(), "unexpected data before close: {rest:?}"),
            Err(err) => assert!(
                matches!(
                    err.kind(),
                    std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::ConnectionAborted
                ),
                "unexpected read error: {err}"
            ),
        }
    }
}

/// Bugfix 1: a request line over the cap answers `ERR line too long` and
/// closes, instead of buffering a terminator-free stream without bound.
#[test]
fn oversized_request_line_is_rejected_and_closed() {
    let server = serve_with(
        usi_engine(2),
        "127.0.0.1:0",
        ServerConfig {
            max_line_bytes: 4096,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr());

    // A healthy request first, so the close below is attributable to the
    // oversized line and not to connection setup.
    assert!(client.request("QUERY t1 p1").starts_with("OK query "));

    // 64 KiB of 'Q' with no newline: far over the 4 KiB cap. The server
    // must answer without ever seeing a terminator.
    let flood = vec![b'Q'; 64 * 1024];
    client.writer.write_all(&flood).expect("send flood");
    client.writer.flush().expect("flush flood");
    assert_eq!(client.read_line(), "ERR line too long");
    client.expect_eof();

    server.stop();
    server.join();
}

/// Bugfix 2: a non-UTF-8 byte in one line gets `ERR invalid utf-8` and the
/// session stays alive (pre-fix, `BufRead::lines` erred and the handler
/// dropped the socket silently).
#[test]
fn invalid_utf8_line_reports_error_and_keeps_session_alive() {
    let server = serve(usi_engine(2), "127.0.0.1:0").expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr());

    client.writer.write_all(b"QUERY \xff\n").expect("send");
    client.writer.flush().expect("flush");
    assert_eq!(client.read_line(), "ERR invalid utf-8");

    // Same connection, next request: fully functional.
    let alive = client.request("QUERY t1 p1");
    assert!(alive.starts_with("OK query "), "unexpected: {alive}");

    server.stop();
    server.join();
}

/// Bugfix 3 (shedding half): over the connection cap, a new client gets
/// one `ERR server busy` line and a close — and the rejection is counted.
#[test]
fn over_cap_connections_are_shed_with_server_busy() {
    let server = serve_with(
        usi_engine(2),
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    let mut first = Client::connect(addr);
    let mut second = Client::connect(addr);
    // A round trip on each proves both are accepted and registered before
    // the third connect races the accept loop.
    assert!(first.request("STATS").starts_with("OK stats "));
    assert!(second.request("STATS").starts_with("OK stats "));

    let mut third = Client::connect(addr);
    assert_eq!(third.read_line(), "ERR server busy");
    third.expect_eof();
    assert_eq!(server.metrics().busy_rejections.load(Ordering::Relaxed), 1);

    // Closing one admitted connection frees a slot for a newcomer.
    drop(first);
    let mut fourth = loop {
        let mut candidate = Client::connect(addr);
        candidate.send("STATS");
        let line = candidate.read_line();
        if line.starts_with("OK stats ") {
            break candidate;
        }
        // The reactor has not yet observed the close; shed and retry.
        assert_eq!(line, "ERR server busy");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(fourth.request("QUERY t1 p1").starts_with("OK query "));

    server.stop();
    server.join();
}

/// Bugfix 4: a campaign whose client disconnects is cancelled — its
/// claimants stop before their next scenario and `scenarios_evaluated`
/// stops short of the scenario total (pre-fix the whole list burned
/// through the pool with nobody listening).
#[test]
fn disconnected_campaign_client_cancels_the_fanout() {
    // One kill scenario per USI device, priced by an 8M-trial Monte-Carlo
    // run: each scenario costs ~0.1 s on one worker, so the milestone
    // stream starts after the first scenario and the cancellation has a
    // full campaign's worth of runway to land mid-run.
    let total = usi_infrastructure().device_count() as u64;
    let server = serve(usi_engine(1), "127.0.0.1:0").expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr());

    client.send("CAMPAIGN kill-each-component pairs:t1:p1 mc:8000000");
    // Wait for the first PROGRESS milestone so the fan-out is provably
    // running, then vanish.
    let line = client.read_line();
    assert!(
        line.starts_with("PROGRESS campaign "),
        "unexpected first line: {line}"
    );
    drop(client);

    // The reactor notices the hangup and flips the cancellation flag; the
    // counter must settle short of the scenario total.
    let mut last = u64::MAX;
    let evaluated = loop {
        let now = server.engine().stats()[Counter::ScenariosEvaluated];
        if now == last {
            break now;
        }
        last = now;
        std::thread::sleep(Duration::from_millis(300));
    };
    assert!(
        evaluated < total,
        "campaign ran to completion ({evaluated}/{total}) despite the disconnect"
    );

    server.stop();
    server.join();
}
