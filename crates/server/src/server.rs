//! The TCP front-end: a readiness-based event loop instead of a thread
//! per connection.
//!
//! One *reactor* thread owns every connection's I/O: it multiplexes the
//! listener, a wake pipe, and all client sockets through
//! [`crate::reactor::Poller`], parses complete requests out of
//! per-connection read buffers, and hands the work to the engine via
//! [`Engine::execute_wire`] — the crossbeam worker pool stays the only
//! source of CPU parallelism, campaigns included. Workers deliver
//! results to a completion sink; the reactor drains it and routes each
//! response into its connection's write buffer. An idle connection costs
//! a slab slot and a few buffers, so thousands of open monitoring
//! sockets are cheap — the paper's "millions of users" premise applied
//! to the wire.
//!
//! **Pipelining.** A client may write N requests before reading any
//! reply; responses come back in receive order per connection. Requests
//! on one connection execute *strictly serially* — the next one is
//! dispatched only after the previous one's response is buffered — so a
//! pipelined `UPDATE`/`QUERY` mix observes exactly the semantics (and
//! bytes, `source=hit|miss` included) of the same commands sent one at a
//! time. Parallelism comes from many connections, not from reordering
//! one connection's stream. `CAMPAIGN` `PROGRESS` lines interleave into
//! the stream at the same milestones as before, ahead of later
//! responses.
//!
//! **Limits.** Request lines are capped (`ERR line too long` + close),
//! binary frames are length-checked, per-connection parsed-request
//! queues are bounded (reading pauses — TCP backpressure — until the
//! engine catches up), over-cap accepts are shed with one
//! `ERR server busy` line, and accept errors back off exponentially
//! instead of hot-spinning.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::engine::{Engine, EngineError, WireRequest, WireResponse};
use crate::metrics::ServerMetrics;
use crate::protocol::{
    encode_batch_response_frame, parse_batch_frame, parse_request, render_batch, render_campaign,
    render_campaign_progress, render_error, render_mc, render_models, render_perspective,
    render_save, render_stats, render_update, render_use, Request, FRAME_MARKER,
};
use crate::reactor::{Event, Interest, Poller};

/// Token of the accept socket in the poller.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token of the wake pipe's read end.
const TOKEN_WAKER: u64 = u64::MAX - 1;
/// Upper bound for the accept-error backoff.
const MAX_ACCEPT_BACKOFF_MS: u64 = 1000;
/// Largest accepted binary frame payload in bytes.
const MAX_FRAME_BYTES: usize = 4 << 20;
/// Most parsed-but-unanswered requests buffered per connection before the
/// reactor stops reading that socket (backpressure).
const MAX_PIPELINED: usize = 1024;

/// Front-end tunables; [`ServerConfig::default`] matches the served
/// protocol limits documented in the README.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Open-connection cap; accepts beyond it are shed with a one-line
    /// `ERR server busy` close (counted in `busy_rejections`).
    pub max_connections: usize,
    /// Longest accepted request line in bytes (terminator excluded);
    /// longer lines answer `ERR line too long` and close.
    pub max_line_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 8192,
            max_line_bytes: 1 << 20,
        }
    }
}

/// A running TCP server wrapped around an [`Engine`].
pub struct UpsimServer {
    engine: Engine,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
    sink: Arc<CompletionSink>,
    accept_stopped: Option<mpsc::Receiver<()>>,
}

/// Binds `addr` and starts serving `engine` with default limits.
///
/// Bind to port `0` for an ephemeral port (tests); read the actual address
/// back with [`UpsimServer::local_addr`].
pub fn serve(engine: Engine, addr: impl ToSocketAddrs) -> io::Result<UpsimServer> {
    serve_with(engine, addr, ServerConfig::default())
}

/// [`serve`] with explicit [`ServerConfig`] limits.
pub fn serve_with(
    engine: Engine,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> io::Result<UpsimServer> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;
    let poller = Poller::new()?;
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
    poller.add(wake_rx.as_raw_fd(), TOKEN_WAKER, Interest::READABLE)?;
    let sink = Arc::new(CompletionSink {
        queue: Mutex::new(Vec::new()),
        wake_tx,
        armed: AtomicBool::new(false),
    });
    let stop = Arc::new(AtomicBool::new(false));
    let metrics = Arc::new(ServerMetrics::new());
    let (stopped_tx, stopped_rx) = mpsc::channel();
    let mut reactor = Reactor {
        poller,
        listener: Some(listener),
        accept_registered: true,
        accept_resume: None,
        backoff_ms: 0,
        wake_rx,
        sink: Arc::clone(&sink),
        engine: engine.clone(),
        stop: Arc::clone(&stop),
        config,
        metrics: Arc::clone(&metrics),
        conns: Vec::new(),
        free: Vec::new(),
        open: 0,
        next_gen: 0,
        stopped_tx: Some(stopped_tx),
    };
    std::thread::spawn(move || reactor.run());
    Ok(UpsimServer {
        engine,
        local_addr,
        stop,
        metrics,
        sink,
        accept_stopped: Some(stopped_rx),
    })
}

impl UpsimServer {
    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The served engine (shares cache/metrics with remote clients).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The front-end's connection-layer metrics.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// `true` once a `SHUTDOWN` request has been accepted.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Blocks until the server has stopped accepting connections (after a
    /// `SHUTDOWN` request or [`UpsimServer::stop`]). The reactor may
    /// briefly outlive this while it answers connections that are still
    /// open — exactly like the old per-connection threads did.
    pub fn join(mut self) {
        if let Some(stopped) = self.accept_stopped.take() {
            // An Err means the reactor is gone entirely, which also
            // qualifies as "stopped accepting".
            let _ = stopped.recv();
        }
    }

    /// Stops the server and the engine from the host process (the local
    /// counterpart of a remote `SHUTDOWN`).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.engine.shutdown();
        self.sink.wake();
    }
}

/// A response (or `PROGRESS` line) on its way from a worker back to the
/// reactor, addressed by connection token.
enum Completion {
    /// An intermediate line written immediately, ahead of the final
    /// response; does not finish the in-flight request.
    Progress { token: u64, line: String },
    /// The final bytes of the in-flight request; unblocks the
    /// connection's dispatch queue.
    Done { token: u64, bytes: Vec<u8> },
}

/// Where completions land. `wake_tx` is the write end of a nonblocking
/// pipe registered in the poller: posting from a worker nudges the
/// reactor out of `wait`. The `armed` flag means "the reactor is awake
/// (or a wake byte is already in flight)": it stays set for the whole
/// time the reactor is processing, so the flood of synchronous cache-hit
/// completions a pipelined burst produces costs zero pipe syscalls, and
/// is cleared only on the edge into `wait`. A full pipe is ignored on
/// purpose — bytes already in it will wake the loop, and blocking here
/// could deadlock a worker against a reactor that is busy joining the
/// pool.
struct CompletionSink {
    queue: Mutex<Vec<Completion>>,
    wake_tx: UnixStream,
    armed: AtomicBool,
}

impl CompletionSink {
    fn post(&self, completion: Completion) {
        self.queue
            .lock()
            .expect("completion queue poisoned")
            .push(completion);
        self.wake();
    }

    fn wake(&self) {
        if !self.armed.swap(true, Ordering::AcqRel) {
            let _ = (&self.wake_tx).write(&[1]);
        }
    }

    /// The reactor is processing: posts need no wake byte until the next
    /// [`Self::prepare_sleep`].
    fn set_awake(&self) {
        self.armed.store(true, Ordering::Release);
    }

    fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.queue.lock().expect("completion queue poisoned"))
    }

    /// Disarms on the edge into `wait` and reports whether it is safe to
    /// sleep. A post that slipped in between the last drain and the
    /// disarm never wrote a wake byte (the sink was still armed), so its
    /// completion is what `false` reports; posts after the disarm write
    /// the pipe and wake the poller themselves.
    fn prepare_sleep(&self) -> bool {
        self.armed.store(false, Ordering::Release);
        let empty = self
            .queue
            .lock()
            .expect("completion queue poisoned")
            .is_empty();
        if !empty {
            self.set_awake();
        }
        empty
    }
}

/// The completion handle a dispatched request carries. Exactly one
/// `finish_*` call routes the response to the connection; if the handle
/// is dropped unfinished — the engine shut down and discarded the queued
/// job, callback and all — the drop posts the shutdown error instead, so
/// no request on a live connection is ever left unanswered.
struct Ticket {
    sink: Arc<CompletionSink>,
    token: u64,
    binary: bool,
    finished: bool,
}

impl Ticket {
    fn new(sink: &Arc<CompletionSink>, token: u64, binary: bool) -> Ticket {
        Ticket {
            sink: Arc::clone(sink),
            token,
            binary,
            finished: false,
        }
    }

    fn finish_line(self, line: String) {
        let mut bytes = line.into_bytes();
        bytes.push(b'\n');
        self.finish_bytes(bytes);
    }

    fn finish_bytes(mut self, bytes: Vec<u8>) {
        self.finished = true;
        self.sink.post(Completion::Done {
            token: self.token,
            bytes,
        });
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        let bytes = if self.binary {
            encode_batch_response_frame(&[Err(EngineError::Shutdown)])
        } else {
            let mut line = render_error(&EngineError::Shutdown).into_bytes();
            line.push(b'\n');
            line
        };
        self.sink.post(Completion::Done {
            token: self.token,
            bytes,
        });
    }
}

/// A parsed-but-not-yet-dispatched request in a connection's queue.
enum Cmd {
    /// A well-formed text request.
    Req(Request),
    /// A malformed text line: answer `ERR <msg>`, keep the session alive
    /// (invalid UTF-8 and parse errors are the client's problem, not the
    /// connection's).
    BadLine(String),
    /// A binary `BATCH` frame's pairs.
    Frame(Vec<(String, String)>),
    /// A protocol-fatal condition (oversized line, malformed frame — the
    /// byte stream can no longer be trusted): answer `ERR <msg>`, then
    /// close.
    Fatal(String),
}

struct Conn {
    stream: TcpStream,
    token: u64,
    /// Bytes read but not yet parsed into a complete request.
    rbuf: Vec<u8>,
    /// Parsed requests awaiting dispatch, in receive order.
    cmds: VecDeque<Cmd>,
    /// Whether a dispatched request is awaiting its completion. At most
    /// one per connection — the serialization that makes pipelined
    /// semantics identical to sequential execution.
    inflight: bool,
    /// Cancellation flag of an in-flight `CAMPAIGN`; flipped on close so
    /// a disconnected client's campaign stops burning the pool.
    cancel: Option<Arc<AtomicBool>>,
    /// The connection's `USE <model>` selection.
    session_model: Option<String>,
    /// Pending response bytes (`out[out_pos..]` not yet written).
    out: Vec<u8>,
    out_pos: usize,
    /// Flush what is buffered, then close (fatal error, shutdown).
    closing: bool,
    /// The parser gave up on the byte stream; stop reading.
    parse_dead: bool,
    /// Interest currently registered in the poller.
    want: Interest,
}

impl Conn {
    fn push_line(&mut self, line: &str) {
        self.out.reserve(line.len() + 1);
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
    }

    fn has_unsent(&self) -> bool {
        self.out_pos < self.out.len()
    }
}

struct Reactor {
    poller: Poller,
    listener: Option<TcpListener>,
    /// Whether the listener is currently registered (false during accept
    /// backoff).
    accept_registered: bool,
    /// When to re-register the listener after an accept error.
    accept_resume: Option<Instant>,
    backoff_ms: u64,
    wake_rx: UnixStream,
    sink: Arc<CompletionSink>,
    engine: Engine,
    stop: Arc<AtomicBool>,
    config: ServerConfig,
    metrics: Arc<ServerMetrics>,
    /// Connection slab; `token & 0xffff_ffff` indexes it, the upper bits
    /// carry a generation so completions for a recycled slot are
    /// discarded instead of delivered to the wrong client.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    open: usize,
    next_gen: u32,
    stopped_tx: Option<mpsc::Sender<()>>,
}

impl Reactor {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            self.settle();
            if self.stop.load(Ordering::SeqCst) {
                self.retire_listener();
                if self.open == 0 {
                    return;
                }
            }
            self.maybe_resume_accept();
            let timeout = match (self.accept_registered, self.listener.is_some()) {
                (false, true) => self
                    .accept_resume
                    .map(|at| at.saturating_duration_since(Instant::now())),
                _ => None,
            };
            // Disarm the sink only on the edge into `wait`; if a post
            // slipped in since the last drain, process it instead of
            // sleeping through it.
            if !self.sink.prepare_sleep() {
                continue;
            }
            events.clear();
            let waited = self.poller.wait(&mut events, timeout);
            self.sink.set_awake();
            if waited.is_err() {
                // epoll/poll itself failing is unrecoverable noise; don't
                // turn it into a hot loop.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            for event in &events {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.drain_waker(),
                    token => self.conn_event(token, event.readable, event.writable),
                }
            }
        }
    }

    /// Routes queued completions and keeps doing so until none are left —
    /// dispatching the next pipelined request can complete synchronously
    /// (cache hit), which enqueues the next completion, and so on. Socket
    /// writes are deferred until the cascade settles, so a 64-deep burst
    /// of cache hits leaves in one `write`, not 64.
    fn settle(&mut self) {
        let mut dirty: Vec<usize> = Vec::new();
        loop {
            let completions = self.sink.drain();
            if completions.is_empty() {
                break;
            }
            for completion in completions {
                match completion {
                    Completion::Progress { token, line } => {
                        if let Some(slot) = self.live_slot(token) {
                            self.conns[slot]
                                .as_mut()
                                .expect("live slot")
                                .push_line(&line);
                            if !dirty.contains(&slot) {
                                dirty.push(slot);
                            }
                        }
                    }
                    Completion::Done { token, bytes } => {
                        if let Some(slot) = self.live_slot(token) {
                            {
                                let conn = self.conns[slot].as_mut().expect("live slot");
                                conn.out.extend_from_slice(&bytes);
                                conn.inflight = false;
                                conn.cancel = None;
                            }
                            self.parse_conn(slot);
                            self.pump(slot);
                            if !dirty.contains(&slot) {
                                dirty.push(slot);
                            }
                        }
                    }
                }
            }
        }
        for slot in dirty {
            if self.conns[slot].is_some() {
                self.flush(slot);
                self.update_interest(slot);
            }
        }
    }

    /// slot for `token` iff that connection is still the same generation.
    fn live_slot(&self, token: u64) -> Option<usize> {
        let slot = (token & 0xffff_ffff) as usize;
        match self.conns.get(slot) {
            Some(Some(conn)) if conn.token == token => Some(slot),
            _ => None,
        }
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    // ----- accept path ---------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            if !self.accept_registered {
                return;
            }
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.backoff_ms = 0;
                    if self.stop.load(Ordering::SeqCst) {
                        continue; // dropped: the server is going away
                    }
                    if self.open >= self.config.max_connections {
                        self.shed(stream);
                        continue;
                    }
                    self.register_conn(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // EMFILE/ENFILE and friends: back off instead of
                    // spinning — deregister the listener and re-arm after
                    // an exponentially growing pause.
                    self.metrics.accept_errors.fetch_add(1, Ordering::Relaxed);
                    self.backoff_ms = (self.backoff_ms * 2).clamp(1, MAX_ACCEPT_BACKOFF_MS);
                    self.pause_accept();
                    return;
                }
            }
        }
    }

    /// Over the connection cap: one refusal line, then drop. Best-effort —
    /// a freshly accepted socket's send buffer always has room for it, and
    /// if not, the close alone tells the client everything it needs.
    fn shed(&self, stream: TcpStream) {
        self.metrics.busy_rejections.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_nonblocking(true);
        let _ = (&stream).write_all(b"ERR server busy\n");
    }

    fn pause_accept(&mut self) {
        if let Some(listener) = &self.listener {
            if self.accept_registered {
                let _ = self.poller.delete(listener.as_raw_fd());
                self.accept_registered = false;
            }
            self.accept_resume = Some(Instant::now() + Duration::from_millis(self.backoff_ms));
        }
    }

    fn maybe_resume_accept(&mut self) {
        if self.accept_registered || self.listener.is_none() {
            return;
        }
        let due = self.accept_resume.is_none_or(|at| Instant::now() >= at);
        if !due {
            return;
        }
        let listener = self.listener.as_ref().expect("listener checked above");
        if self
            .poller
            .add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)
            .is_ok()
        {
            self.accept_registered = true;
            self.accept_resume = None;
            // Connections may have queued while we were paused.
            self.accept_ready();
        } else {
            // Registration itself failed — treat like an accept error.
            self.backoff_ms = (self.backoff_ms * 2).clamp(1, MAX_ACCEPT_BACKOFF_MS);
            self.accept_resume = Some(Instant::now() + Duration::from_millis(self.backoff_ms));
        }
    }

    fn retire_listener(&mut self) {
        if let Some(listener) = self.listener.take() {
            if self.accept_registered {
                let _ = self.poller.delete(listener.as_raw_fd());
                self.accept_registered = false;
            }
        }
        if let Some(tx) = self.stopped_tx.take() {
            let _ = tx.send(());
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        self.next_gen = self.next_gen.wrapping_add(1);
        let token = ((self.next_gen as u64) << 32) | slot as u64;
        if self
            .poller
            .add(stream.as_raw_fd(), token, Interest::READABLE)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.conns[slot] = Some(Conn {
            stream,
            token,
            rbuf: Vec::new(),
            cmds: VecDeque::new(),
            inflight: false,
            cancel: None,
            session_model: None,
            out: Vec::new(),
            out_pos: 0,
            closing: false,
            parse_dead: false,
            want: Interest::READABLE,
        });
        self.open += 1;
        self.metrics
            .open_connections
            .fetch_add(1, Ordering::Relaxed);
    }

    fn close_conn(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            if let Some(cancel) = &conn.cancel {
                cancel.store(true, Ordering::SeqCst);
            }
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.open -= 1;
            self.metrics
                .open_connections
                .fetch_sub(1, Ordering::Relaxed);
            self.free.push(slot);
            // `conn` drops here, closing the socket.
        }
    }

    // ----- connection I/O ------------------------------------------------

    fn conn_event(&mut self, token: u64, readable: bool, writable: bool) {
        let Some(slot) = self.live_slot(token) else {
            return;
        };
        if readable {
            self.read_ready(slot);
        }
        if writable && self.conns[slot].is_some() {
            self.flush(slot);
            self.update_interest(slot);
        }
    }

    fn read_ready(&mut self, slot: usize) {
        let mut chunk = [0u8; 16384];
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.parse_dead || conn.cmds.len() >= MAX_PIPELINED {
                break; // backpressure: let the dispatcher catch up first
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    self.close_conn(slot);
                    return;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    self.parse_conn(slot);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot);
                    return;
                }
            }
        }
        self.pump(slot);
        self.flush(slot);
        self.update_interest(slot);
    }

    /// Carves complete requests (text lines or binary frames) out of the
    /// connection's read buffer into its command queue.
    fn parse_conn(&mut self, slot: usize) {
        let max_line = self.config.max_line_bytes;
        let metrics = Arc::clone(&self.metrics);
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let mut consumed = 0usize;
        while !conn.parse_dead && conn.cmds.len() < MAX_PIPELINED {
            let buf = &conn.rbuf[consumed..];
            if buf.is_empty() {
                break;
            }
            let cmd = if buf[0] == FRAME_MARKER {
                if buf.len() < 5 {
                    break; // header incomplete
                }
                let len = u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]) as usize;
                if len > MAX_FRAME_BYTES {
                    conn.parse_dead = true;
                    Cmd::Fatal(format!("frame too large ({len} > {MAX_FRAME_BYTES} bytes)"))
                } else if buf.len() < 5 + len {
                    break; // payload incomplete
                } else {
                    let parsed = parse_batch_frame(&buf[5..5 + len]);
                    consumed += 5 + len;
                    match parsed {
                        Ok(pairs) => Cmd::Frame(pairs),
                        Err(msg) => {
                            // The framing can no longer be trusted.
                            conn.parse_dead = true;
                            Cmd::Fatal(format!("bad frame: {msg}"))
                        }
                    }
                }
            } else {
                match buf.iter().position(|&b| b == b'\n') {
                    None => {
                        if buf.len() > max_line {
                            conn.parse_dead = true;
                            Cmd::Fatal("line too long".into())
                        } else {
                            break; // line incomplete
                        }
                    }
                    Some(newline) if newline > max_line => {
                        conn.parse_dead = true;
                        Cmd::Fatal("line too long".into())
                    }
                    Some(newline) => {
                        let mut line = &buf[..newline];
                        if line.last() == Some(&b'\r') {
                            line = &line[..line.len() - 1];
                        }
                        let cmd = match std::str::from_utf8(line) {
                            // One bad line is not a broken framing: report
                            // it and keep the session alive.
                            Err(_) => Some(Cmd::BadLine("invalid utf-8".into())),
                            Ok(text) if text.trim().is_empty() => None,
                            Ok(text) => Some(match parse_request(text) {
                                Ok(request) => Cmd::Req(request),
                                Err(msg) => Cmd::BadLine(msg),
                            }),
                        };
                        consumed += newline + 1;
                        match cmd {
                            Some(cmd) => cmd,
                            None => continue, // blank line
                        }
                    }
                }
            };
            // Depth as seen at parse time: queued + in flight + this one.
            metrics
                .pipelined_depth
                .record(conn.cmds.len() as u64 + u64::from(conn.inflight) + 1);
            conn.cmds.push_back(cmd);
        }
        if consumed > 0 {
            conn.rbuf.drain(..consumed);
        }
    }

    /// Dispatches queued commands until one is in flight (or something
    /// closes/empties the queue). Inline verbs (`STATS`, `MODELS`, `USE`,
    /// errors) complete immediately and let the loop continue — only
    /// engine work leaves a request in flight.
    fn pump(&mut self, slot: usize) {
        loop {
            {
                let Some(conn) = self.conns[slot].as_ref() else {
                    return;
                };
                if conn.inflight || conn.closing || conn.cmds.is_empty() {
                    return;
                }
            }
            let cmd = self.conns[slot]
                .as_mut()
                .expect("checked above")
                .cmds
                .pop_front()
                .expect("checked non-empty");
            if self.stop.load(Ordering::SeqCst) {
                // A connection that outlives a SHUTDOWN gets one final
                // line and a close instead of answering forever.
                let conn = self.conns[slot].as_mut().expect("checked above");
                conn.push_line("ERR shutting down");
                conn.closing = true;
                conn.cmds.clear();
                return;
            }
            match cmd {
                Cmd::Fatal(msg) => {
                    let conn = self.conns[slot].as_mut().expect("checked above");
                    conn.push_line(&format!("ERR {msg}"));
                    conn.closing = true;
                    conn.cmds.clear();
                    return;
                }
                Cmd::BadLine(msg) => {
                    let conn = self.conns[slot].as_mut().expect("checked above");
                    conn.push_line(&format!("ERR {msg}"));
                }
                Cmd::Frame(pairs) => {
                    self.dispatch_engine(slot, WireRequest::Batch { pairs }, true);
                }
                Cmd::Req(request) => self.dispatch_request(slot, request),
            }
        }
    }

    fn dispatch_request(&mut self, slot: usize, request: Request) {
        match request {
            Request::Stats => {
                // The engine snapshot plus the connection-layer suffix;
                // everything before the suffix is byte-identical to the
                // pre-reactor response.
                let line = format!(
                    "{}{}",
                    render_stats(&self.engine.stats()),
                    self.metrics.render_suffix()
                );
                self.conns[slot]
                    .as_mut()
                    .expect("live conn")
                    .push_line(&line);
            }
            Request::Models => {
                let line = render_models(&self.engine.models());
                self.conns[slot]
                    .as_mut()
                    .expect("live conn")
                    .push_line(&line);
            }
            Request::Use { model } => {
                let conn = self.conns[slot].as_mut().expect("live conn");
                match self.engine.resolve_model(&model) {
                    Ok(epoch) => {
                        let line = render_use(&model, epoch);
                        conn.session_model = Some(model);
                        conn.push_line(&line);
                    }
                    Err(err) => conn.push_line(&render_error(&err)),
                }
            }
            Request::Shutdown => {
                {
                    let conn = self.conns[slot].as_mut().expect("live conn");
                    conn.push_line("OK shutdown");
                    conn.closing = true;
                    conn.cmds.clear();
                }
                self.stop.store(true, Ordering::SeqCst);
                // Joining the pool stalls the reactor for a moment, but we
                // are stopping anyway: in-queue wire jobs either run first
                // (FIFO ahead of the Stops) or are drained, and their
                // completions are routed right after this returns.
                self.engine.shutdown();
            }
            Request::Campaign(spec) => {
                let cancel = Arc::new(AtomicBool::new(false));
                let conn = self.conns[slot].as_mut().expect("live conn");
                conn.cancel = Some(Arc::clone(&cancel));
                let (sink, token) = (Arc::clone(&self.sink), conn.token);
                let progress = Box::new(move |done: usize, total: usize| {
                    // Milestones at ~eighths of the run.
                    let step = (total / 8).max(1);
                    if done.is_multiple_of(step) || done == total {
                        let line = render_campaign_progress(done, total);
                        sink.post(Completion::Progress { token, line });
                    }
                });
                let request = WireRequest::Campaign {
                    spec,
                    cancel,
                    progress,
                };
                self.dispatch_engine(slot, request, false);
            }
            Request::Query { client, provider } => {
                self.dispatch_engine(slot, WireRequest::Query { client, provider }, false);
            }
            Request::Batch { pairs } => {
                self.dispatch_engine(slot, WireRequest::Batch { pairs }, false);
            }
            Request::MonteCarlo {
                client,
                provider,
                samples,
                seed,
                interval,
            } => {
                self.dispatch_engine(
                    slot,
                    WireRequest::MonteCarlo {
                        client,
                        provider,
                        samples,
                        seed,
                        interval,
                    },
                    false,
                );
            }
            Request::Update(command) => {
                self.dispatch_engine(slot, WireRequest::Update(command), false);
            }
            Request::Save => {
                self.dispatch_engine(slot, WireRequest::Save, false);
            }
        }
    }

    fn dispatch_engine(&mut self, slot: usize, request: WireRequest, binary: bool) {
        let (token, model) = {
            let conn = self.conns[slot].as_mut().expect("live conn");
            conn.inflight = true;
            (conn.token, conn.session_model.clone())
        };
        let ticket = Ticket::new(&self.sink, token, binary);
        self.engine.execute_wire(
            model.as_deref(),
            request,
            Box::new(move |result| {
                if binary {
                    let frame = match result {
                        Ok(WireResponse::Batch(results)) => encode_batch_response_frame(&results),
                        Ok(_) => encode_batch_response_frame(&[Err(EngineError::Model(
                            "internal: mismatched wire response".into(),
                        ))]),
                        Err(err) => encode_batch_response_frame(&[Err(err)]),
                    };
                    ticket.finish_bytes(frame);
                } else {
                    ticket.finish_line(render_wire_response(result));
                }
            }),
        );
    }

    // ----- write path ----------------------------------------------------

    fn flush(&mut self, slot: usize) {
        let close = {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            let mut close = false;
            loop {
                if !conn.has_unsent() {
                    conn.out.clear();
                    conn.out_pos = 0;
                    close = conn.closing && !conn.inflight;
                    break;
                }
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => {
                        close = true;
                        break;
                    }
                    Ok(n) => conn.out_pos += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        close = true;
                        break;
                    }
                }
            }
            close
        };
        if close {
            self.close_conn(slot);
        }
    }

    /// Re-arms the poller registration to match what the connection can
    /// currently make progress on.
    fn update_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let want = Interest::new(
            !conn.parse_dead && !conn.closing && conn.cmds.len() < MAX_PIPELINED,
            conn.has_unsent(),
        );
        if want != conn.want
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), conn.token, want)
                .is_ok()
        {
            conn.want = want;
        }
    }
}

/// Renders a wire completion exactly as the pre-reactor per-connection
/// thread did — same render functions, same `source=hit|miss` mapping.
fn render_wire_response(result: Result<WireResponse, EngineError>) -> String {
    match result {
        Err(err) => render_error(&err),
        Ok(WireResponse::Query { entry, cached }) => {
            render_perspective(&entry, if cached { "hit" } else { "miss" })
        }
        Ok(WireResponse::Batch(results)) => render_batch(&results),
        Ok(WireResponse::MonteCarlo {
            result,
            entry,
            cached,
            interval,
        }) => render_mc(
            &entry,
            &result,
            interval,
            if cached { "hit" } else { "miss" },
        ),
        Ok(WireResponse::Update(summary)) => render_update(&summary),
        Ok(WireResponse::Save(summary)) => render_save(&summary),
        Ok(WireResponse::Campaign { report, json }) => render_campaign(&report, json),
    }
}
