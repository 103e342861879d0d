//! The readiness-driven connection engine: one thread per loop, each
//! owning its own sockets.
//!
//! This is the epoll core the service runs on. Each event-loop thread
//! owns the [`Waker`] receive half and every connection it accepted or
//! adopted, and loop 0 also owns the service's one listener; no loop
//! ever blocks on any one socket. Workers never touch sockets at all —
//! they pop [`Job`]s from the bounded queue, compute a [`Response`],
//! push it onto the owning loop's completion list, and ring that loop's
//! waker so it wakes up and writes the bytes out. With more than one
//! loop, loop 0 round-robins accepted sockets to its peers through
//! per-loop inboxes, using the same waker.
//!
//! Each connection is a small state machine:
//!
//! ```text
//!             ┌──────────┐ parsed a request, queue accepted
//!   accept ──▶│ Reading  │──────────────────────────────┐
//!             └──────────┘                               ▼
//!                  ▲   ▲                           ┌──────────┐
//!   response fully │   │ queue full → 503 + close  │ InFlight │
//!   flushed,       │   │ (pipelined tail dropped)  └──────────┘
//!   keep-alive     │   │                                 │ worker pushed
//!                  │   ▼                                 ▼ the completion
//!             ┌──────────┐  close_after_write      ┌──────────┐
//!             │ Draining │◀─────────────────────── │ Writing  │
//!             └──────────┘  (half-close + drain)   └──────────┘
//!                  │ peer EOF or grace expired
//!                  ▼
//!                drop
//! ```
//!
//! Exactly one request per connection is in flight at a time, so
//! pipelined responses come back in request order with no sequencing
//! bookkeeping. Keep-alive connections loop `Reading → InFlight →
//! Writing → Reading`; a `Connection: close` request, a shed, a parse
//! error, or shutdown sets `close_after_write`, which routes the
//! connection through `Draining`: the response is flushed, the write
//! side is shut down (an abrupt close with unread client bytes would RST
//! and could destroy the response in the peer's receive buffer), and
//! reads are discarded until the peer hangs up or a short grace expires.
//!
//! Timeouts are enforced by a periodic sweep: connections idle in
//! `Reading` longer than the configured idle timeout are closed
//! (`serve.idle_closed`), stalled writes are reaped, and `Draining`
//! connections are dropped at their grace deadline. `InFlight`
//! connections are bounded by the worker-side request deadline instead.
//! An accept that fails for want of resources (`EMFILE`, `ENFILE`,
//! `ENOBUFS`) takes the level-triggered listener out of the poller until
//! the next sweep, so a full descriptor table cannot spin the loop.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dcf_core::replay::ReplayOutcome;

use crate::cache::RunArtifacts;
use crate::http::{self, Response};
use crate::poller::{raw_fd, Event, Interest, Poller, RawFd, Waker};
use crate::queue::{BoundedQueue, PushError};
use crate::server::{Job, Shared, RETRY_AFTER_SECS};

/// Poller token of the accept listener.
pub(crate) const LISTENER_TOKEN: u64 = 0;
/// Poller token of the waker's receive half.
pub(crate) const WAKER_TOKEN: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 2;
/// Upper bound on one `Poller::wait`; also the shutdown-observation latency.
const POLL_TIMEOUT: Duration = Duration::from_millis(25);
/// How often the timeout sweep runs.
const SWEEP_INTERVAL: Duration = Duration::from_millis(100);
/// How long a half-closed (`Draining`) connection waits for the peer's EOF.
const DRAIN_GRACE: Duration = Duration::from_millis(500);
/// How long a partially written response may stall before the connection
/// is reaped.
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(10);
/// Per-read chunk size.
const READ_CHUNK: usize = 8 * 1024;
/// Hard cap on buffered request bytes per connection (one max-size
/// request plus pipelined slack).
const MAX_BUFFERED: usize = http::MAX_HEAD_BYTES + http::MAX_BODY_BYTES + 4096;
/// A stream stops framing new lines while this many response bytes are
/// still unflushed — a slow reader holds the stream at its next event,
/// not a growing socket write buffer.
const STREAM_BACKPRESSURE_BYTES: usize = 64 * 1024;

/// No read or write interest: parked while a worker computes (the poller
/// still reports hang-ups, which carry no interest bit).
const PARKED: Interest = Interest {
    read: false,
    write: false,
};
/// Write-only interest while flushing a response.
const WRITE_ONLY: Interest = Interest {
    read: false,
    write: true,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Accumulating request bytes; parse attempted after every read.
    Reading,
    /// One request handed to the worker pool; awaiting its completion.
    InFlight,
    /// Flushing response bytes.
    Writing,
    /// Final response flushed, write side shut down; discarding reads
    /// until peer EOF or the drain grace expires.
    Draining,
}

/// A replay feed being written as chunked NDJSON. It holds the run's
/// trace and its cached replay outcome, not the body: each line is
/// formatted only when it is due and the connection has room, so a
/// stream buffers at most the backpressure cap plus one line. The
/// connection stays in `Writing` for the stream's whole lifetime.
#[derive(Debug, Clone)]
pub(crate) struct ReplayStream {
    /// The run whose trace the ticket lines are formatted from; shared
    /// with the run cache, so an evicted run stays alive once per run
    /// until its streams end.
    artifacts: Arc<RunArtifacts>,
    /// The cached event sequence and summary line.
    outcome: Arc<ReplayOutcome>,
    /// Wall milliseconds per simulated second (0 = no pacing).
    ms_per_sim_sec: f64,
    /// Next event not yet framed; `events.len()` once only the summary
    /// line is left.
    next: usize,
    /// When the stream head was queued; due times are relative to this.
    started: Instant,
    /// One event's line, reused for every line of the stream.
    line: Vec<u8>,
    /// Terminal chunk framed — `finish_write` may run once the buffer
    /// drains.
    finished: bool,
}

impl ReplayStream {
    /// A stream of `outcome`, replayed from `artifacts`' trace, at
    /// `ms_per_sim_sec` wall milliseconds per simulated second.
    pub(crate) fn new(
        artifacts: Arc<RunArtifacts>,
        outcome: Arc<ReplayOutcome>,
        ms_per_sim_sec: f64,
    ) -> Self {
        ReplayStream {
            artifacts,
            outcome,
            ms_per_sim_sec,
            next: 0,
            started: Instant::now(),
            line: Vec::with_capacity(256),
            finished: false,
        }
    }

    /// Wall milliseconds after the head at which an event `offset_secs`
    /// into the window comes due.
    fn due_ms(&self, offset_secs: u64) -> u64 {
        (offset_secs as f64 * self.ms_per_sim_sec) as u64
    }

    /// Frames due lines after the unflushed bytes of `buf` (those from
    /// `*pos` on) until they reach [`STREAM_BACKPRESSURE_BYTES`], one
    /// line per chunk; after the last event come the summary line and
    /// the terminal chunk. A fully flushed buffer is emptied first. Each
    /// event waits for its [`ReplayStream::due_ms`] (at speed 0 all are
    /// due at once), and the summary comes due with the last event.
    /// Returns whether anything was framed.
    fn frame_due(&mut self, buf: &mut Vec<u8>, pos: &mut usize, now: Instant) -> bool {
        if *pos > 0 && *pos >= buf.len() {
            buf.clear();
            *pos = 0;
        }
        let before = buf.len();
        let elapsed_ms = now.duration_since(self.started).as_millis() as u64;
        while !self.finished && buf.len() - *pos < STREAM_BACKPRESSURE_BYTES {
            self.line.clear();
            match self.outcome.events.get(self.next) {
                Some(event) if self.due_ms(event.offset_secs) > elapsed_ms => break,
                Some(event) => {
                    event.write_line(&self.artifacts.trace, &mut self.line);
                    self.next += 1;
                }
                None => {
                    self.line
                        .extend_from_slice(self.outcome.summary_line.as_bytes());
                    self.finished = true;
                }
            }
            self.line.push(b'\n');
            http::push_chunk(buf, &self.line);
            if self.finished {
                buf.extend_from_slice(http::LAST_CHUNK);
            }
        }
        buf.len() > before
    }
}

struct Connection {
    stream: TcpStream,
    fd: RawFd,
    state: ConnState,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// After the current response flushes, half-close instead of reading
    /// the next request.
    close_after_write: bool,
    /// Responses completed on this connection (`>0` ⇒ keep-alive reuse).
    served: u64,
    last_activity: Instant,
    drain_deadline: Option<Instant>,
    interest: Interest,
    /// Active replay stream.
    replay: Option<Box<ReplayStream>>,
}

impl Connection {
    fn new(stream: TcpStream, fd: RawFd) -> Connection {
        Connection {
            stream,
            fd,
            state: ConnState::Reading,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            close_after_write: false,
            served: 0,
            last_activity: Instant::now(),
            drain_deadline: None,
            interest: Interest::READ,
            replay: None,
        }
    }

    /// True while a replay stream still has lines to emit.
    fn streaming(&self) -> bool {
        self.replay.as_ref().is_some_and(|s| !s.finished)
    }
}

/// One event loop; built by [`crate::server::Server::start`] and run to
/// completion on the supervisor thread (loop 0) or a scoped peer thread.
pub(crate) struct EventLoop {
    /// Index into `shared.loops`: which completion list, waker, and
    /// inbox are this loop's.
    loop_id: usize,
    /// Next round-robin handoff target.
    next_loop: usize,
    poller: Poller,
    /// The service's listener on loop 0; `None` on its peers, which
    /// only adopt from their inbox.
    listener: Option<TcpListener>,
    /// The listener is out of the poller after a failed accept; the next
    /// sweep registers it again.
    accept_paused: bool,
    waker_rx: TcpStream,
    conns: HashMap<u64, Connection>,
    next_token: u64,
    queue: Arc<BoundedQueue<Job>>,
    shared: Arc<Shared>,
    max_connections: usize,
    idle_timeout: Duration,
    /// Set once the stop flag is observed: listener gone, every response
    /// goes out `Connection: close`, loop exits when the map empties.
    draining: bool,
    /// Pre-formatted per-loop metric names, so hot paths don't format.
    metric_accepted: String,
    metric_requests: String,
    metric_conns: String,
}

impl EventLoop {
    /// Builds the loop and registers the listener (when this loop has
    /// one) + waker, so registration failures surface to the caller
    /// synchronously.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        loop_id: usize,
        mut poller: Poller,
        listener: Option<TcpListener>,
        waker_rx: TcpStream,
        queue: Arc<BoundedQueue<Job>>,
        shared: Arc<Shared>,
        max_connections: usize,
        idle_timeout: Duration,
    ) -> std::io::Result<EventLoop> {
        if let Some(listener) = &listener {
            poller.register(raw_fd(listener), LISTENER_TOKEN, Interest::READ)?;
        }
        poller.register(raw_fd(&waker_rx), WAKER_TOKEN, Interest::READ)?;
        Ok(EventLoop {
            loop_id,
            next_loop: 0,
            poller,
            listener,
            accept_paused: false,
            waker_rx,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            queue,
            shared,
            max_connections,
            idle_timeout,
            draining: false,
            metric_accepted: format!("serve.loop.{loop_id}.accepted"),
            metric_requests: format!("serve.loop.{loop_id}.requests"),
            metric_conns: format!("serve.loop.{loop_id}.conns"),
        })
    }

    /// Runs until shutdown: the stop flag is set *and* every in-flight
    /// response has been flushed (the graceful-drain contract — every
    /// request the queue accepted gets its response).
    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut last_sweep = Instant::now();
        loop {
            if let Err(_e) = self.poller.wait(&mut events, POLL_TIMEOUT) {
                // Wait failures are programming errors (bad fd); don't
                // hot-spin on them.
                self.shared.metrics.add("serve.io_errors", 1);
                std::thread::sleep(POLL_TIMEOUT);
            }
            let batch = std::mem::take(&mut events);
            for ev in &batch {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => Waker::drain(&mut self.waker_rx),
                    token => self.conn_event(token, ev),
                }
            }
            events = batch;
            // Completions and inbox handoffs are checked every iteration:
            // the waker byte may have been consumed by an earlier drain in
            // the same batch.
            self.deliver_completions();
            self.adopt_inbox();
            // Paced streams ride the poll cadence: every iteration, frame
            // whatever chunks have come due.
            self.pump_streams();

            if !self.draining && self.shared.stop.load(Ordering::SeqCst) {
                self.begin_drain();
            }
            if self.draining && self.conns.is_empty() {
                break;
            }
            let now = Instant::now();
            if now.duration_since(last_sweep) >= SWEEP_INTERVAL {
                self.sweep(now);
                last_sweep = now;
            }
        }
        for (_, conn) in self.conns.drain() {
            self.poller.deregister(conn.fd);
        }
    }

    /// Stop observed: close the listener, drop connections with no
    /// pending response. What remains is `InFlight`/`Writing`; their
    /// responses are flushed `Connection: close` and then dropped.
    fn begin_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            self.poller.deregister(raw_fd(&listener));
        }
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| matches!(c.state, ConnState::Reading | ConnState::Draining))
            .map(|(t, _)| *t)
            .collect();
        for token in idle {
            self.drop_conn(token);
        }
    }

    fn drop_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.deregister(conn.fd);
            self.shared
                .metrics
                .set_gauge(&self.metric_conns, self.conns.len() as f64);
        }
    }

    fn set_interest(&mut self, token: u64, interest: Interest) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.interest != interest && self.poller.modify(conn.fd, token, interest).is_ok() {
            conn.interest = interest;
        }
    }

    /// Accepts every pending connection (level-triggered: stop at
    /// `WouldBlock`). With several loops the accepted socket is
    /// round-robined across all of them: peers get it through their
    /// inbox + waker, the local share is adopted directly. Any other
    /// accept error (out of descriptors or buffers) leaves connections
    /// pending, so the listener would poll ready again at once: it leaves
    /// the poller until the next sweep.
    fn accept_ready(&mut self) {
        let width = self.shared.loops.len();
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if width > 1 {
                        let target = self.next_loop;
                        self.next_loop = (self.next_loop + 1) % width;
                        if target != self.loop_id {
                            let lane = &self.shared.loops[target];
                            lane.inbox.lock().expect("inbox poisoned").push(stream);
                            lane.waker.wake();
                            continue;
                        }
                    }
                    self.adopt_stream(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.shared.metrics.add("serve.io_errors", 1);
                    self.poller.deregister(raw_fd(listener));
                    self.accept_paused = true;
                    return;
                }
            }
        }
    }

    /// Registers one accepted (or handed-off) socket as a connection.
    /// Beyond `max_connections` — this loop's share of the budget — the
    /// connection is answered `503` + `Retry-After` and closed rather
    /// than left unserved.
    fn adopt_stream(&mut self, stream: TcpStream) {
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        let fd = raw_fd(&stream);
        let token = self.next_token;
        self.next_token += 1;
        let over_capacity = self.conns.len() >= self.max_connections;
        let mut conn = Connection::new(stream, fd);
        let interest = if over_capacity {
            self.shared.metrics.add("serve.rejected", 1);
            let resp = Response::overloaded("connection limit reached", RETRY_AFTER_SECS);
            conn.write_buf = resp.serialize(false);
            conn.state = ConnState::Writing;
            conn.close_after_write = true;
            WRITE_ONLY
        } else {
            self.shared.metrics.add("serve.accepted", 1);
            self.shared.metrics.add(&self.metric_accepted, 1);
            Interest::READ
        };
        conn.interest = interest;
        if self.poller.register(fd, token, interest).is_ok() {
            self.conns.insert(token, conn);
            self.shared
                .metrics
                .set_gauge(&self.metric_conns, self.conns.len() as f64);
            if over_capacity {
                self.flush(token);
            }
        } else {
            self.shared.metrics.add("serve.io_errors", 1);
        }
    }

    /// Adopts sockets the accepting loop 0 handed to this loop's inbox
    /// (loop 0 itself never receives any). During drain handed-off
    /// sockets are simply closed — the peer sees a connection reset
    /// instead of waiting on a loop that will never serve it.
    fn adopt_inbox(&mut self) {
        if self.loop_id == 0 {
            return;
        }
        let handed: Vec<TcpStream> = {
            let mut inbox = self.shared.loops[self.loop_id]
                .inbox
                .lock()
                .expect("inbox poisoned");
            std::mem::take(&mut *inbox)
        };
        for stream in handed {
            if self.draining {
                drop(stream);
                continue;
            }
            self.adopt_stream(stream);
        }
    }

    fn conn_event(&mut self, token: u64, ev: &Event) {
        if !self.conns.contains_key(&token) {
            return; // late event for an already-dropped connection
        }
        if ev.writable {
            self.flush(token);
        }
        if ev.readable || ev.closed {
            self.read_ready(token);
        }
    }

    /// Drains the socket's readable bytes into the connection buffer
    /// (discarding them in `Draining`), then attempts a parse.
    fn read_ready(&mut self, token: u64) {
        let mut scratch = [0u8; READ_CHUNK];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    // Peer EOF. A connection between requests or mid-read
                    // is simply gone; one with a response still pending
                    // finishes the write first, then closes — except a
                    // live stream, whose remaining chunks have no reader.
                    match conn.state {
                        ConnState::Reading | ConnState::Draining => self.drop_conn(token),
                        ConnState::Writing if conn.streaming() => {
                            self.shared.metrics.add("serve.replay.disconnects", 1);
                            self.drop_conn(token);
                        }
                        ConnState::InFlight | ConnState::Writing => {
                            conn.close_after_write = true;
                        }
                    }
                    return;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    if conn.state == ConnState::Draining {
                        continue; // discarding until EOF
                    }
                    conn.read_buf.extend_from_slice(&scratch[..n]);
                    if conn.read_buf.len() > MAX_BUFFERED {
                        self.respond(
                            token,
                            Response::error(413, "request exceeds size limits"),
                            false,
                        );
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.shared.metrics.add("serve.io_errors", 1);
                    self.drop_conn(token);
                    return;
                }
            }
        }
        self.try_dispatch(token);
    }

    /// Parses at most one request off the buffer and hands it to the
    /// worker pool. A full queue is the load-shed path: `503` +
    /// `Retry-After` with `Connection: close`, and any pipelined tail
    /// already buffered is dropped — the close announcement is what makes
    /// that correct (the client knows nothing after the 503 was looked at).
    fn try_dispatch(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.state != ConnState::Reading {
            return;
        }
        match http::parse_request(&conn.read_buf) {
            Ok(None) => {}
            Err(err) => {
                // `413` for size-limit violations, `400` for everything
                // else — both framed with a correct `content-length`, so
                // a keep-alive client that sent garbage never desyncs.
                let status = match err {
                    http::HttpError::TooLarge => 413,
                    http::HttpError::Malformed(_) => 400,
                };
                let message = err.to_string();
                self.respond(token, Response::error(status, &message), false);
            }
            Ok(Some(parsed)) => {
                conn.read_buf.drain(..parsed.consumed);
                self.shared.metrics.add("serve.requests", 1);
                self.shared.metrics.add(&self.metric_requests, 1);
                if conn.served > 0 {
                    self.shared.metrics.add("serve.keepalive.reused", 1);
                }
                let keep_alive = parsed.keep_alive && !self.draining;
                let job = Job {
                    loop_id: self.loop_id,
                    token,
                    request: parsed.request,
                    received_at: Instant::now(),
                    keep_alive,
                };
                match self.queue.try_push(job) {
                    Ok(()) => {
                        if let Some(conn) = self.conns.get_mut(&token) {
                            conn.state = ConnState::InFlight;
                        }
                        self.set_interest(token, PARKED);
                    }
                    Err((_, PushError::Full)) => {
                        self.shared.metrics.add("serve.rejected", 1);
                        if let Some(conn) = self.conns.get_mut(&token) {
                            conn.read_buf.clear();
                        }
                        self.respond(
                            token,
                            Response::overloaded("accept queue full", RETRY_AFTER_SECS),
                            false,
                        );
                    }
                    Err((_, PushError::Closed)) => {
                        self.respond(
                            token,
                            Response::overloaded("service shutting down", RETRY_AFTER_SECS),
                            false,
                        );
                    }
                }
            }
        }
    }

    /// Queues response bytes on the connection and starts flushing. A
    /// replay stream queues only the chunked head and its first due
    /// lines; [`EventLoop::pump_streams`] and [`EventLoop::flush`] frame
    /// the rest as they come due and the buffer drains.
    fn respond(&mut self, token: u64, mut response: Response, keep_alive: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let keep_alive = keep_alive && !conn.close_after_write;
        conn.write_pos = 0;
        if let Some(mut stream) = response.stream.take() {
            conn.write_buf = response.serialize_stream_head(keep_alive);
            stream.started = Instant::now();
            stream.frame_due(&mut conn.write_buf, &mut conn.write_pos, stream.started);
            conn.replay = Some(stream);
        } else {
            conn.write_buf = response.serialize(keep_alive);
            conn.replay = None;
        }
        conn.close_after_write = !keep_alive;
        conn.state = ConnState::Writing;
        self.set_interest(token, WRITE_ONLY);
        self.flush(token);
    }

    /// Frames the due chunks of every live stream into its connection's
    /// write buffer (see [`ReplayStream::frame_due`]) and flushes them.
    fn pump_streams(&mut self) {
        let streaming: Vec<u64> = self
            .conns
            .iter()
            // A stream waiting for its socket frames in `flush`.
            .filter(|(_, c)| {
                c.state == ConnState::Writing && c.streaming() && c.interest != WRITE_ONLY
            })
            .map(|(&t, _)| t)
            .collect();
        let now = Instant::now();
        for token in streaming {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            let Some(stream) = conn.replay.as_mut() else {
                continue;
            };
            if stream.frame_due(&mut conn.write_buf, &mut conn.write_pos, now) {
                self.flush(token);
            } else if conn.write_pos >= conn.write_buf.len() {
                // Idle between due chunks is pacing, not a stalled
                // write — keep the stall sweep off this connection.
                conn.last_activity = now;
            }
        }
    }

    /// Writes as much of the pending response as the socket accepts. A
    /// replay stream whose buffer drains gets at most one more batch of
    /// due lines per call (its write budget, [`STREAM_BACKPRESSURE_BYTES`]
    /// plus one line): a fast reader of a long stream then yields the
    /// loop between batches instead of holding it for the whole stream,
    /// and the level-triggered poller reports the socket writable again
    /// on the next turn.
    fn flush(&mut self, token: u64) {
        let mut framed = false;
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.state != ConnState::Writing {
                return;
            }
            if conn.write_pos >= conn.write_buf.len() {
                if let Some(stream) = conn.replay.as_mut().filter(|s| !s.finished) {
                    if framed {
                        // Budget spent: the rest waits for the next turn.
                        self.set_interest(token, WRITE_ONLY);
                        return;
                    }
                    // Buffer drained: frame the next due lines now rather
                    // than at the next poll.
                    if stream.frame_due(&mut conn.write_buf, &mut conn.write_pos, Instant::now()) {
                        framed = true;
                        continue;
                    }
                    // Nothing due yet; park with read interest so a peer
                    // EOF (client walked away mid-stream) is noticed.
                    self.set_interest(token, Interest::READ);
                    return;
                }
                self.finish_write(token);
                return;
            }
            let pos = conn.write_pos;
            match conn.stream.write(&conn.write_buf[pos..]) {
                Ok(0) => {
                    self.fail_write(token);
                    return;
                }
                Ok(n) => {
                    conn.write_pos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.set_interest(token, WRITE_ONLY);
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.fail_write(token);
                    return;
                }
            }
        }
    }

    /// Write failed (reset, broken pipe, or a zero-length write): record
    /// it — as a mid-stream disconnect too, if a replay was live — and
    /// drop the connection.
    fn fail_write(&mut self, token: u64) {
        if self.conns.get(&token).is_some_and(Connection::streaming) {
            self.shared.metrics.add("serve.replay.disconnects", 1);
        }
        self.shared.metrics.add("serve.io_errors", 1);
        self.drop_conn(token);
    }

    /// Response fully flushed: either loop back to `Reading` (keep-alive,
    /// possibly with the next pipelined request already buffered) or
    /// half-close and drain.
    fn finish_write(&mut self, token: u64) {
        let close_after = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.write_buf = Vec::new();
            conn.write_pos = 0;
            conn.replay = None;
            conn.served += 1;
            conn.last_activity = Instant::now();
            conn.close_after_write
        };
        if close_after {
            if self.draining {
                self.drop_conn(token);
                return;
            }
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.state = ConnState::Draining;
                conn.read_buf = Vec::new();
                conn.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
                // Half-close: the peer sees EOF after the response; an
                // abrupt close with unread client bytes would RST and
                // could destroy the response in the peer's receive buffer.
                let _ = conn.stream.shutdown(Shutdown::Write);
            }
            self.set_interest(token, Interest::READ);
        } else {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.state = ConnState::Reading;
            }
            self.set_interest(token, Interest::READ);
            self.try_dispatch(token);
        }
    }

    /// Hands each completed response back to its connection. Completions
    /// for connections that died while the worker computed are discarded.
    fn deliver_completions(&mut self) {
        let completions = {
            let mut guard = self.shared.loops[self.loop_id]
                .completions
                .lock()
                .expect("completions poisoned");
            std::mem::take(&mut *guard)
        };
        for c in completions {
            let Some(conn) = self.conns.get(&c.token) else {
                continue;
            };
            debug_assert_eq!(conn.state, ConnState::InFlight);
            let keep_alive = c.keep_alive && !self.draining;
            self.respond(c.token, c.response, keep_alive);
        }
    }

    /// Periodic timeout pass; see the module docs for which states are
    /// covered here versus by the worker deadline. A listener paused by a
    /// failed accept rejoins the poller here.
    fn sweep(&mut self, now: Instant) {
        if let (true, Some(listener)) = (self.accept_paused, &self.listener) {
            let fd = raw_fd(listener);
            self.accept_paused = self
                .poller
                .register(fd, LISTENER_TOKEN, Interest::READ)
                .is_err();
        }
        let victims: Vec<(u64, bool)> = self
            .conns
            .iter()
            .filter_map(|(&token, conn)| match conn.state {
                ConnState::Reading => (now.duration_since(conn.last_activity) > self.idle_timeout)
                    .then_some((token, true)),
                ConnState::Writing => (now.duration_since(conn.last_activity)
                    > WRITE_STALL_TIMEOUT)
                    .then_some((token, false)),
                ConnState::Draining => conn
                    .drain_deadline
                    .is_some_and(|d| now >= d)
                    .then_some((token, false)),
                ConnState::InFlight => None,
            })
            .collect();
        for (token, idle) in victims {
            if idle {
                self.shared.metrics.add("serve.idle_closed", 1);
            }
            self.drop_conn(token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcf_core::replay::{replay, ReplayConfig};

    /// A medium trace's artifacts and default replay outcome.
    fn medium_replay() -> (Arc<RunArtifacts>, Arc<ReplayOutcome>) {
        let trace = dcf_sim::Scenario::medium()
            .seed(1)
            .simulate(&dcf_sim::RunOptions::default())
            .expect("medium scenario runs");
        let artifacts = Arc::new(RunArtifacts::new(trace));
        let outcome = Arc::new(replay(&artifacts.trace, &ReplayConfig::default()));
        (artifacts, outcome)
    }

    /// One `flush` of a speed-0 replay whose buffer has drained frames
    /// one batch of due lines, not the whole stream, though the loopback
    /// socket would take more: the rest waits for the next writable turn.
    #[test]
    fn one_flush_frames_at_most_one_batch() {
        use crate::server::LoopShared;
        use std::sync::atomic::AtomicBool;
        use std::sync::Mutex;

        let (waker, waker_rx) = Waker::pair().expect("waker");
        let shared = Arc::new(Shared {
            cache: crate::cache::ResponseCache::new(1),
            metrics: dcf_obs::MetricsRegistry::disabled(),
            compute_delay: Duration::ZERO,
            catalog: None,
            loops: vec![LoopShared {
                completions: Mutex::new(Vec::new()),
                waker,
                inbox: Mutex::new(Vec::new()),
            }],
            stop: AtomicBool::new(false),
        });
        let poller = Poller::new(None).expect("poller");
        let queue = Arc::new(BoundedQueue::new(1));
        let mut event_loop = EventLoop::new(
            0,
            poller,
            None,
            waker_rx,
            queue,
            shared,
            8,
            Duration::from_secs(5),
        )
        .expect("event loop");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        event_loop.adopt_stream(listener.accept().expect("accept").0);
        let token = FIRST_CONN_TOKEN;

        let (artifacts, outcome) = medium_replay();
        let conn = event_loop.conns.get_mut(&token).expect("adopted");
        conn.state = ConnState::Writing;
        conn.replay = Some(Box::new(ReplayStream::new(artifacts, outcome, 0.0)));
        event_loop.flush(token);

        let conn = &event_loop.conns[&token];
        assert!(conn.streaming(), "one flush framed the whole stream");
        assert_eq!(
            conn.write_pos,
            conn.write_buf.len(),
            "the batch was not written"
        );
        assert_eq!(conn.interest, WRITE_ONLY);
        client.set_nonblocking(true).unwrap();
        let mut wire = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match client.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => wire.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("read: {e}"),
            }
        }
        // The batch stops at the first line that reaches the budget, and
        // a line is far under 4 kB.
        assert!(
            wire.len() < STREAM_BACKPRESSURE_BYTES + 4096,
            "one flush wrote {} bytes",
            wire.len()
        );
    }

    /// The payloads of a chunked body, checking each chunk's framing and
    /// that it ends at the terminal chunk.
    fn dechunk(mut wire: &[u8]) -> Vec<Vec<u8>> {
        let mut chunks = Vec::new();
        loop {
            let eol = wire
                .windows(2)
                .position(|w| w == b"\r\n")
                .expect("size line");
            let hex = std::str::from_utf8(&wire[..eol]).expect("ASCII size");
            let size = usize::from_str_radix(hex, 16).expect("hex size");
            let payload = &wire[eol + 2..eol + 2 + size];
            assert_eq!(&wire[eol + 2 + size..eol + 4 + size], b"\r\n");
            wire = &wire[eol + 4 + size..];
            if size == 0 {
                assert!(wire.is_empty(), "bytes after the terminal chunk");
                return chunks;
            }
            chunks.push(payload.to_vec());
        }
    }

    /// A medium replay framed while a reader drains the buffer 10 kB at
    /// a time, at speed 0 (every line due at once) and paced at ten wall
    /// milliseconds per simulated day with `now` advancing 1 ms a step:
    /// at most the cap plus one chunk plus the terminal chunk is ever
    /// buffered, no line is framed before it is due, and the reader gets
    /// the `for_each_line` lines and then the summary, one per chunk.
    #[test]
    fn framing_stops_at_the_backpressure_cap() {
        let (artifacts, outcome) = medium_replay();
        let mut lines = Vec::new();
        outcome
            .for_each_line(&artifacts.trace, |_, line| {
                lines.push([line, &b"\n"[..]].concat());
                Ok::<_, ()>(())
            })
            .expect("collecting cannot fail");
        lines.push(format!("{}\n", outcome.summary_line).into_bytes());
        let largest = lines
            .iter()
            .map(|l| format!("{:x}\r\n\r\n", l.len()).len() + l.len())
            .max()
            .expect("lines");
        assert!(lines.iter().map(Vec::len).sum::<usize>() > 4 * STREAM_BACKPRESSURE_BYTES);

        let paced = 10.0 / dcf_trace::SECS_PER_DAY as f64;
        for ms_per_sim_sec in [0.0, paced] {
            let mut stream =
                ReplayStream::new(Arc::clone(&artifacts), Arc::clone(&outcome), ms_per_sim_sec);
            let (mut now, mut waited) = (stream.started, 0usize);
            let (mut buf, mut pos, mut wire) = (Vec::new(), 0, Vec::new());
            while !stream.finished || pos < buf.len() {
                stream.frame_due(&mut buf, &mut pos, now);
                let buffered = buf.len() - pos;
                assert!(
                    buffered <= STREAM_BACKPRESSURE_BYTES + largest + http::LAST_CHUNK.len(),
                    "{buffered} bytes buffered"
                );
                let elapsed_ms = now.duration_since(stream.started).as_millis() as u64;
                if let Some(last) = stream.next.checked_sub(1) {
                    let due = stream.due_ms(outcome.events[last].offset_secs);
                    assert!(due <= elapsed_ms, "framed early");
                }
                waited += usize::from(buffered == 0 && !stream.finished);
                let n = buffered.min(10_000);
                wire.extend_from_slice(&buf[pos..pos + n]);
                pos += n;
                now += Duration::from_millis(1);
            }
            assert_eq!(
                dechunk(&wire),
                lines,
                "ms per simulated second {ms_per_sim_sec}"
            );
            assert_eq!(
                waited > 0,
                ms_per_sim_sec > 0.0,
                "only the paced stream waits"
            );
        }
    }
}
