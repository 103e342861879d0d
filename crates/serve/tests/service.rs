//! End-to-end tests for the query service: cache byte-identity under
//! concurrency, keep-alive pipelining, catalog serving + reload,
//! idle-timeout reaping, bounded-queue backpressure (including the shed ×
//! keep-alive interaction), hostile simulate bodies, a 64-connection
//! keep-alive fleet on one and two loops, and graceful drain.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use dcf_obs::MetricsRegistry;
use dcf_serve::{ServeConfig, Server};

/// One full HTTP exchange: status, lowercase header pairs, body.
#[derive(Debug)]
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// A keep-alive client: one connection, many content-length-framed
/// exchanges (the read-to-EOF idiom only works for `Connection: close`).
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Client {
            stream,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, raw: &str) {
        self.stream.write_all(raw.as_bytes()).expect("send request");
    }

    /// Reads exactly one response off the connection (more may follow —
    /// that is pipelining).
    fn read_reply(&mut self) -> Reply {
        let (status, headers, body) = self.read_reply_raw();
        Reply {
            status,
            headers,
            body: String::from_utf8(body).expect("UTF-8 body"),
        }
    }

    /// Like [`Self::read_reply`] but keeps the body as raw bytes —
    /// required for `Content-Encoding: gzip` responses.
    fn read_reply_raw(&mut self) -> (u16, Vec<(String, String)>, Vec<u8>) {
        let head_len = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            self.fill("response head");
        };
        let head = String::from_utf8(self.buf[..head_len].to_vec()).expect("UTF-8 head");
        let content_length: usize = head
            .lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .map(|(_, v)| v.trim().parse().expect("numeric content-length"))
            .expect("response has content-length");
        while self.buf.len() < head_len + content_length {
            self.fill("response body");
        }
        let body = self.buf[head_len..head_len + content_length].to_vec();
        self.buf.drain(..head_len + content_length);

        let (status, headers) = parse_head(&head);
        (status, headers, body)
    }

    /// Reads one `Transfer-Encoding: chunked` response off the
    /// connection, decoding the chunk framing; the returned body is the
    /// reassembled payload.
    fn read_chunked_reply(&mut self) -> Reply {
        let head_len = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            self.fill("response head");
        };
        let head = String::from_utf8(self.buf[..head_len].to_vec()).expect("UTF-8 head");
        self.buf.drain(..head_len);
        let (status, headers) = parse_head(&head);
        assert_eq!(
            headers
                .iter()
                .find(|(k, _)| k == "transfer-encoding")
                .map(|(_, v)| v.as_str()),
            Some("chunked"),
            "streaming response must be chunked: {head}"
        );
        let mut body = Vec::new();
        loop {
            let size_end = loop {
                if let Some(i) = self.buf.windows(2).position(|w| w == b"\r\n") {
                    break i;
                }
                self.fill("chunk size line");
            };
            let size = usize::from_str_radix(
                std::str::from_utf8(&self.buf[..size_end])
                    .expect("UTF-8 size")
                    .trim(),
                16,
            )
            .expect("hex chunk size");
            let frame_len = size_end + 2 + size + 2;
            while self.buf.len() < frame_len {
                self.fill("chunk payload");
            }
            assert_eq!(
                &self.buf[size_end + 2 + size..frame_len],
                b"\r\n",
                "chunk payload must end with CRLF"
            );
            body.extend_from_slice(&self.buf[size_end + 2..size_end + 2 + size]);
            self.buf.drain(..frame_len);
            if size == 0 {
                break;
            }
        }
        Reply {
            status,
            headers,
            body: String::from_utf8(body).expect("UTF-8 body"),
        }
    }

    fn fill(&mut self, what: &str) {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk).expect("read");
        assert!(n > 0, "connection closed while waiting for {what}");
        self.buf.extend_from_slice(&chunk[..n]);
    }

    /// True when the server half-closed: the next read yields EOF (after
    /// any buffered bytes, which must be none).
    fn at_eof(&mut self) -> bool {
        assert!(self.buf.is_empty(), "unread bytes: {:?}", self.buf);
        let mut chunk = [0u8; 64];
        matches!(self.stream.read(&mut chunk), Ok(0))
    }
}

/// Splits a response head into (status, lowercase header pairs).
fn parse_head(head: &str) -> (u16, Vec<(String, String)>) {
    let mut lines = head.lines();
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers)
}

/// One-shot exchange with `Connection: close` (read to EOF).
fn exchange(addr: std::net::SocketAddr, raw: &str) -> Reply {
    let mut client = Client::connect(addr);
    client.send(raw);
    let reply = client.read_reply();
    assert_eq!(reply.header("connection"), Some("close"));
    reply
}

fn get(addr: std::net::SocketAddr, path: &str) -> Reply {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"),
    )
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> Reply {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn get_keep_alive(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nhost: t\r\n\r\n")
}

fn post_keep_alive(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Simulates a small-scenario trace and writes it as a `.dcfsnap` file.
fn write_snapshot(path: &std::path::Path, seed: u64) -> String {
    use dcf_sim::{RunOptions, Scenario};
    let trace = Scenario::small()
        .seed(seed)
        .simulate(&RunOptions::default())
        .expect("scenario simulates");
    dcf_trace::io::snapshot::write_snapshot(&trace, path).expect("snapshot writes");
    format!("{:016x}", dcf_trace::io::fots_digest(trace.fots()))
}

#[test]
fn healthz_and_metrics_respond() {
    let metrics = MetricsRegistry::new();
    let server = Server::start(ServeConfig::default().addr("127.0.0.1:0").metrics(&metrics))
        .expect("server starts");
    let addr = server.local_addr();

    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"ok\""));

    let metrics_reply = get(addr, "/metrics");
    assert_eq!(metrics_reply.status, 200);
    assert!(metrics_reply.body.contains("dcf-serve"));

    let report = server.shutdown();
    assert!(report.counter("serve.requests").unwrap_or(0) >= 2);
}

#[test]
fn concurrent_clients_get_byte_identical_cached_sections() {
    let metrics = MetricsRegistry::new();
    let server = Server::start(
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .workers(4)
            .metrics(&metrics),
    )
    .expect("server starts");
    let addr = server.local_addr();

    // Prime the run, then hit the same section from several threads at once.
    let primed = post(addr, "/v1/simulate", r#"{"scenario":"small","seed":5}"#);
    assert_eq!(primed.status, 200, "simulate failed: {}", primed.body);
    assert!(primed.body.contains("\"cache\":\"miss\""));

    let path = "/v1/report/overview?scenario=small&seed=5";
    let bodies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(move || {
                    let reply = get(addr, path);
                    assert_eq!(reply.status, 200, "section failed: {}", reply.body);
                    reply.body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for body in &bodies[1..] {
        assert_eq!(
            body, &bodies[0],
            "cached section bodies must be byte-identical"
        );
    }
    // The digest in the section matches the one /simulate reported.
    let section = dcf_obs::json::parse(&bodies[0]).expect("section is valid JSON");
    let sim = dcf_obs::json::parse(&primed.body).expect("simulate is valid JSON");
    assert_eq!(
        section.get("digest").and_then(|v| v.as_str()),
        sim.get("digest").and_then(|v| v.as_str())
    );

    // Re-running /simulate for the same triple is now a cache hit.
    let again = post(addr, "/v1/simulate", r#"{"scenario":"small","seed":5}"#);
    assert!(again.body.contains("\"cache\":\"hit\""));
    assert_eq!(again.body, primed.body.replace("miss", "hit"));

    // Paged ticket reads work against the reported digest.
    let digest = sim.get("digest").and_then(|v| v.as_str()).unwrap();
    let page = get(addr, &format!("/v1/trace/{digest}/fots?offset=0&limit=3"));
    assert_eq!(page.status, 200);
    let parsed = dcf_obs::json::parse(&page.body).expect("page is valid JSON");
    assert_eq!(
        parsed
            .get("fots")
            .and_then(|v| v.as_array())
            .map(<[_]>::len),
        Some(3)
    );

    let report = server.shutdown();
    assert!(report.counter("serve.cache.hits").unwrap_or(0) >= 4);
    assert_eq!(report.counter("serve.cache.misses"), Some(1));
}

#[test]
fn keep_alive_pipelining_yields_byte_identical_sections() {
    let metrics = MetricsRegistry::new();
    let server = Server::start(
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .workers(2)
            .metrics(&metrics),
    )
    .expect("server starts");
    let addr = server.local_addr();

    // Prime the run so the pipelined reads are all cache hits.
    let primed = post(addr, "/v1/simulate", r#"{"scenario":"small","seed":9}"#);
    assert_eq!(primed.status, 200, "simulate failed: {}", primed.body);
    let reference = get(addr, "/v1/report/overview?scenario=small&seed=9").body;

    // One connection, four pipelined requests written back-to-back in a
    // single burst; responses must come back in order, each keep-alive.
    const PIPELINED: usize = 4;
    let mut client = Client::connect(addr);
    let burst = get_keep_alive("/v1/report/overview?scenario=small&seed=9").repeat(PIPELINED);
    client.send(&burst);
    let mut bodies = Vec::new();
    for i in 0..PIPELINED {
        let reply = client.read_reply();
        assert_eq!(reply.status, 200, "pipelined reply {i}: {}", reply.body);
        assert_eq!(
            reply.header("connection"),
            Some("keep-alive"),
            "pipelined reply {i} must keep the connection open"
        );
        bodies.push(reply.body);
    }
    for (i, body) in bodies.iter().enumerate() {
        assert_eq!(
            body, &reference,
            "pipelined section {i} must be byte-identical to the one-shot read"
        );
    }

    // A final Connection: close request ends the session cleanly.
    client.send(&get_keep_alive("/healthz").replace("host: t", "host: t\r\nconnection: close"));
    let last = client.read_reply();
    assert_eq!(last.status, 200);
    assert_eq!(last.header("connection"), Some("close"));
    assert!(
        client.at_eof(),
        "server must half-close after a close request"
    );

    let report = server.shutdown();
    assert!(
        report.counter("serve.keepalive.reused").unwrap_or(0) >= (PIPELINED as u64 - 1),
        "pipelined requests after the first must count as keep-alive reuse"
    );
}

#[test]
fn catalog_serves_reloads_and_404s() {
    let dir = std::env::temp_dir().join(format!("dcf-serve-catalog-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let alpha_digest = write_snapshot(&dir.join("alpha.dcfsnap"), 21);

    let metrics = MetricsRegistry::new();
    let server = Server::start(
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .workers(2)
            .metrics(&metrics)
            .catalog(dir.to_str().expect("temp path is UTF-8")),
    )
    .expect("server starts with a catalog");
    let addr = server.local_addr();

    // The listing names the entry with its digest.
    let listing = get(addr, "/v1/catalog");
    assert_eq!(listing.status, 200, "listing failed: {}", listing.body);
    assert!(listing.body.contains("\"alpha\""), "{}", listing.body);
    assert!(listing.body.contains(&alpha_digest));
    assert!(listing.body.contains("\"total\":1"));

    // Catalog entries are scenarios: always cache hits, correct digest.
    let sim = post(addr, "/v1/simulate", r#"{"scenario":"alpha"}"#);
    assert_eq!(sim.status, 200, "simulate failed: {}", sim.body);
    assert!(sim.body.contains("\"cache\":\"hit\""));
    assert!(sim.body.contains(&alpha_digest));

    // Unknown names 404/400 rather than silently simulating.
    let missing = post(addr, "/v1/simulate", r#"{"scenario":"snapshot"}"#);
    assert_eq!(missing.status, 404, "expected 404: {}", missing.body);
    assert!(missing.body.contains("no snapshot preloaded"));
    let unknown = post(addr, "/v1/simulate", r#"{"scenario":"beta"}"#);
    assert_eq!(unknown.status, 400, "expected 400: {}", unknown.body);
    assert!(unknown.body.contains("catalog snapshot name"));

    // Drop a new snapshot in and reload through the admin endpoint.
    let beta_digest = write_snapshot(&dir.join("beta.dcfsnap"), 22);
    let reload = post(addr, "/v1/catalog/reload", "");
    assert_eq!(reload.status, 200, "reload failed: {}", reload.body);
    assert!(reload.body.contains("\"added\":1"), "{}", reload.body);
    assert!(reload.body.contains("\"total\":2"), "{}", reload.body);
    let beta = get(addr, "/v1/report/overview?scenario=beta");
    assert_eq!(beta.status, 200, "beta section failed: {}", beta.body);
    assert!(beta.body.contains(&beta_digest));

    // Removing the file unpins it on the next reload: name and digest 404.
    std::fs::remove_file(dir.join("alpha.dcfsnap")).unwrap();
    let reload = post(addr, "/v1/catalog/reload", "");
    assert_eq!(reload.status, 200, "reload failed: {}", reload.body);
    assert!(reload.body.contains("\"removed\":1"), "{}", reload.body);
    let gone = get(addr, &format!("/v1/trace/{alpha_digest}/fots"));
    assert_eq!(gone.status, 404, "expected 404: {}", gone.body);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn idle_keep_alive_connections_are_reaped() {
    let metrics = MetricsRegistry::new();
    let server = Server::start(
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .metrics(&metrics)
            .idle_timeout(Duration::from_millis(300)),
    )
    .expect("server starts");
    let addr = server.local_addr();

    // A served keep-alive connection that then goes quiet is closed by
    // the sweep once the idle timeout passes.
    let mut client = Client::connect(addr);
    client.send(&get_keep_alive("/healthz"));
    let reply = client.read_reply();
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("connection"), Some("keep-alive"));
    let start = std::time::Instant::now();
    assert!(
        client.at_eof(),
        "idle connection must be closed by the server"
    );
    let waited = start.elapsed();
    assert!(
        waited >= Duration::from_millis(200),
        "closed too eagerly: {waited:?}"
    );

    let report = server.shutdown();
    assert!(report.counter("serve.idle_closed").unwrap_or(0) >= 1);
}

#[test]
fn saturated_queue_sheds_load_with_retry_after() {
    let metrics = MetricsRegistry::new();
    let mut config = ServeConfig::default()
        .addr("127.0.0.1:0")
        .workers(1)
        .queue_depth(1)
        .metrics(&metrics);
    config.compute_delay = Duration::from_millis(400);
    let server = Server::start(config).expect("server starts");
    let addr = server.local_addr();

    // Six distinct seeds, fired concurrently at a single worker with a
    // one-deep queue: one computes, one queues, the rest must be shed.
    let replies: Vec<Reply> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|seed| {
                s.spawn(move || {
                    post(
                        addr,
                        "/v1/simulate",
                        &format!("{{\"scenario\":\"small\",\"seed\":{seed}}}"),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let ok = replies.iter().filter(|r| r.status == 200).count();
    let shed: Vec<&Reply> = replies.iter().filter(|r| r.status == 503).collect();
    assert_eq!(
        ok + shed.len(),
        replies.len(),
        "only 200s and 503s expected"
    );
    assert!(ok >= 1, "at least one request must be served");
    assert!(
        !shed.is_empty(),
        "a saturated one-deep queue must shed load"
    );
    for reply in &shed {
        assert!(
            reply.header("retry-after").is_some(),
            "503 responses must carry Retry-After"
        );
        assert!(reply.body.contains("error"));
    }

    let report = server.shutdown();
    assert!(report.counter("serve.rejected").unwrap_or(0) >= 1);
}

#[test]
fn shed_on_a_pipelined_connection_closes_instead_of_dangling() {
    let metrics = MetricsRegistry::new();
    let mut config = ServeConfig::default()
        .addr("127.0.0.1:0")
        .workers(1)
        .queue_depth(1)
        .metrics(&metrics);
    config.compute_delay = Duration::from_millis(600);
    let server = Server::start(config).expect("server starts");
    let addr = server.local_addr();

    // Saturate: one request computing (popped immediately), one queued.
    let mut busy = Client::connect(addr);
    busy.send(&post_keep_alive(
        "/v1/simulate",
        r#"{"scenario":"small","seed":100}"#,
    ));
    std::thread::sleep(Duration::from_millis(150));
    let mut queued = Client::connect(addr);
    queued.send(&post_keep_alive(
        "/v1/simulate",
        r#"{"scenario":"small","seed":101}"#,
    ));
    std::thread::sleep(Duration::from_millis(150));

    // A keep-alive client pipelines three requests into the full queue.
    // The first is shed: the 503 must announce Connection: close and the
    // pipelined tail must be dropped with a half-close — not left
    // dangling awaiting responses that will never come.
    let mut pipeliner = Client::connect(addr);
    let burst: String = (102..105)
        .map(|seed| {
            post_keep_alive(
                "/v1/simulate",
                &format!("{{\"scenario\":\"small\",\"seed\":{seed}}}"),
            )
        })
        .collect();
    pipeliner.send(&burst);
    let shed = pipeliner.read_reply();
    assert_eq!(shed.status, 503, "expected a shed: {}", shed.body);
    assert!(shed.header("retry-after").is_some());
    assert_eq!(
        shed.header("connection"),
        Some("close"),
        "a shed on a pipelined connection must announce close"
    );
    assert!(
        pipeliner.at_eof(),
        "server must half-close after the shed, not serve the pipelined tail"
    );

    // The saturating clients still get real answers.
    assert_eq!(busy.read_reply().status, 200);
    assert_eq!(queued.read_reply().status, 200);

    let report = server.shutdown();
    assert!(report.counter("serve.rejected").unwrap_or(0) >= 1);
}

/// The reference `/v1/trace/{digest}/fots` body, rendered from the
/// trace's ticket rows rather than its columns: the same field order,
/// names and paths, built straight off each `Fot`.
fn expected_fots_page(
    trace: &dcf_trace::Trace,
    digest: &str,
    offset: usize,
    limit: usize,
) -> String {
    use dcf_obs::json::write_string;

    let total = trace.len();
    let start = offset.min(total);
    let end = start.saturating_add(limit).min(total);
    let mut body = String::from("{");
    write_string(&mut body, "digest");
    body.push(':');
    write_string(&mut body, digest);
    body.push_str(&format!(
        ",\"offset\":{start},\"limit\":{limit},\"total\":{total},\"fots\":["
    ));
    for (i, fot) in (start..end).map(|row| trace.fot(row)).enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"id\":{},\"server\":{},\"data_center\":{},\"product_line\":{},\"device\":",
            fot.id.index(),
            fot.server.index(),
            fot.data_center.index(),
            fot.product_line.index()
        ));
        write_string(&mut body, fot.device.name());
        body.push_str(",\"device_path\":");
        write_string(&mut body, &fot.device_path());
        body.push_str(",\"failure_type\":");
        write_string(&mut body, fot.failure_type.name());
        body.push_str(&format!(
            ",\"error_time_secs\":{},\"category\":",
            fot.error_time.as_secs()
        ));
        write_string(&mut body, fot.category.name());
        body.push('}');
    }
    body.push_str("]}");
    body
}

#[test]
fn fots_pages_match_a_render_of_the_ticket_rows() {
    use dcf_sim::{RunOptions, Scenario};

    let trace = Scenario::small()
        .seed(3)
        .simulate(&RunOptions::default())
        .expect("scenario simulates");
    let metrics = MetricsRegistry::new();
    let server = Server::start(ServeConfig::default().addr("127.0.0.1:0").metrics(&metrics))
        .expect("server starts");
    let addr = server.local_addr();
    let sim = post(addr, "/v1/simulate", r#"{"scenario":"small","seed":3}"#);
    assert_eq!(sim.status, 200, "simulate failed: {}", sim.body);
    let digest = format!("{:016x}", dcf_trace::io::fots_digest(trace.fots()));
    assert!(
        sim.body.contains(&digest),
        "digest missing from {}",
        sim.body
    );

    let total = trace.len();
    assert!(total > 100, "the page cases need a few hundred tickets");
    // A first page, a middle page, and an offset past the end.
    for (offset, limit) in [(0, 25), (total / 2, 40), (total + 10, 5)] {
        let page = get(
            addr,
            &format!("/v1/trace/{digest}/fots?offset={offset}&limit={limit}"),
        );
        assert_eq!(page.status, 200, "fots page failed: {}", page.body);
        assert_eq!(
            page.body,
            expected_fots_page(&trace, &digest, offset, limit),
            "page offset={offset} limit={limit}"
        );
    }
    server.shutdown();
}

#[test]
fn preloaded_snapshot_serves_without_simulating() {
    use dcf_sim::{RunOptions, Scenario};

    // Persist a simulated trace as the one snapshot of a catalog
    // directory; its file stem makes it the `snapshot` scenario.
    let trace = Scenario::small()
        .seed(5)
        .simulate(&RunOptions::default())
        .expect("scenario simulates");
    let dir = std::env::temp_dir().join(format!("dcf-serve-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snapshot.dcfsnap");
    dcf_trace::io::snapshot::write_snapshot(&trace, &path).expect("snapshot writes");
    let expected_digest = format!("{:016x}", dcf_trace::io::fots_digest(trace.fots()));

    let metrics = MetricsRegistry::new();
    let server = Server::start(
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .workers(2)
            .metrics(&metrics)
            .catalog(dir.to_str().expect("temp path is UTF-8")),
    )
    .expect("server starts with a one-file catalog");
    let addr = server.local_addr();

    // The snapshot pseudo-scenario never simulates: always a cache hit.
    let sim = post(addr, "/v1/simulate", r#"{"scenario":"snapshot"}"#);
    assert_eq!(sim.status, 200, "simulate failed: {}", sim.body);
    assert!(sim.body.contains("\"cache\":\"hit\""));
    assert!(
        sim.body.contains(&expected_digest),
        "snapshot digest missing from {}",
        sim.body
    );

    // The listing shows the one entry.
    let listing = get(addr, "/v1/catalog");
    assert_eq!(listing.status, 200);
    assert!(listing.body.contains("\"snapshot\""));

    // Sections render from the preloaded trace under the same digest.
    let section = get(addr, "/v1/report/overview?scenario=snapshot");
    assert_eq!(section.status, 200, "section failed: {}", section.body);
    assert!(section.body.contains(&expected_digest));

    // Paged ticket reads come off the columnar store; spot-check a page
    // against the locally held trace.
    let page = get(
        addr,
        &format!("/v1/trace/{expected_digest}/fots?offset=2&limit=3"),
    );
    assert_eq!(page.status, 200, "fots page failed: {}", page.body);
    let parsed = dcf_obs::json::parse(&page.body).expect("page is valid JSON");
    let rows = parsed
        .get("fots")
        .and_then(|v| v.as_array())
        .expect("page has fots");
    assert_eq!(rows.len(), 3);
    let fot = trace.fot(2);
    let row = &rows[0];
    let device_path = fot.device_path();
    assert_eq!(
        row.get("id").and_then(|v| v.as_u64()),
        Some(fot.id.index() as u64)
    );
    assert_eq!(
        row.get("server").and_then(|v| v.as_u64()),
        Some(fot.server.index() as u64)
    );
    assert_eq!(
        row.get("device").and_then(|v| v.as_str()),
        Some(fot.device.name())
    );
    assert_eq!(
        row.get("device_path").and_then(|v| v.as_str()),
        Some(device_path.as_str())
    );
    assert_eq!(
        row.get("failure_type").and_then(|v| v.as_str()),
        Some(fot.failure_type.name())
    );
    assert_eq!(
        row.get("error_time_secs").and_then(|v| v.as_u64()),
        Some(fot.error_time.as_secs())
    );
    assert_eq!(
        row.get("category").and_then(|v| v.as_str()),
        Some(fot.category.name())
    );

    // Without a preloaded snapshot the pseudo-scenario is a 404.
    let bare_metrics = MetricsRegistry::new();
    let bare = Server::start(
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .metrics(&bare_metrics),
    )
    .expect("bare server starts");
    let missing = post(
        bare.local_addr(),
        "/v1/simulate",
        r#"{"scenario":"snapshot"}"#,
    );
    assert_eq!(missing.status, 404, "expected 404: {}", missing.body);
    assert!(missing.body.contains("no snapshot preloaded"));
    bare.shutdown();

    let report = server.shutdown();
    assert!(
        report.phase_ms("trace.snapshot_load").is_some(),
        "snapshot load must be instrumented"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hostile_simulate_bodies_get_a_400_and_the_server_keeps_serving() {
    let server = Server::start(ServeConfig::default().addr("127.0.0.1:0").workers(2))
        .expect("server starts");
    let addr = server.local_addr();

    // Deep nesting must not overflow the parsing thread's stack.
    let deep = post(addr, "/v1/simulate", &"[".repeat(10_000));
    assert_eq!(deep.status, 400, "{}", deep.body);
    assert!(deep.body.contains("nesting"), "{}", deep.body);
    // Present but invalid fields are refused, not defaulted.
    for (body, message) in [
        (r#"{"seed": -1}"#, "seed must be an unsigned integer"),
        (r#"{"seed": "7"}"#, "seed must be an unsigned integer"),
        (r#"{"threads": 1.5}"#, "threads must be an unsigned integer"),
        (r#"{"scenario": 3}"#, "scenario must be a string"),
        (r#"{"seed": 1e}"#, "invalid JSON body"),
        ("[]", "body must be a JSON object"),
    ] {
        let reply = post(addr, "/v1/simulate", body);
        assert_eq!(reply.status, 400, "{body}: {}", reply.body);
        assert!(reply.body.contains(message), "{body}: {}", reply.body);
    }

    let next = post(addr, "/v1/simulate", r#"{"scenario":"small","seed":1}"#);
    assert_eq!(next.status, 200, "{}", next.body);
    server.shutdown();
}

#[test]
fn unversioned_api_paths_are_unknown_endpoints() {
    let server = Server::start(ServeConfig::default().addr("127.0.0.1:0").workers(2))
        .expect("server starts");
    let addr = server.local_addr();

    // The API lives under `/v1` only; the pre-versioning spellings are
    // plain unknown endpoints.
    let report = get(addr, "/report/overview?scenario=small&seed=3");
    assert_eq!(report.status, 404, "{}", report.body);
    assert!(report.body.contains("unknown endpoint"), "{}", report.body);
    let simulate = post(addr, "/simulate", r#"{"scenario":"small","seed":3}"#);
    assert_eq!(simulate.status, 404, "{}", simulate.body);
    assert!(
        simulate.body.contains("unknown endpoint"),
        "{}",
        simulate.body
    );

    let missing_v1 = get(addr, "/v1/nope");
    assert_eq!(missing_v1.status, 404);
    server.shutdown();
}

#[test]
fn replay_streams_chunked_ndjson_and_keeps_the_connection_alive() {
    let metrics = MetricsRegistry::new();
    let server = Server::start(
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .workers(2)
            .metrics(&metrics),
    )
    .expect("server starts");
    let addr = server.local_addr();

    // Prime the run so the stream is served from cache.
    let primed = post(addr, "/v1/simulate", r#"{"scenario":"small","seed":4}"#);
    assert_eq!(primed.status, 200, "simulate failed: {}", primed.body);
    let sim = dcf_obs::json::parse(&primed.body).expect("simulate is valid JSON");
    let total_fots = sim.get("total_fots").and_then(|v| v.as_u64()).unwrap();

    // Unpaced stream on a keep-alive connection.
    let mut client = Client::connect(addr);
    client.send(&get_keep_alive("/v1/replay/small?speed=0&seed=4"));
    let reply = client.read_chunked_reply();
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply.header("content-type"),
        Some("application/x-ndjson"),
        "stream must be NDJSON"
    );
    assert_eq!(reply.header("connection"), Some("keep-alive"));
    let lines: Vec<&str> = reply.body.lines().collect();
    assert!(
        lines.len() as u64 > total_fots,
        "tickets + detections + summary"
    );
    for line in &lines {
        dcf_obs::json::parse(line).expect("every stream line is one JSON object");
    }
    let tickets = lines.iter().filter(|l| l.contains("\"t\":\"fot\"")).count();
    assert_eq!(tickets as u64, total_fots, "one line per trace ticket");
    let summary = lines.last().expect("stream ends with a summary");
    assert!(summary.contains("\"t\":\"summary\""), "{summary}");
    assert!(summary.contains("\"digest\""), "{summary}");

    // The connection survives the stream: a content-length request on
    // the same socket still works.
    client.send(&get_keep_alive("/healthz"));
    let health = client.read_reply();
    assert_eq!(health.status, 200, "keep-alive after a stream");

    // A fast-but-paced replay emits the identical byte sequence — speed
    // changes pacing, never content.
    let mut paced = Client::connect(addr);
    paced.send(&get_keep_alive("/v1/replay/small?speed=100000&seed=4"));
    let paced_reply = paced.read_chunked_reply();
    assert_eq!(paced_reply.status, 200);
    assert_eq!(
        paced_reply.body, reply.body,
        "event stream must be byte-identical at every speed"
    );

    // Bad speeds are rejected before any stream starts.
    let bad = get(addr, "/v1/replay/small?speed=fast");
    assert_eq!(bad.status, 400, "{}", bad.body);
    let negative = get(addr, "/v1/replay/small?speed=-1");
    assert_eq!(negative.status, 400, "{}", negative.body);
    let unknown = get(addr, "/v1/replay/nope?speed=0");
    assert_eq!(unknown.status, 400, "{}", unknown.body);

    let report = server.shutdown();
    assert_eq!(report.counter("serve.replay.streams"), Some(2));
    assert!(report.counter("serve.replay.events").unwrap_or(0) >= 2 * total_fots);
    assert!(report.phase_ms("serve.replay.build").is_some());
}

#[test]
fn mid_stream_client_disconnect_is_reaped_and_counted() {
    let metrics = MetricsRegistry::new();
    let server = Server::start(
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .workers(2)
            .metrics(&metrics),
    )
    .expect("server starts");
    let addr = server.local_addr();

    // Slow stream: at 40 simulated days per wall second the small
    // scenario's window takes several seconds to play back.
    let mut client = Client::connect(addr);
    client.send(&get_keep_alive("/v1/replay/small?speed=40"));
    let head_ok = loop {
        if client.buf.windows(4).any(|w| w == b"\r\n\r\n") {
            break true;
        }
        client.fill("stream head");
    };
    assert!(head_ok);

    // Hang up mid-stream; the event loop must notice (peer EOF or write
    // failure), drop the connection, and count the disconnect — without
    // waiting for the remaining chunks to come due.
    drop(client);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let disconnects = metrics
            .report("probe")
            .counter("serve.replay.disconnects")
            .unwrap_or(0);
        if disconnects >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "mid-stream disconnect was never detected"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The server is still healthy for other clients.
    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);

    let report = server.shutdown();
    assert!(report.counter("serve.replay.disconnects").unwrap_or(0) >= 1);
}

#[test]
fn graceful_shutdown_completes_in_flight_requests() {
    let metrics = MetricsRegistry::new();
    let mut config = ServeConfig::default()
        .addr("127.0.0.1:0")
        .workers(1)
        .metrics(&metrics);
    config.compute_delay = Duration::from_millis(300);
    let server = Server::start(config).expect("server starts");
    let addr = server.local_addr();

    // Start a slow request, then shut the server down while it is in flight.
    let client = std::thread::spawn(move || post(addr, "/v1/simulate", r#"{"seed":77}"#));
    std::thread::sleep(Duration::from_millis(100));
    let report = server.shutdown();

    let reply = client.join().expect("client thread");
    assert_eq!(
        reply.status, 200,
        "in-flight request must complete through a graceful drain: {}",
        reply.body
    );
    assert!(reply.body.contains("\"digest\""));
    assert_eq!(report.counter("serve.requests"), Some(1));

    // The listener is gone: new connections are refused.
    assert!(TcpStream::connect(addr).is_err());
}

fn get_gzip_keep_alive(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nhost: t\r\naccept-encoding: gzip\r\n\r\n")
}

#[test]
fn gzip_sections_decode_byte_identical_across_two_loops() {
    // Two event loops: loop 0 accepts and round-robins connections, so
    // consecutive one-shot clients land on alternating loops.
    let metrics = MetricsRegistry::new();
    let server = Server::start(
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .workers(2)
            .loops(2)
            .metrics(&metrics),
    )
    .expect("two-loop server starts");
    let addr = server.local_addr();

    let primed = post(addr, "/v1/simulate", r#"{"scenario":"small","seed":7}"#);
    assert_eq!(primed.status, 200, "simulate failed: {}", primed.body);
    let path = "/v1/report/overview?scenario=small&seed=7";
    let identity = get(addr, path);
    assert_eq!(identity.status, 200);
    assert_eq!(identity.header("content-encoding"), None);

    // Four fresh connections — two per loop under round-robin handoff —
    // each asking for gzip. Every compressed body must be byte-identical
    // (the encode is cached once per section, shared across loops) and
    // must inflate to exactly the identity body.
    let mut compressed: Vec<Vec<u8>> = Vec::new();
    for i in 0..4 {
        let mut client = Client::connect(addr);
        client.send(&get_gzip_keep_alive(path));
        let (status, headers, body) = client.read_reply_raw();
        assert_eq!(status, 200, "gzip request {i}");
        assert_eq!(
            headers
                .iter()
                .find(|(k, _)| k == "content-encoding")
                .map(|(_, v)| v.as_str()),
            Some("gzip"),
            "request {i} negotiated gzip"
        );
        compressed.push(body);
    }
    for body in &compressed[1..] {
        assert_eq!(
            body, &compressed[0],
            "gzip bodies must be byte-identical across loops"
        );
    }
    // The small-scenario overview is tiny (~850 bytes); the big ratio
    // wins are on paper-scale bodies (perfbench's `serve.gzip_ratio`).
    // Here gzip just has to shrink the payload.
    assert!(
        compressed[0].len() < identity.body.len(),
        "gzip must shrink the JSON section ({} vs {})",
        compressed[0].len(),
        identity.body.len()
    );
    let inflated = dcf_serve::gzip::gunzip(&compressed[0]).expect("server gzip inflates");
    assert_eq!(
        String::from_utf8(inflated).expect("UTF-8 section"),
        identity.body,
        "gzip and identity responses must carry the same payload"
    );

    // A single-loop server produces the very same bytes for both
    // encodings: loop count must never leak into payloads.
    let single_metrics = MetricsRegistry::new();
    let single = Server::start(
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .workers(2)
            .metrics(&single_metrics),
    )
    .expect("single-loop server starts");
    let single_addr = single.local_addr();
    assert_eq!(
        post(
            single_addr,
            "/v1/simulate",
            r#"{"scenario":"small","seed":7}"#
        )
        .status,
        200
    );
    assert_eq!(
        get(single_addr, path).body,
        identity.body,
        "identity payload must match across loop counts"
    );
    let mut client = Client::connect(single_addr);
    client.send(&get_gzip_keep_alive(path));
    let (_, _, single_gzip) = client.read_reply_raw();
    assert_eq!(
        single_gzip, compressed[0],
        "gzip payload must match across loop counts"
    );
    single.shutdown();

    let report = server.shutdown();
    assert!(report.counter("serve.gzip.responses").unwrap_or(0) >= 4);
    // The encode phase ran (at least once; later hits reuse the bytes).
    assert!(report.phase_ms("serve.gzip.encode").is_some());
    // Round-robin handoff spread the connections over both loops.
    for lp in 0..2 {
        assert!(
            report
                .counter(&format!("serve.loop.{lp}.requests"))
                .unwrap_or(0)
                >= 1,
            "loop {lp} served no requests"
        );
    }
}

#[test]
fn a_metrics_body_over_256_kib_goes_out_with_its_content_length() {
    // A full span log makes `/metrics` the largest content-length body
    // the service sends.
    let metrics = MetricsRegistry::new();
    for _ in 0..dcf_obs::SPAN_CAP {
        drop(metrics.worker_phase("serve.request"));
    }
    let server = Server::start(
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .workers(2)
            .metrics(&metrics),
    )
    .expect("server starts");

    let mut client = Client::connect(server.local_addr());
    client.send(&get_keep_alive("/metrics"));
    let reply = client.read_reply();
    assert_eq!(reply.status, 200);
    assert!(reply.body.len() > 256 * 1024, "{} bytes", reply.body.len());
    assert_eq!(
        reply.header("content-length"),
        Some(reply.body.len().to_string().as_str())
    );
    assert_eq!(reply.header("transfer-encoding"), None);
    assert_eq!(reply.header("connection"), Some("keep-alive"));
    dcf_obs::json::parse(&reply.body).expect("metrics body is one JSON document");

    // The keep-alive connection serves the next request.
    client.send(&get_keep_alive("/healthz"));
    assert_eq!(client.read_reply().status, 200);
    server.shutdown();
}

#[test]
fn two_loop_server_balances_accepts_and_drains_gracefully() {
    let metrics = MetricsRegistry::new();
    let mut config = ServeConfig::default()
        .addr("127.0.0.1:0")
        .workers(2)
        .loops(2)
        .metrics(&metrics);
    config.compute_delay = Duration::from_millis(200);
    let server = Server::start(config).expect("two-loop server starts");
    let addr = server.local_addr();

    // Six one-shot connections round-robin across the loops; a handed-off
    // connection must also sustain keep-alive exchanges.
    for _ in 0..6 {
        assert_eq!(get(addr, "/healthz").status, 200);
    }
    let mut keep = Client::connect(addr);
    for _ in 0..3 {
        keep.send(&get_keep_alive("/healthz"));
        let reply = keep.read_reply();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.header("connection"), Some("keep-alive"));
    }

    // Shut down while a slow request is in flight: the drain must finish
    // it regardless of which loop owns the connection.
    let client = std::thread::spawn(move || post(addr, "/v1/simulate", r#"{"seed":78}"#));
    std::thread::sleep(Duration::from_millis(80));
    let report = server.shutdown();
    let reply = client.join().expect("client thread");
    assert_eq!(
        reply.status, 200,
        "in-flight request must survive a multi-loop drain: {}",
        reply.body
    );

    assert_eq!(report.gauge("serve.loops"), Some(2.0));
    let accepted: Vec<u64> = (0..2)
        .map(|lp| {
            report
                .counter(&format!("serve.loop.{lp}.accepted"))
                .unwrap_or(0)
        })
        .collect();
    assert!(
        accepted.iter().all(|&n| n >= 1),
        "round-robin handoff must feed both loops: {accepted:?}"
    );
    let per_loop_requests: u64 = (0..2)
        .filter_map(|lp| report.counter(&format!("serve.loop.{lp}.requests")))
        .sum();
    assert_eq!(
        Some(per_loop_requests),
        report.counter("serve.requests"),
        "per-loop request counters must sum to the global counter"
    );
}

/// Holds a fleet of keep-alive connections open at once against a
/// `loops`-loop server and cycles each through several requests, with at
/// most `WINDOW` requests in flight so the bounded queue never sheds.
/// Every response must be a `200`, and every request after a
/// connection's first must count as a keep-alive reuse.
fn keep_alive_fleet(loops: usize) -> dcf_obs::RunReport {
    const CONNS: usize = 64;
    const ROUNDS: usize = 3;
    const WINDOW: usize = 16;
    let metrics = MetricsRegistry::new();
    let server = Server::start(
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .workers(2)
            .loops(loops)
            .metrics(&metrics),
    )
    .expect("server starts");
    let addr = server.local_addr();
    let primed = post(addr, "/v1/simulate", r#"{"scenario":"small","seed":42}"#);
    assert_eq!(primed.status, 200, "simulate failed: {}", primed.body);

    let request = get_keep_alive("/v1/report/overview?scenario=small&seed=42");
    let mut fleet: Vec<Client> = (0..CONNS).map(|_| Client::connect(addr)).collect();
    let mut ok = 0;
    for round in 0..ROUNDS {
        for wave in fleet.chunks_mut(WINDOW) {
            for client in wave.iter_mut() {
                client.send(&request);
            }
            for client in wave.iter_mut() {
                let reply = client.read_reply();
                assert_eq!(reply.status, 200, "round {round}: {}", reply.body);
                assert_eq!(reply.header("connection"), Some("keep-alive"));
                ok += 1;
            }
        }
    }
    assert_eq!(ok, CONNS * ROUNDS);
    drop(fleet);

    let report = server.shutdown();
    assert_eq!(
        report.counter("serve.keepalive.reused"),
        Some((CONNS * (ROUNDS - 1)) as u64),
        "every request after a connection's first is a keep-alive reuse"
    );
    report
}

#[test]
fn keep_alive_fleet_is_served_without_errors_on_one_loop() {
    keep_alive_fleet(1);
}

#[test]
fn keep_alive_fleet_spreads_across_two_loops() {
    let report = keep_alive_fleet(2);
    let per_loop: Vec<u64> = (0..2)
        .map(|lp| {
            report
                .counter(&format!("serve.loop.{lp}.requests"))
                .unwrap_or(0)
        })
        .collect();
    assert!(
        per_loop.iter().all(|&n| n >= 1),
        "both loops must serve: {per_loop:?}"
    );
    assert_eq!(
        Some(per_loop.iter().sum()),
        report.counter("serve.requests"),
        "per-loop request counters must sum to the global counter"
    );
}
