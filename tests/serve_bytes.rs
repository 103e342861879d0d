//! Served bytes stay fixed. The in-crate gzip encoder's output is pinned
//! by FNV-1a on inputs that reach each of its edges, and the identity
//! ticket page of one run is pinned the same way, so a faster encoder or
//! page writer must reproduce the old bytes exactly.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use dcf_serve::gzip::{gunzip, gzip};
use dcf_serve::{ServeConfig, Server};
use dcfail::trace::io::{fnv1a, FNV_OFFSET};

fn fnv(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(FNV_OFFSET, bytes))
}

/// `len` xorshift64 bytes from `seed`: incompressible input.
fn xorshift(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

/// One `Connection: close` exchange: status and body. Every response but
/// a replay stream carries a content length, which is all these pages
/// need.
fn exchange(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &str,
    accept_gzip: bool,
) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let encoding = if accept_gzip {
        "accept-encoding: gzip\r\n"
    } else {
        ""
    };
    let request = format!(
        "{method} {target} HTTP/1.1\r\nhost: test\r\n{encoding}content-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let head_len = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head")
        + 4;
    let head = String::from_utf8_lossy(&raw[..head_len]).to_ascii_lowercase();
    assert!(
        head.contains("content-length:"),
        "{target}: expected a content-length body, got {head}"
    );
    assert_eq!(
        head.contains("content-encoding: gzip"),
        accept_gzip,
        "{target}: encoding does not follow the request"
    );
    let status = head[9..12].parse().expect("status code");
    (status, raw[head_len..].to_vec())
}

/// Simulates `scenario`/`seed` on `addr` and returns the trace digest.
fn simulate(addr: SocketAddr, scenario: &str, seed: u64) -> String {
    let body = format!("{{\"scenario\":\"{scenario}\",\"seed\":{seed}}}");
    let (status, reply) = exchange(addr, "POST", "/v1/simulate", &body, false);
    assert_eq!(status, 200);
    let text = String::from_utf8(reply).expect("UTF-8 reply");
    let at = text.find("\"digest\":\"").expect("digest field") + 10;
    text[at..at + 16].to_string()
}

/// The `total` field of a ticket page.
fn page_total(page: &[u8]) -> usize {
    let text = std::str::from_utf8(page).expect("UTF-8 page");
    let at = text.find("\"total\":").expect("total field") + 8;
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("numeric total")
}

#[test]
fn gzip_output_matches_the_golden_hashes() {
    let server = Server::start(ServeConfig::default().addr("127.0.0.1:0").workers(1))
        .expect("server starts");
    let addr = server.local_addr();
    let digest = simulate(addr, "medium", 1);
    let page = |offset: usize| {
        let target = format!("/v1/trace/{digest}/fots?offset={offset}&limit=1000");
        let (status, body) = exchange(addr, "GET", &target, "", false);
        assert_eq!(status, 200);
        body
    };
    let first_page = page(0);
    let last_page = page(page_total(&first_page) - 1000);
    let (status, overview) = exchange(
        addr,
        "GET",
        "/v1/report/overview?scenario=medium&seed=1",
        "",
        false,
    );
    assert_eq!(status, 200);
    server.shutdown();

    // A 97-byte block repeated to 70,001 bytes: the parse ends inside a
    // match, with fewer than 258 bytes left to compare.
    let block = xorshift(97, 0x5151_7A7A_0101_2323);
    let repetitive: Vec<u8> = block.iter().copied().cycle().take(70_001).collect();
    let cases: [(&str, Vec<u8>, &str); 9] = [
        ("empty", Vec::new(), "9d59538f3530b5dd"),
        ("one byte", vec![b'x'], "a2a5a9b378272ad7"),
        ("two bytes", b"xy".to_vec(), "08a6266d6d000e75"),
        (
            "300 KB of one byte",
            vec![b'a'; 300_000],
            "abfa3e55db11b3f6",
        ),
        (
            "64 KB of xorshift",
            xorshift(65_536, 0x9E37_79B9_7F4A_7C15),
            "5cfe53f6a7484e75",
        ),
        (
            "70 KB ending inside a match",
            repetitive,
            "26937ef326dece1e",
        ),
        (
            "medium seed-1 page at offset 0",
            first_page,
            "5df04efc8a069ff1",
        ),
        (
            "medium seed-1 page at the last offset",
            last_page,
            "d0cda740abeb8663",
        ),
        ("medium seed-1 overview", overview, "f36208dfdbdaae1d"),
    ];
    let mut wrong = Vec::new();
    for (name, input, want) in &cases {
        let encoded = gzip(input);
        assert_eq!(&gunzip(&encoded).expect("round trip"), input, "{name}");
        let got = fnv(&encoded);
        if got != *want {
            wrong.push(format!("{name}: gzip FNV-1a {got}, want {want}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn served_ticket_page_matches_its_golden_hash() {
    let server = Server::start(ServeConfig::default().addr("127.0.0.1:0").workers(1))
        .expect("server starts");
    let addr = server.local_addr();
    let digest = simulate(addr, "small", 42);
    let target = format!("/v1/trace/{digest}/fots?offset=0&limit=1000");
    let (status, identity) = exchange(addr, "GET", &target, "", false);
    assert_eq!(status, 200);
    let (status, encoded) = exchange(addr, "GET", &target, "", true);
    assert_eq!(status, 200);
    server.shutdown();

    assert_eq!(fnv(&identity), "fcaf4f18241390f3", "identity page bytes");
    assert_eq!(gunzip(&encoded).expect("gzip page inflates"), identity);
}
