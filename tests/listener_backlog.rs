//! The service's listener queues a burst of connects that nothing has
//! accepted yet. std's `TcpListener::bind` listens with a backlog of 128,
//! so on a plain std listener the 130th connect waits out SYN
//! retransmits and times out; `dcf_serve::poller::bind_listener` deepens
//! the queue to 1024.

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[test]
fn listener_queues_300_unaccepted_connects() {
    use std::net::TcpStream;
    use std::time::Duration;

    let listener = dcf_serve::poller::bind_listener("127.0.0.1:0").expect("listener binds");
    let addr = listener.local_addr().expect("bound address");
    // Held open until the end, so every connection stays queued.
    let _held: Vec<TcpStream> = (1..=300)
        .map(|i| {
            TcpStream::connect_timeout(&addr, Duration::from_millis(500))
                .unwrap_or_else(|e| panic!("connect {i} of 300 with nothing accepting: {e}"))
        })
        .collect();
}
