//! Readiness polling over raw syscalls: the event loop's `epoll` core.
//!
//! The workspace is zero-dependency, so — like [`crate::signal`] — the
//! three primitives the event loop needs are issued directly as Linux
//! syscalls: `epoll_create1(2)` / `epoll_ctl(2)` / `epoll_pwait(2)`,
//! plus the `listen(2)` with which [`bind_listener`] deepens the
//! service listener's accept backlog.
//! Each platform has exactly one backend, fixed at compile time: `epoll`
//! on Linux x86_64/aarch64, and everywhere else a timed readiness *scan*
//! that reports every registered token ready after a short sleep. The
//! scan is correct — just not cheap — because every consumer of
//! readiness in [`crate::server`] treats `WouldBlock` as "not actually
//! ready" (the level-triggered contract).
//!
//! All registrations carry a caller-chosen `u64` token; the poller never
//! owns or closes the file descriptors it watches (except its own epoll
//! fd). [`Waker`] is the cross-thread wake-up primitive: a nonblocking
//! loopback TCP pair whose read end lives in the poller set, so worker
//! threads can interrupt an `epoll_pwait` by writing one byte.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

/// Whether this build has the raw-syscall backend (`epoll`).
pub const SYSCALL_SUPPORTED: bool = cfg!(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
));

/// A raw file descriptor as the poller sees it.
#[cfg(unix)]
pub type RawFd = std::os::unix::io::RawFd;
/// A raw file descriptor as the poller sees it (dummy off Unix — the scan
/// backend never dereferences it).
#[cfg(not(unix))]
pub type RawFd = i32;

/// Extracts the raw fd of a socket for registration.
#[cfg(unix)]
pub fn raw_fd<T: std::os::unix::io::AsRawFd>(socket: &T) -> RawFd {
    socket.as_raw_fd()
}

/// Extracts the raw fd of a socket for registration (placeholder off
/// Unix; the scan backend keys purely on tokens).
#[cfg(not(unix))]
pub fn raw_fd<T>(_socket: &T) -> RawFd {
    0
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the file descriptor was registered under.
    pub token: u64,
    /// Readable (or a pending accept on a listener).
    pub readable: bool,
    /// Writable without blocking.
    pub writable: bool,
    /// Peer hang-up or error condition; the owner should reap the
    /// connection after draining what is still readable.
    pub closed: bool,
}

/// Read/write interest for a registered descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake on readability.
    pub read: bool,
    /// Wake on writability.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Read + write interest.
    pub const READ_WRITE: Interest = Interest {
        read: true,
        write: true,
    };
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) mod sys {
    use std::arch::asm;

    #[cfg(target_arch = "x86_64")]
    pub mod nr {
        pub const CLOSE: usize = 3;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_CREATE1: usize = 291;
        pub const EPOLL_PWAIT: usize = 281;
        pub const LISTEN: usize = 50;
    }
    #[cfg(target_arch = "aarch64")]
    pub mod nr {
        pub const CLOSE: usize = 57;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_CREATE1: usize = 20;
        pub const EPOLL_PWAIT: usize = 22;
        pub const LISTEN: usize = 201;
    }

    #[cfg(target_arch = "x86_64")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn syscall6(
        nr: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn syscall6(
        nr: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        asm!(
            "svc 0",
            in("x8") nr,
            inlateout("x0") a => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            options(nostack),
        );
        ret
    }

    pub fn check(ret: isize) -> std::io::Result<usize> {
        if ret < 0 {
            Err(std::io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod epoll_imp {
    use super::sys::{check, nr, syscall6};
    use super::{Event, Interest, RawFd};
    use std::io;
    use std::time::Duration;

    const EPOLL_CLOEXEC: usize = 0x8_0000;
    const EPOLL_CTL_ADD: usize = 1;
    const EPOLL_CTL_DEL: usize = 2;
    const EPOLL_CTL_MOD: usize = 3;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// The kernel's `struct epoll_event`: packed on x86_64, naturally
    /// aligned (16 bytes) elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    pub struct Epoll {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl Epoll {
        pub const NAME: &'static str = "epoll";

        pub fn new() -> io::Result<Epoll> {
            let epfd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
            Ok(Epoll {
                epfd: epfd as RawFd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(&self, op: usize, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut mask = EPOLLRDHUP;
            if interest.read {
                mask |= EPOLLIN;
            }
            if interest.write {
                mask |= EPOLLOUT;
            }
            let event = EpollEvent {
                events: mask,
                data: token,
            };
            check(unsafe {
                syscall6(
                    nr::EPOLL_CTL,
                    self.epfd as usize,
                    op,
                    fd as usize,
                    std::ptr::addr_of!(event) as usize,
                    0,
                    0,
                )
            })
            .map(|_| ())
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&mut self, fd: RawFd) {
            let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::READ);
        }

        pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as usize;
            let n = match check(unsafe {
                syscall6(
                    nr::EPOLL_PWAIT,
                    self.epfd as usize,
                    self.buf.as_mut_ptr() as usize,
                    self.buf.len(),
                    timeout_ms,
                    0, // no sigmask: plain epoll_wait semantics
                    8,
                )
            }) {
                Ok(n) => n,
                // A signal interrupting the wait is a spurious (empty) wake.
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for raw in &self.buf[..n] {
                let mask = raw.events;
                events.push(Event {
                    token: raw.data,
                    readable: mask & (EPOLLIN | EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0,
                    writable: mask & EPOLLOUT != 0,
                    closed: mask & (EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            let _ = unsafe { syscall6(nr::CLOSE, self.epfd as usize, 0, 0, 0, 0, 0) };
        }
    }
}

/// Binds the service's nonblocking listener on `addr`. On the
/// raw-syscall platforms a second `listen(2)` deepens the accept backlog
/// to 1024; elsewhere the listener keeps std's default backlog.
///
/// std's `TcpListener::bind` listens with a backlog of 128, and a burst
/// of connects beyond it waits out SYN retransmits (a second and up)
/// until the loop accepts; the deeper queue absorbs the burst instead.
///
/// # Errors
///
/// Propagates bind, listen and `set_nonblocking` failures.
pub fn bind_listener(addr: impl std::net::ToSocketAddrs) -> io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        const BACKLOG: usize = 1024;
        let fd = raw_fd(&listener) as usize;
        // SAFETY: listen(2) takes a descriptor the listener owns and an
        // integer by value; the kernel reads no memory of ours.
        sys::check(unsafe { sys::syscall6(sys::nr::LISTEN, fd, BACKLOG, 0, 0, 0, 0) })?;
    }
    listener.set_nonblocking(true)?;
    Ok(listener)
}

/// The portable backend where raw syscalls are unavailable: report every
/// registered token as ready after a short sleep. Correct under the
/// level-triggered contract (consumers retry and treat `WouldBlock` as
/// not-ready), but it burns a wake-up per interval — a functional
/// fallback, not a fast path.
#[cfg(any(
    test,
    not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
))]
struct Scan {
    registered: Vec<(RawFd, u64, Interest)>,
}

#[cfg(any(
    test,
    not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
))]
impl Scan {
    const NAME: &'static str = "scan";
    const INTERVAL: Duration = Duration::from_millis(2);

    fn new() -> io::Result<Scan> {
        Ok(Scan {
            registered: Vec::new(),
        })
    }

    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.deregister(fd);
        self.registered.push((fd, token, interest));
        Ok(())
    }

    fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.register(fd, token, interest)
    }

    fn deregister(&mut self, fd: RawFd) {
        self.registered.retain(|(f, _, _)| *f != fd);
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        std::thread::sleep(timeout.min(Self::INTERVAL));
        for &(_, token, interest) in &self.registered {
            events.push(Event {
                token,
                readable: interest.read,
                writable: interest.write,
                closed: false,
            });
        }
        Ok(())
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
type Backend = epoll_imp::Epoll;
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
type Backend = Scan;

/// A level-triggered readiness poller over this platform's one backend:
/// `epoll` on Linux x86_64/aarch64, the timed `scan` elsewhere.
pub struct Poller {
    backend: Backend,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller")
            .field("backend", &self.backend_name())
            .finish()
    }
}

impl Poller {
    /// Opens a poller on this platform's backend. `preference` may be
    /// `None` or that backend's own name ([`Poller::backend_name`]).
    ///
    /// # Errors
    ///
    /// `InvalidInput` if `preference` names any other backend; otherwise
    /// propagates the backend's setup failure.
    pub fn new(preference: Option<&str>) -> io::Result<Poller> {
        match preference {
            None => {}
            Some(name) if name == Backend::NAME => {}
            Some(name) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "poller backend {name:?} is not available; this build uses {:?}",
                        Backend::NAME
                    ),
                ))
            }
        }
        Ok(Poller {
            backend: Backend::new()?,
        })
    }

    /// The backend's name (`"epoll"` or `"scan"`).
    pub fn backend_name(&self) -> &'static str {
        Backend::NAME
    }

    /// Starts watching `fd` under `token` with the given interest.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures (bad fd, duplicate registration).
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.register(fd, token, interest)
    }

    /// Updates the interest set of an already-registered `fd`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures (unknown fd).
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.modify(fd, token, interest)
    }

    /// Stops watching `fd`. Harmless if it was never registered.
    pub fn deregister(&mut self, fd: RawFd) {
        self.backend.deregister(fd);
    }

    /// Blocks until at least one registered descriptor is ready or
    /// `timeout` elapses, appending readiness reports to `events` (which
    /// is cleared first).
    ///
    /// # Errors
    ///
    /// Propagates wait-syscall failures; signal interruptions surface as
    /// an empty event set, not an error.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        events.clear();
        self.backend.wait(events, timeout)
    }
}

/// Cross-thread wake-up for a blocked [`Poller::wait`]: a nonblocking
/// loopback TCP pair. Workers write a byte into the send half; the
/// receive half sits in the poller set and becomes readable.
///
/// TCP instead of a pipe keeps the primitive dependency-free and
/// portable; `TCP_NODELAY` on the send half makes the wake immediate.
#[derive(Debug)]
pub struct Waker {
    tx: Mutex<TcpStream>,
}

impl Waker {
    /// Builds the pair: the [`Waker`] plus the receive stream to register
    /// in the poller (already nonblocking).
    ///
    /// # Errors
    ///
    /// Propagates loopback socket failures.
    pub fn pair() -> io::Result<(Waker, TcpStream)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        tx.set_nonblocking(true)?;
        tx.set_nodelay(true)?;
        rx.set_nonblocking(true)?;
        Ok((Waker { tx: Mutex::new(tx) }, rx))
    }

    /// Makes the receive half readable. Never blocks; a full socket
    /// buffer means wake-ups are already pending, which is just as good.
    pub fn wake(&self) {
        use std::io::Write;
        if let Ok(mut tx) = self.tx.lock() {
            let _ = tx.write(&[1]);
        }
    }

    /// Drains pending wake bytes from the receive half after it polled
    /// readable.
    pub fn drain(rx: &mut TcpStream) {
        use std::io::Read;
        let mut scratch = [0u8; 256];
        while let Ok(n) = rx.read(&mut scratch) {
            if n == 0 {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn default_backend_reports_accept_readiness() {
        let mut poller = Poller::new(None).expect("poller opens");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller
            .register(raw_fd(&listener), 7, Interest::READ)
            .expect("register listener");

        let mut events = Vec::new();
        poller
            .wait(&mut events, Duration::from_millis(20))
            .expect("wait");
        // Scan over-reports by design; epoll must be silent.
        if poller.backend_name() != Scan::NAME {
            assert!(events.is_empty(), "no client yet: {events:?}");
        }

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        let mut saw_accept = false;
        while std::time::Instant::now() < deadline {
            poller
                .wait(&mut events, Duration::from_millis(50))
                .expect("wait");
            if events.iter().any(|e| e.token == 7 && e.readable) {
                saw_accept = true;
                break;
            }
        }
        assert!(saw_accept, "listener readiness never reported");
        poller.deregister(raw_fd(&listener));
    }

    #[test]
    fn only_the_live_backend_can_be_named() {
        let live = Poller::new(None).expect("poller opens").backend_name();
        let named = Poller::new(Some(live)).expect("the live backend by name");
        assert_eq!(named.backend_name(), live);
        for other in ["poll", "kqueue", ""] {
            let e = Poller::new(Some(other)).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{other:?}: {e}");
        }
    }

    #[test]
    fn scan_backend_reports_registered_interest() {
        let mut scan = Scan::new().expect("scan opens");
        let mut events = Vec::new();
        scan.register(3, 7, Interest::READ).unwrap();
        scan.modify(4, 8, Interest::READ).unwrap();
        scan.modify(4, 8, Interest::READ_WRITE).unwrap();
        scan.wait(&mut events, Duration::from_millis(20)).unwrap();
        let expect = |token, read, write| Event {
            token,
            readable: read,
            writable: write,
            closed: false,
        };
        assert_eq!(
            events,
            vec![expect(7, true, false), expect(8, true, true)],
            "every registered token, each once, with its current interest"
        );
        scan.deregister(3);
        events.clear();
        scan.wait(&mut events, Duration::from_millis(20)).unwrap();
        assert_eq!(events, vec![expect(8, true, true)]);
    }

    #[test]
    fn waker_wakes_a_blocked_wait() {
        let mut poller = Poller::new(None).expect("poller opens");
        let (waker, mut rx) = Waker::pair().expect("waker pair");
        poller
            .register(raw_fd(&rx), 42, Interest::READ)
            .expect("register waker");
        let waker = std::sync::Arc::new(waker);
        let w = std::sync::Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            w.wake();
        });
        let start = std::time::Instant::now();
        let mut events = Vec::new();
        let mut woken = false;
        while start.elapsed() < Duration::from_secs(2) {
            poller
                .wait(&mut events, Duration::from_millis(250))
                .expect("wait");
            if events.iter().any(|e| e.token == 42 && e.readable) {
                woken = true;
                break;
            }
        }
        handle.join().unwrap();
        assert!(woken, "wake byte never surfaced");
        Waker::drain(&mut rx);
        // Drained: a subsequent nonblocking read would block again.
        use std::io::Read;
        let mut buf = [0u8; 8];
        assert!(matches!(
            rx.read(&mut buf),
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock
        ));
        drop(waker);
        let _ = writeln!(std::io::sink(), "backend: {}", poller.backend_name());
    }
}
