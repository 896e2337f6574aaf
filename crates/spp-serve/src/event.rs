//! Readiness-driven connection multiplexer for `spp serve`.
//!
//! Every keep-alive connection between requests is parked in one epoll
//! instance, so thousands of idle clients cost zero pool workers. The
//! workers themselves wait on that instance: a request's bytes wake one
//! worker straight from the kernel, and the worker parses the request,
//! handles it, writes the response and parks the connection back
//! instead of holding its thread. One event-loop thread owns the
//! listener and the idle deadlines; it never touches a request.
//!
//! The epoll surface is bound directly over the already-linked libc via
//! `extern "C"` — no new dependencies, Linux-only. On other platforms
//! [`EventShared::new`] fails with `Unsupported`, and so does binding a
//! server.
//!
//! Protocol between the loop and the workers:
//!
//! - Sockets stay blocking for their whole life. At a request boundary
//!   a worker probes with one `recv(MSG_DONTWAIT)` (`recv_nowait`);
//!   once a request has started, reads block under the message
//!   deadlines.
//! - [`EventShared::park`] files a connection in the parked set and
//!   arms its fd with `EPOLLONESHOT`. The loop parks each accepted
//!   connection; a worker parks one after a response, or after a probe
//!   that found nothing (`EAGAIN`). The fd joins the interest set at its
//!   first park and is re-armed in place (`EPOLL_CTL_MOD`) after that,
//!   so a park costs one syscall. Parked connections are keyed by a
//!   token that is never reused, so a stale event cannot reach a newer
//!   socket on a recycled fd.
//! - A readiness event wakes exactly one waiting worker and disarms the
//!   fd, so exactly one worker ever owns a socket.
//! - A connection parked with buffered pipelined bytes bypasses epoll
//!   entirely (the kernel cannot see userspace buffers): it goes to the
//!   ready queue, which workers drain in turn with epoll's ready
//!   connections — the fairness rotation for the per-turn request cap.
//! - Idle timeouts are the loop's job: each parked connection carries a
//!   deadline, the loop's `epoll_wait` timeout is the cheapest deadline
//!   (capped at [`IDLE_POLL_CAP`]), and expired connections are dropped
//!   — a parked socket has no unread data, so the close is a clean FIN.
//!   A park whose deadline falls before the loop's current sleep ends
//!   wakes the loop through a self-pipe.
//! - Shutdown wakes the loop through that self-pipe and the workers
//!   through a second, level-triggered pipe that is never drained;
//!   workers check the flag before every wait.

// Off Linux only the stubs exist, so the loop never reads its state.
#![cfg_attr(not(target_os = "linux"), allow(dead_code))]

use std::collections::{HashMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::http::RecvBuf;

/// Upper bound on one `epoll_wait` sleep, so the loop and the workers
/// re-check shutdown defensively.
pub const IDLE_POLL_CAP: Duration = Duration::from_millis(500);

/// Connections accepted per readiness turn before yielding back to the
/// loop, so an accept flood cannot starve the idle-deadline scan.
#[cfg(target_os = "linux")]
const ACCEPT_BURST: usize = 1024;

/// Backoff after a failed `accept`: without it a persistent failure
/// (fd exhaustion) spins the loop hot.
#[cfg(target_os = "linux")]
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Epoll tokens of the fds that are not connections; connection tokens
/// count up from 1.
#[cfg(target_os = "linux")]
const LISTENER_TOKEN: u64 = u64::MAX;
#[cfg(target_os = "linux")]
const WAKER_TOKEN: u64 = u64::MAX - 1;
#[cfg(target_os = "linux")]
const STOP_TOKEN: u64 = u64::MAX - 2;

/// A keep-alive connection travelling between epoll and the worker
/// pool. Owns the socket and the connection-long receive buffer so
/// pipelined bytes survive a park/resume cycle.
pub struct EventConn {
    pub stream: TcpStream,
    pub buf: RecvBuf,
    /// Requests served on this connection so far (the keep-alive budget
    /// and `max_requests_per_connection` bookkeeping).
    pub served: u32,
    /// Epoll token, assigned when the fd joins the interest set at its
    /// first park.
    token: Option<u64>,
}

impl EventConn {
    pub fn new(stream: TcpStream) -> EventConn {
        EventConn {
            stream,
            buf: RecvBuf::new(),
            served: 0,
            token: None,
        }
    }
}

/// Event-loop observability, surfaced through `/stats`.
#[derive(Debug, Default)]
pub struct EventCounters {
    /// Gauge: connections currently parked in the epoll interest set.
    pub parked_connections: AtomicU64,
    /// `epoll_wait` returns (readiness or timeout), loop and workers.
    pub wakeups: AtomicU64,
    /// `epoll_wait` returns that delivered at least one event.
    pub readiness_batches: AtomicU64,
    /// Worker boundary probes that found no bytes yet (connection
    /// parked instead of spinning).
    pub eagain_retries: AtomicU64,
    /// Parked connections closed by the idle-deadline scan.
    pub timer_expiries: AtomicU64,
}

#[derive(Debug, Clone, Copy)]
pub struct EventCountersSnapshot {
    pub parked_connections: u64,
    pub wakeups: u64,
    pub readiness_batches: u64,
    pub eagain_retries: u64,
    pub timer_expiries: u64,
}

impl EventCounters {
    pub fn snapshot(&self) -> EventCountersSnapshot {
        EventCountersSnapshot {
            parked_connections: self.parked_connections.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            readiness_batches: self.readiness_batches.load(Ordering::Relaxed),
            eagain_retries: self.eagain_retries.load(Ordering::Relaxed),
            timer_expiries: self.timer_expiries.load(Ordering::Relaxed),
        }
    }

    fn count_wait(&self, events: usize) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
        if events > 0 {
            self.readiness_batches.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Server-side callbacks the loop invokes so connection-economics
/// counters stay in `server::AtomicCounters` (the loop owns accept and
/// the final close of parked connections).
pub struct EventHooks<'a> {
    /// A connection was accepted.
    pub on_accept: &'a (dyn Fn() + Sync),
    /// `accept()` failed with a non-retryable error.
    pub on_accept_error: &'a (dyn Fn() + Sync),
    /// A connection is being closed by the loop (idle expiry or
    /// shutdown); the argument is its served-request count.
    pub on_retire: &'a (dyn Fn(u32) + Sync),
}

/// A connection armed in epoll and when its idle budget runs out.
struct Parked {
    conn: EventConn,
    deadline: Instant,
}

/// The parked connections by token, and the loop's timer state.
#[derive(Default)]
struct ParkedSet {
    conns: HashMap<u64, Parked>,
    /// Last token handed out.
    last_token: u64,
    /// Cheapest parked deadline, maintained incrementally: parks can
    /// only pull it earlier, so the full O(parked) rescan happens only
    /// when it actually fires. Removals may leave it stale-early, which
    /// costs at most one spurious timeout wakeup, never a late expiry.
    next_deadline: Option<Instant>,
    /// When the loop's current `epoll_wait` times out, while it sleeps.
    sleep_until: Option<Instant>,
}

/// State shared between the event loop and the worker pool: the two
/// epoll instances, the parked set, the ready queue, the shutdown flag
/// and the two wake pipes.
pub struct EventShared {
    /// Parked connections and the stop pipe: the workers wait here.
    conns: Poller,
    /// The listener and the waker: the loop waits here.
    control: Poller,
    waker: Waker,
    stop: Waker,
    parked: Mutex<ParkedSet>,
    ready: Mutex<VecDeque<EventConn>>,
    shutdown: AtomicBool,
    idle_timeout: Duration,
    pub counters: EventCounters,
}

impl EventShared {
    /// Create the epoll instances and register `listener` (switched to
    /// non-blocking) and the wake pipes with them. Parked connections
    /// are closed after `idle_timeout` without a request.
    pub fn new(listener: &TcpListener, idle_timeout: Duration) -> std::io::Result<EventShared> {
        let waker = Waker::new()?;
        let stop = Waker::new()?;
        listener.set_nonblocking(true)?;
        Ok(EventShared {
            conns: Poller::conns(&stop)?,
            control: Poller::control(listener, &waker)?,
            waker,
            stop,
            parked: Mutex::new(ParkedSet::default()),
            ready: Mutex::new(VecDeque::new()),
            shutdown: AtomicBool::new(false),
            idle_timeout,
            counters: EventCounters::default(),
        })
    }

    /// Hand a connection to the multiplexer until its next bytes
    /// arrive: accepted, after a response, or after an empty boundary
    /// probe. A connection that cannot be parked — the server is
    /// shutting down, or epoll refused the fd — comes back as `Err` for
    /// the caller to close.
    pub fn park(&self, mut conn: EventConn) -> Result<(), EventConn> {
        if conn.buf.has_buffered() {
            self.ready.lock().unwrap().push_back(conn);
            return Ok(());
        }
        let deadline = Instant::now() + self.idle_timeout;
        let mut set = self.parked.lock().unwrap();
        if self.is_shutdown() {
            return Err(conn);
        }
        let (token, register) = match conn.token {
            Some(token) => (token, false),
            None => (set.last_token + 1, true),
        };
        // Armed under the lock: a worker woken at once waits for the
        // insert below before it can look the token up.
        if self.conns.arm(&conn.stream, token, register).is_err() {
            return Err(conn);
        }
        set.last_token = set.last_token.max(token);
        conn.token = Some(token);
        set.conns.insert(token, Parked { conn, deadline });
        self.counters
            .parked_connections
            .store(set.conns.len() as u64, Ordering::Relaxed);
        set.next_deadline = Some(set.next_deadline.map_or(deadline, |d| d.min(deadline)));
        let wake = set.sleep_until.is_some_and(|t| deadline < t);
        drop(set);
        if wake {
            self.waker.wake();
        }
        Ok(())
    }

    /// Worker side: wait for the next connection with readable (or
    /// buffered) bytes. Returns `None` on shutdown — checked before
    /// every wait, so workers exit promptly even with work queued.
    ///
    /// While the ready queue holds connections the wait does not block,
    /// and a connection epoll reports joins the queue's tail: buffered
    /// pipeliners and newly readable sockets take turns in arrival
    /// order.
    pub fn next_ready(&self) -> std::io::Result<Option<EventConn>> {
        loop {
            if self.is_shutdown() {
                return Ok(None);
            }
            let queued = !self.ready.lock().unwrap().is_empty();
            let timeout = if queued {
                Duration::ZERO
            } else {
                IDLE_POLL_CAP
            };
            let token = self.conns.wait_one(timeout)?;
            self.counters.count_wait(usize::from(token.is_some()));
            let woken = token.and_then(|token| self.unpark(token));
            let mut ready = self.ready.lock().unwrap();
            match woken {
                Some(conn) if ready.is_empty() => return Ok(Some(conn)),
                Some(conn) => ready.push_back(conn),
                None => {}
            }
            if let Some(conn) = ready.pop_front() {
                return Ok(Some(conn));
            }
        }
    }

    /// Take a connection whose one-shot event fired out of the parked
    /// set; `None` if the idle scan closed it first (or the token is a
    /// pipe's).
    fn unpark(&self, token: u64) -> Option<EventConn> {
        let mut set = self.parked.lock().unwrap();
        let parked = set.conns.remove(&token)?;
        self.counters
            .parked_connections
            .store(set.conns.len() as u64, Ordering::Relaxed);
        Some(parked.conn)
    }

    pub fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        self.stop.wake();
    }

    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// One `recv(MSG_DONTWAIT)` on a blocking socket: the request-boundary
/// probe. `WouldBlock` means nothing is readable yet; `Ok(0)` is EOF.
#[cfg(target_os = "linux")]
pub(crate) fn recv_nowait(stream: &TcpStream, buf: &mut [u8]) -> std::io::Result<usize> {
    use std::os::unix::io::AsRawFd;
    loop {
        // SAFETY: the fd is live for the borrow of `stream`, and buf is
        // a valid writable buffer of the length we pass.
        let n = unsafe {
            sys::recv(
                stream.as_raw_fd(),
                buf.as_mut_ptr().cast(),
                buf.len(),
                sys::MSG_DONTWAIT,
            )
        };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// There is no server off Linux, so nothing probes there.
#[cfg(not(target_os = "linux"))]
pub(crate) fn recv_nowait(_stream: &TcpStream, _buf: &mut [u8]) -> std::io::Result<usize> {
    Err(unsupported())
}

#[cfg(not(target_os = "linux"))]
fn unsupported() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "the event loop requires linux epoll",
    )
}

// ---------------------------------------------------------------------------
// Linux: direct epoll/pipe bindings and the loop itself.
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLONESHOT: u32 = 1 << 30;
    pub const O_NONBLOCK: c_int = 0o4000;
    pub const O_CLOEXEC: c_int = 0o2000000;
    pub const MSG_DONTWAIT: c_int = 0x40;

    /// `struct epoll_event` is packed on x86_64 (a kernel ABI quirk)
    /// and naturally aligned everywhere else.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize;
    }
}

/// Self-pipe used to interrupt `epoll_wait` from another thread. A full
/// pipe is fine: a failed write means a wake is already pending.
#[cfg(target_os = "linux")]
struct Waker {
    read_fd: std::os::raw::c_int,
    write_fd: std::os::raw::c_int,
}

#[cfg(target_os = "linux")]
impl Waker {
    fn new() -> std::io::Result<Waker> {
        let mut fds = [0 as std::os::raw::c_int; 2];
        // SAFETY: fds is a valid 2-element buffer for pipe2 to fill.
        let rc = unsafe { sys::pipe2(fds.as_mut_ptr(), sys::O_NONBLOCK | sys::O_CLOEXEC) };
        if rc != 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Waker {
            read_fd: fds[0],
            write_fd: fds[1],
        })
    }

    fn wake(&self) {
        let byte = [1u8];
        // SAFETY: write_fd is a live pipe fd owned by self; short or
        // failed writes (EAGAIN on a full pipe) are intentionally
        // ignored — a full pipe already guarantees a pending wake.
        unsafe {
            let _ = sys::write(self.write_fd, byte.as_ptr().cast(), 1);
        }
    }

    fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: read_fd is a live non-blocking pipe fd owned by
            // self and buf is a valid writable buffer.
            let n = unsafe { sys::read(self.read_fd, buf.as_mut_ptr().cast(), buf.len()) };
            if n <= 0 {
                break;
            }
        }
    }
}

#[cfg(target_os = "linux")]
impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: both fds are live and owned exclusively by self.
        unsafe {
            sys::close(self.read_fd);
            sys::close(self.write_fd);
        }
    }
}

/// Thin RAII wrapper over an epoll instance.
#[cfg(target_os = "linux")]
struct Poller {
    epfd: std::os::raw::c_int,
}

#[cfg(target_os = "linux")]
impl Poller {
    fn new() -> std::io::Result<Poller> {
        // SAFETY: epoll_create1 takes no pointers.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    /// The workers' instance: connections join it as they park, and
    /// `stop` wakes every waiter at shutdown (level-triggered, never
    /// drained).
    fn conns(stop: &Waker) -> std::io::Result<Poller> {
        let poller = Poller::new()?;
        poller.ctl(sys::EPOLL_CTL_ADD, stop.read_fd, STOP_TOKEN, sys::EPOLLIN)?;
        Ok(poller)
    }

    /// The loop's instance: the listener and the waker, both
    /// level-triggered.
    fn control(listener: &TcpListener, waker: &Waker) -> std::io::Result<Poller> {
        use std::os::unix::io::AsRawFd;
        let poller = Poller::new()?;
        poller.ctl(
            sys::EPOLL_CTL_ADD,
            listener.as_raw_fd(),
            LISTENER_TOKEN,
            sys::EPOLLIN,
        )?;
        poller.ctl(sys::EPOLL_CTL_ADD, waker.read_fd, WAKER_TOKEN, sys::EPOLLIN)?;
        Ok(poller)
    }

    fn ctl(
        &self,
        op: std::os::raw::c_int,
        fd: std::os::raw::c_int,
        token: u64,
        events: u32,
    ) -> std::io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        // SAFETY: epfd and fd are live fds; ev is a valid epoll_event.
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc != 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    /// Arm a connection for one readiness event under `token`: added to
    /// the interest set when `register`, re-armed in place otherwise.
    fn arm(&self, stream: &TcpStream, token: u64, register: bool) -> std::io::Result<()> {
        use std::os::unix::io::AsRawFd;
        let op = if register {
            sys::EPOLL_CTL_ADD
        } else {
            sys::EPOLL_CTL_MOD
        };
        self.ctl(
            op,
            stream.as_raw_fd(),
            token,
            sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLONESHOT,
        )
    }

    /// Wait for readiness, retrying on EINTR. `timeout` is rounded up
    /// to whole milliseconds so a 1ns residue cannot become a busy spin.
    fn wait(&self, events: &mut [sys::EpollEvent], timeout: Duration) -> std::io::Result<usize> {
        let ms = timeout
            .as_millis()
            .saturating_add(u128::from(
                !timeout.subsec_nanos().is_multiple_of(1_000_000),
            ))
            .min(i32::MAX as u128) as i32;
        loop {
            // SAFETY: epfd is live and events is a valid writable slice
            // of epoll_event with the length we pass.
            let n =
                unsafe { sys::epoll_wait(self.epfd, events.as_mut_ptr(), events.len() as i32, ms) };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// Wait for at most one event and return its token: a worker takes
    /// one connection per wait, so the others stay with idle workers.
    fn wait_one(&self, timeout: Duration) -> std::io::Result<Option<u64>> {
        let mut event = [sys::EpollEvent { events: 0, data: 0 }];
        let n = self.wait(&mut event, timeout)?;
        Ok((n == 1).then(|| event[0].data))
    }
}

#[cfg(target_os = "linux")]
impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: epfd is live and owned exclusively by self.
        unsafe {
            sys::close(self.epfd);
        }
    }
}

/// There is no epoll off Linux: the stub waker cannot exist, so
/// [`EventShared::new`] fails with `Unsupported`.
#[cfg(not(target_os = "linux"))]
enum Waker {}

#[cfg(not(target_os = "linux"))]
impl Waker {
    fn new() -> std::io::Result<Waker> {
        Err(unsupported())
    }
    fn wake(&self) {
        match *self {}
    }
}

#[cfg(not(target_os = "linux"))]
enum Poller {}

#[cfg(not(target_os = "linux"))]
impl Poller {
    fn conns(stop: &Waker) -> std::io::Result<Poller> {
        match *stop {}
    }
    fn control(_listener: &TcpListener, waker: &Waker) -> std::io::Result<Poller> {
        match *waker {}
    }
    fn arm(&self, _stream: &TcpStream, _token: u64, _register: bool) -> std::io::Result<()> {
        match *self {}
    }
    fn wait_one(&self, _timeout: Duration) -> std::io::Result<Option<u64>> {
        match *self {}
    }
}

/// Run the multiplexer's own thread until shutdown: accept (each new
/// connection is parked for its first request), idle deadlines, and
/// the final close of parked connections.
#[cfg(target_os = "linux")]
pub fn run_event_loop(
    listener: &TcpListener,
    shared: &EventShared,
    hooks: EventHooks<'_>,
) -> std::io::Result<()> {
    let mut events = [sys::EpollEvent { events: 0, data: 0 }; 2];
    let mut retired = Vec::new();

    while !shared.is_shutdown() {
        // Timer wheel, cheapest-deadline flavor: sleep until the
        // nearest parked deadline, capped defensively. Parks with an
        // earlier deadline than this sleep wake the loop.
        let timeout = {
            let mut set = shared.parked.lock().unwrap();
            let now = Instant::now();
            let timeout = match set.next_deadline {
                Some(d) => IDLE_POLL_CAP.min(d.saturating_duration_since(now)),
                None => IDLE_POLL_CAP,
            };
            set.sleep_until = Some(now + timeout);
            timeout
        };
        let n = shared.control.wait(&mut events, timeout)?;
        shared.counters.count_wait(n);
        let mut accept = false;
        for ev in &events[..n] {
            let token = ev.data; // copy out of the (packed) event
            match token {
                LISTENER_TOKEN => accept = true,
                _ => shared.waker.drain(),
            }
        }

        // Expire idle connections — only when the cached cheapest
        // deadline has actually fired. The sockets close as their set
        // entries drop: a parked socket has no unread bytes, so that is
        // a clean FIN — the idle-timeout close the roundtrip tests
        // assert on.
        {
            let mut set = shared.parked.lock().unwrap();
            set.sleep_until = None;
            let now = Instant::now();
            if set.next_deadline.is_some_and(|d| d <= now) {
                set.conns.retain(|_, p| {
                    if p.deadline > now {
                        return true;
                    }
                    retired.push(p.conn.served);
                    false
                });
                set.next_deadline = set.conns.values().map(|p| p.deadline).min();
                shared
                    .counters
                    .parked_connections
                    .store(set.conns.len() as u64, Ordering::Relaxed);
            }
        }
        for served in retired.drain(..) {
            shared
                .counters
                .timer_expiries
                .fetch_add(1, Ordering::Relaxed);
            (hooks.on_retire)(served);
        }

        if accept {
            for _ in 0..ACCEPT_BURST {
                match listener.accept() {
                    Ok((stream, _)) => {
                        (hooks.on_accept)();
                        // A refused park (shutdown has begun, or
                        // epoll refused the fd) just closes the socket.
                        let _ = shared.park(EventConn::new(stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        (hooks.on_accept_error)();
                        // The listener stays level-triggered readable
                        // while accept fails (fd exhaustion): without a
                        // backoff the loop would spin hot on it.
                        std::thread::sleep(ACCEPT_BACKOFF);
                        break;
                    }
                }
            }
        }
    }

    // Shutdown: retire everything still owned by the multiplexer so
    // max_requests_per_connection stays truthful. Parks after this see
    // the flag under the same lock and are refused.
    for (_, p) in shared.parked.lock().unwrap().conns.drain() {
        (hooks.on_retire)(p.conn.served);
    }
    for conn in shared.ready.lock().unwrap().drain(..) {
        (hooks.on_retire)(conn.served);
    }
    shared
        .counters
        .parked_connections
        .store(0, Ordering::Relaxed);
    Ok(())
}

/// Non-Linux stub: [`EventShared::new`] already fails off Linux, so no
/// server reaches this; it keeps call sites compiling.
#[cfg(not(target_os = "linux"))]
pub fn run_event_loop(
    _listener: &TcpListener,
    _shared: &EventShared,
    _hooks: EventHooks<'_>,
) -> std::io::Result<()> {
    Err(unsupported())
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    fn shared() -> (EventShared, TcpListener) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let shared = EventShared::new(&listener, Duration::from_secs(5)).unwrap();
        (shared, listener)
    }

    #[test]
    fn next_ready_returns_none_after_shutdown() {
        let (shared, _listener) = shared();
        let (client, _server) = connect_pair();
        let mut conn = EventConn::new(client);
        conn.buf = buffered(b"GET");
        assert!(shared.park(conn).is_ok());
        shared.initiate_shutdown();
        // Shutdown wins over queued work: workers must exit promptly.
        assert!(shared.next_ready().unwrap().is_none());
    }

    #[test]
    fn parks_are_refused_after_shutdown() {
        let (shared, _listener) = shared();
        shared.initiate_shutdown();
        let conn = shared.park(EventConn::new(connect_pair().0));
        assert!(conn.is_err(), "a park after shutdown must come back");
    }

    /// A parked socket with bytes waiting is served at once, and while
    /// buffered pipeliners wait in the ready queue a socket epoll
    /// reports joins the queue's tail behind them.
    #[test]
    fn ready_queue_preserves_fifo_order() {
        use std::io::Write;

        let (shared, _listener) = shared();
        let (a, _ka) = connect_pair();
        let (mut kb, b) = connect_pair();
        let mut piped = EventConn::new(a);
        piped.served = 1;
        piped.buf = buffered(b"GET");
        let mut socket = EventConn::new(b);
        socket.served = 2;

        assert!(shared.park(socket).is_ok());
        assert_eq!(shared.counters.snapshot().parked_connections, 1);
        kb.write_all(b"GET").unwrap();
        let socket = shared.next_ready().unwrap().unwrap();
        assert_eq!(socket.served, 2);
        assert_eq!(shared.counters.snapshot().parked_connections, 0);

        // Re-armed in place with its bytes still unread, behind a
        // buffered pipeliner.
        assert!(shared.park(socket).is_ok());
        assert!(shared.park(piped).is_ok());
        assert_eq!(shared.next_ready().unwrap().unwrap().served, 1);
        assert_eq!(shared.next_ready().unwrap().unwrap().served, 2);
    }

    #[test]
    fn poller_sees_listener_readiness_and_waker_wakes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let waker = Waker::new().unwrap();
        let poller = Poller::control(&listener, &waker).unwrap();

        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 2];
        // Nothing pending yet: a short wait times out empty.
        let n = poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert_eq!(n, 0);

        let _client = TcpStream::connect(addr).unwrap();
        let n = poller.wait(&mut events, Duration::from_secs(5)).unwrap();
        assert_eq!(n, 1);
        let token = events[0].data;
        assert_eq!(token, LISTENER_TOKEN);
        let _accepted = listener.accept().unwrap();

        // A waker write must interrupt a long wait promptly.
        let started = std::time::Instant::now();
        waker.wake();
        let n = poller.wait(&mut events, Duration::from_secs(5)).unwrap();
        assert!(n >= 1);
        assert!(started.elapsed() < Duration::from_secs(1));
        waker.drain();
    }

    /// A parked fd is re-armed in place: after its one-shot event fires,
    /// `EPOLL_CTL_MOD` arms it again, and bytes already waiting report
    /// at once.
    #[test]
    fn rearmed_connection_reports_waiting_bytes() {
        use std::io::Write;

        let stop = Waker::new().unwrap();
        let poller = Poller::conns(&stop).unwrap();
        let (mut client, server) = connect_pair();
        poller.arm(&server, 7, true).unwrap();
        client.write_all(b"a").unwrap();
        let wait = |ms| poller.wait_one(Duration::from_millis(ms)).unwrap();
        assert_eq!(wait(5000), Some(7));
        // One-shot: disarmed now, though the byte is still unread.
        assert_eq!(wait(10), None);
        poller.arm(&server, 7, false).unwrap();
        assert_eq!(wait(5000), Some(7));
        // The stop pipe is level-triggered: every later wait sees it.
        stop.wake();
        assert_eq!(wait(5000), Some(STOP_TOKEN));
        assert_eq!(wait(5000), Some(STOP_TOKEN));
    }

    #[test]
    fn nowait_probe_reports_would_block_then_bytes() {
        use std::io::Write;

        let (mut client, server) = connect_pair();
        let mut buf = [0u8; 8];
        let err = recv_nowait(&server, &mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        client.write_all(b"hi").unwrap();
        server
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // The socket itself stays blocking: wait for the bytes, then
        // the probe returns them.
        let mut peek = [0u8; 2];
        assert_eq!(server.peek(&mut peek).unwrap(), 2);
        assert_eq!(recv_nowait(&server, &mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"hi");
    }

    /// A receive buffer holding `bytes` as if read ahead from a socket.
    fn buffered(bytes: &[u8]) -> RecvBuf {
        let (mut client, server) = connect_pair();
        std::io::Write::write_all(&mut client, bytes).unwrap();
        let mut buf = RecvBuf::new();
        assert!(buf.fill(&server, false).unwrap() > 0);
        buf
    }

    /// A connected socket pair so EventConn tests hold real streams.
    fn connect_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }
}
