//! Readiness polling behind a trait: a vendored `epoll` shim on Linux
//! with a portable `poll(2)` fallback, keeping the std-only stance.
//!
//! The event-loop server core (see [`crate::event_loop`]) multiplexes
//! every connection socket on one thread. It needs exactly four
//! readiness operations — register, re-register, deregister, wait — so
//! that is the whole [`Poller`] trait. Two implementations exist:
//!
//! - [`Epoll`]: raw `epoll_create1`/`epoll_ctl`/`epoll_wait` syscalls
//!   declared directly against libc (which every Rust binary on Linux
//!   already links), O(ready) per wakeup. Linux only.
//! - [`PollFallback`]: POSIX `poll(2)` over a maintained fd table,
//!   O(registered) per wakeup. Portable to every Unix (macOS included),
//!   and the reference implementation the tests compare `Epoll` against.
//!
//! Both are **level-triggered**: an event keeps firing while the
//! condition holds, so a handler that drains partially is woken again —
//! no starvation bookkeeping needed in the loop.
//!
//! A [`Waker`] lets other threads (shard workers, `Server::stop`) pull
//! the loop out of a blocking wait: a nonblocking loopback socket pair
//! whose read end is registered like any connection. Writes are
//! deduplicated with an atomic flag so a storm of completions costs one
//! pipe byte, not thousands.

use std::io;
use std::os::unix::io::RawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a registration wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only (rare: a connection being back-pressured on read).
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions — a connection with queued responses.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event delivered by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the fd was registered under.
    pub token: usize,
    /// The fd is readable (includes EOF/hangup — a read will not block).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// The fd is in an error or hangup state; the owner should read to
    /// observe the error and close.
    pub error: bool,
}

/// The readiness-multiplexing surface the event loop runs on.
pub trait Poller: Send {
    /// Starts watching `fd` under `token` with the given interest.
    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()>;
    /// Changes the interest set of an already-registered fd.
    fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()>;
    /// Stops watching `fd`.
    fn deregister(&mut self, fd: RawFd) -> io::Result<()>;
    /// Blocks until at least one registered fd is ready (or `timeout`
    /// expires; `None` blocks indefinitely), appending events to `out`.
    /// Returns the number of events delivered.
    fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<usize>;
    /// A short name for logs and STATS ("epoll" or "poll").
    fn name(&self) -> &'static str;
}

/// The best poller for this platform: `epoll` on Linux, `poll(2)`
/// elsewhere.
pub fn best_poller() -> io::Result<Box<dyn Poller>> {
    #[cfg(target_os = "linux")]
    return Ok(Box::new(Epoll::new()?));
    #[cfg(not(target_os = "linux"))]
    Ok(Box::new(PollFallback::new()))
}

fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        // Round up so a 100µs timeout polls at 1ms, not busily at 0ms.
        Some(t) => t
            .as_millis()
            .max(if t.is_zero() { 0 } else { 1 })
            .min(i32::MAX as u128) as i32,
        None => -1,
    }
}

// ----- epoll (Linux) -----------------------------------------------------

/// `epoll_event.data`: a union in C; the loop only ever stores the token.
/// On x86 the struct is `__attribute__((packed))`; elsewhere it has
/// natural alignment — mirror glibc exactly or the kernel scribbles over
/// the wrong bytes.
#[cfg(target_os = "linux")]
#[repr(C)]
#[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(target_os = "linux")]
mod epoll_sys {
    use super::EpollEvent;
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn close(fd: i32) -> i32;
    }
}

/// The Linux `epoll` poller: O(ready) wakeups, which is what makes a
/// 10k-connection loop cheap when only a handful are active.
#[cfg(target_os = "linux")]
pub struct Epoll {
    epfd: RawFd,
    /// Scratch buffer reused across waits (no per-wait allocation).
    events: Vec<EpollEvent>,
}

#[cfg(target_os = "linux")]
impl Epoll {
    /// Creates the epoll instance (`EPOLL_CLOEXEC`).
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes a flag word and returns an fd or -1.
        let epfd = unsafe { epoll_sys::epoll_create1(epoll_sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll {
            epfd,
            events: vec![EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: {
                let mut e = epoll_sys::EPOLLRDHUP;
                if interest.readable {
                    e |= epoll_sys::EPOLLIN;
                }
                if interest.writable {
                    e |= epoll_sys::EPOLLOUT;
                }
                e
            },
            data: token as u64,
        };
        // SAFETY: `ev` is a valid epoll_event for the duration of the call;
        // DEL ignores the event pointer on modern kernels but passing one
        // is always allowed.
        let rc = unsafe { epoll_sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }
}

#[cfg(target_os = "linux")]
impl Poller for Epoll {
    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.ctl(epoll_sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.ctl(epoll_sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(epoll_sys::EPOLL_CTL_DEL, fd, 0, Interest::READ)
    }

    fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<usize> {
        let n = loop {
            // SAFETY: the events buffer outlives the call and maxevents
            // matches its length.
            let rc = unsafe {
                epoll_sys::epoll_wait(
                    self.epfd,
                    self.events.as_mut_ptr(),
                    self.events.len() as i32,
                    timeout_ms(timeout),
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        };
        for ev in &self.events[..n] {
            let bits = ev.events;
            out.push(PollEvent {
                token: ev.data as usize,
                readable: bits & (epoll_sys::EPOLLIN | epoll_sys::EPOLLRDHUP | epoll_sys::EPOLLHUP)
                    != 0,
                writable: bits & epoll_sys::EPOLLOUT != 0,
                error: bits & (epoll_sys::EPOLLERR | epoll_sys::EPOLLHUP) != 0,
            });
        }
        Ok(n)
    }

    fn name(&self) -> &'static str {
        "epoll"
    }
}

#[cfg(target_os = "linux")]
impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: epfd came from epoll_create1 and is closed exactly once.
        unsafe { epoll_sys::close(self.epfd) };
    }
}

// ----- poll(2) fallback --------------------------------------------------

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

mod poll_sys {
    use super::PollFd;
    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    extern "C" {
        // nfds_t is `unsigned long` on every Unix this builds for.
        pub fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }
}

/// Portable `poll(2)` poller: the whole fd table is handed to the kernel
/// on every wait, so it is O(registered) — fine for tests and moderate
/// fan-in, and the semantic reference for [`Epoll`].
pub struct PollFallback {
    fds: Vec<PollFd>,
    tokens: Vec<usize>,
}

impl PollFallback {
    /// An empty table.
    pub fn new() -> PollFallback {
        PollFallback {
            fds: Vec::new(),
            tokens: Vec::new(),
        }
    }

    fn events_bits(interest: Interest) -> i16 {
        let mut e = 0i16;
        if interest.readable {
            e |= poll_sys::POLLIN;
        }
        if interest.writable {
            e |= poll_sys::POLLOUT;
        }
        e
    }

    fn position(&self, fd: RawFd) -> Option<usize> {
        self.fds.iter().position(|p| p.fd == fd)
    }
}

impl Default for PollFallback {
    fn default() -> Self {
        PollFallback::new()
    }
}

impl Poller for PollFallback {
    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        if self.position(fd).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        self.fds.push(PollFd {
            fd,
            events: Self::events_bits(interest),
            revents: 0,
        });
        self.tokens.push(token);
        Ok(())
    }

    fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let i = self
            .position(fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
        self.fds[i].events = Self::events_bits(interest);
        self.tokens[i] = token;
        Ok(())
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let i = self
            .position(fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
        self.fds.swap_remove(i);
        self.tokens.swap_remove(i);
        Ok(())
    }

    fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<usize> {
        let n = loop {
            // SAFETY: the fd table is a valid, initialized slice of
            // repr(C) pollfd structs for the duration of the call.
            let rc = unsafe {
                poll_sys::poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as u64,
                    timeout_ms(timeout),
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        };
        let mut delivered = 0;
        for (p, &token) in self.fds.iter_mut().zip(&self.tokens) {
            if p.revents == 0 {
                continue;
            }
            let r = p.revents;
            p.revents = 0;
            out.push(PollEvent {
                token,
                readable: r & (poll_sys::POLLIN | poll_sys::POLLHUP) != 0,
                writable: r & poll_sys::POLLOUT != 0,
                error: r & (poll_sys::POLLERR | poll_sys::POLLHUP) != 0,
            });
            delivered += 1;
            if delivered == n {
                break;
            }
        }
        Ok(delivered)
    }

    fn name(&self) -> &'static str {
        "poll"
    }
}

// ----- waker -------------------------------------------------------------

/// Cross-thread wakeup for a blocked [`Poller::wait`].
///
/// The read half lives in the event loop (registered like a connection);
/// [`Waker::wake`] writes one byte to the write half. An atomic
/// `pending` flag coalesces wakes: between two loop iterations at most
/// one byte crosses the pipe no matter how many completions arrive.
#[derive(Clone)]
pub struct Waker {
    inner: Arc<WakerInner>,
}

struct WakerInner {
    write: UnixStream,
    pending: AtomicBool,
}

impl Waker {
    /// Builds the pair. Returns `(waker, read_end)`; the caller registers
    /// `read_end` with its poller and calls [`Waker::drain`] on wakeup.
    pub fn new() -> io::Result<(Waker, UnixStream)> {
        let (read, write) = UnixStream::pair()?;
        read.set_nonblocking(true)?;
        write.set_nonblocking(true)?;
        Ok((
            Waker {
                inner: Arc::new(WakerInner {
                    write,
                    pending: AtomicBool::new(false),
                }),
            },
            read,
        ))
    }

    /// Wakes the loop (idempotent until the loop calls [`Waker::drain`]).
    pub fn wake(&self) {
        if self.inner.pending.swap(true, Ordering::AcqRel) {
            return; // a byte is already in flight
        }
        // A full pipe still wakes the reader; WouldBlock is success here.
        use std::io::Write;
        let _ = (&self.inner.write).write(&[1u8]);
    }

    /// Drains queued wake bytes, then clears the pending flag — in that
    /// order. Clearing first would let a `wake()` landing in between
    /// write a byte this drain then eats, leaving the flag set over an
    /// empty pipe: every later wake would be swallowed. A wake swallowed
    /// between the two steps here is harmless as long as the loop calls
    /// this *before* re-checking its work queues: the waker pushed its
    /// work before calling `wake()`, so that check sees it.
    pub fn drain(&self, read_end: &UnixStream) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        let mut r = read_end;
        while matches!(r.read(&mut buf), Ok(n) if n > 0) {}
        self.inner.pending.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;

    fn pollers() -> Vec<Box<dyn Poller>> {
        let mut v: Vec<Box<dyn Poller>> = vec![Box::new(PollFallback::new())];
        #[cfg(target_os = "linux")]
        v.push(Box::new(Epoll::new().expect("epoll_create1")));
        v
    }

    #[test]
    fn readable_event_fires_and_clears() {
        for mut p in pollers() {
            let (mut a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            p.register(b.as_raw_fd(), 7, Interest::READ).unwrap();

            // Nothing to read yet: a zero-timeout wait delivers nothing.
            let mut evs = Vec::new();
            let n = p.wait(&mut evs, Some(Duration::ZERO)).unwrap();
            assert_eq!(n, 0, "{}: spurious event", p.name());

            a.write_all(b"x").unwrap();
            let n = p.wait(&mut evs, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(n, 1, "{}", p.name());
            assert_eq!(evs[0].token, 7);
            assert!(evs[0].readable);

            // Level-triggered: the event repeats until the byte is read.
            evs.clear();
            p.wait(&mut evs, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(evs.len(), 1, "{}: level-trigger lost", p.name());
            let mut buf = [0u8; 8];
            let mut br = &b;
            assert_eq!(br.read(&mut buf).unwrap(), 1);
            evs.clear();
            let n = p.wait(&mut evs, Some(Duration::ZERO)).unwrap();
            assert_eq!(n, 0, "{}: event after drain", p.name());

            p.deregister(b.as_raw_fd()).unwrap();
        }
    }

    #[test]
    fn writable_interest_is_togglable() {
        for mut p in pollers() {
            let (a, b) = UnixStream::pair().unwrap();
            let _keep = a;
            b.set_nonblocking(true).unwrap();
            p.register(b.as_raw_fd(), 3, Interest::READ).unwrap();
            let mut evs = Vec::new();
            // Read-only interest: an idle writable socket stays silent.
            assert_eq!(p.wait(&mut evs, Some(Duration::ZERO)).unwrap(), 0);
            // Flip to read+write: writable fires immediately.
            p.reregister(b.as_raw_fd(), 3, Interest::READ_WRITE)
                .unwrap();
            let n = p.wait(&mut evs, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(n, 1, "{}", p.name());
            assert!(evs[0].writable, "{}", p.name());
            assert!(!evs[0].readable, "{}", p.name());
            p.deregister(b.as_raw_fd()).unwrap();
        }
    }

    #[test]
    fn hangup_reports_readable() {
        for mut p in pollers() {
            let (a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            p.register(b.as_raw_fd(), 1, Interest::READ).unwrap();
            drop(a); // peer closes
            let mut evs = Vec::new();
            let n = p.wait(&mut evs, Some(Duration::from_secs(5))).unwrap();
            assert!(n >= 1, "{}: hangup not delivered", p.name());
            assert!(
                evs[0].readable,
                "{}: hangup must read as readable (EOF)",
                p.name()
            );
        }
    }

    #[test]
    fn waker_wakes_and_coalesces() {
        for mut p in pollers() {
            let (waker, read_end) = Waker::new().unwrap();
            p.register(read_end.as_raw_fd(), 0, Interest::READ).unwrap();

            // Many wakes, one byte: all coalesce while pending.
            for _ in 0..1000 {
                waker.wake();
            }
            let mut evs = Vec::new();
            let n = p.wait(&mut evs, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(n, 1, "{}", p.name());
            waker.drain(&read_end);
            evs.clear();
            assert_eq!(p.wait(&mut evs, Some(Duration::ZERO)).unwrap(), 0);

            // A wake after the drain re-fires.
            waker.wake();
            let n = p.wait(&mut evs, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(n, 1, "{}: wake after drain lost", p.name());
            waker.drain(&read_end);
        }
    }

    #[test]
    fn wake_racing_a_drain_is_never_lost() {
        // The producer hands items over in back-to-back pairs — push,
        // wake, push, wake — and waits for both to be consumed. The
        // second wake keeps landing inside the consumer's `drain`; if
        // that clears the flag before emptying the pipe, the byte is
        // eaten with the flag left set, the next pair's wakes are
        // swallowed, and the consumer sleeps on a non-empty queue.
        const PAIRS: u64 = 50_000;
        let mut p = best_poller().unwrap();
        let (waker, read_end) = Waker::new().unwrap();
        p.register(read_end.as_raw_fd(), 0, Interest::READ).unwrap();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (ack_tx, ack_rx) = std::sync::mpsc::channel::<u64>();
        let w2 = waker.clone();
        // Either channel closing (the consumer failed) ends the producer.
        let producer = std::thread::spawn(move || {
            let mut acked = 0;
            for pair in 1..=PAIRS {
                for _ in 0..2 {
                    if tx.send(()).is_err() {
                        return;
                    }
                    w2.wake();
                }
                while acked < pair * 2 {
                    match ack_rx.recv() {
                        Ok(n) => acked = n,
                        Err(_) => return,
                    }
                }
            }
        });
        let mut evs = Vec::new();
        let mut got = 0u64;
        while got < PAIRS * 2 {
            evs.clear();
            let n = p.wait(&mut evs, Some(Duration::from_secs(5))).unwrap();
            assert!(n > 0, "wake-up lost after {got} hand-offs");
            waker.drain(&read_end);
            while rx.try_recv().is_ok() {
                got += 1;
            }
            ack_tx.send(got).ok();
        }
        producer.join().unwrap();
    }

    #[test]
    fn cross_thread_wake_unblocks_an_indefinite_wait() {
        let mut p = best_poller().unwrap();
        let (waker, read_end) = Waker::new().unwrap();
        p.register(read_end.as_raw_fd(), 0, Interest::READ).unwrap();
        let w2 = waker.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            w2.wake();
        });
        let mut evs = Vec::new();
        // Blocks until the other thread wakes us (a hang here = failure
        // by test timeout).
        let n = p.wait(&mut evs, None).unwrap();
        assert_eq!(n, 1);
        t.join().unwrap();
    }
}
