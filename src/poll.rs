//! Libc-free `poll(2)` readiness for the serving front end.
//!
//! The repo is dependency-free, so — exactly like the raw `mmap` wrapper
//! in `kmm-bwt` — the syscall is issued directly on Linux/x86_64. Every
//! other platform falls back to a sleep of at most 1 ms that reports
//! every descriptor ready: callers drive nonblocking sockets and tolerate
//! `WouldBlock`, so spurious readiness only costs a failed `read`/`write`
//! attempt, never correctness. The fallback turns the event loop into a
//! bounded-interval poll loop, which is the same behaviour the blocking
//! server's accept loop had.
//!
//! Only the three interest bits the server uses are exposed. `revents`
//! may additionally carry `POLLERR`/`POLLHUP`/`POLLNVAL` from the
//! kernel; callers treat any of those as "attend to this socket" (the
//! subsequent nonblocking I/O call surfaces the actual error).

use std::time::Duration;

/// Interest/readiness: data available to read (or a pending accept).
pub const POLLIN: i16 = 0x001;
/// Interest/readiness: writable without blocking.
pub const POLLOUT: i16 = 0x004;
/// Readiness only: error condition (always reported, never requested).
pub const POLLERR: i16 = 0x008;
/// Readiness only: peer hung up.
pub const POLLHUP: i16 = 0x010;
/// Readiness only: invalid descriptor.
pub const POLLNVAL: i16 = 0x020;

/// One entry of the `poll(2)` descriptor array (layout-compatible with
/// the kernel's `struct pollfd`).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The descriptor to watch.
    pub fd: i32,
    /// Requested events (`POLLIN` / `POLLOUT`).
    pub events: i16,
    /// Kernel-reported readiness, valid after [`poll`] returns.
    pub revents: i16,
}

impl PollFd {
    /// Watch `fd` for `events`.
    pub fn new(fd: i32, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// True when the kernel reported any of `mask` (or an error/hangup
    /// condition, which always demands attention).
    pub fn ready(&self, mask: i16) -> bool {
        self.revents & (mask | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    //! Raw poll syscall for x86_64 Linux (no libc in the tree).

    use std::arch::asm;

    const SYS_POLL: usize = 7;

    /// `poll(fds, nfds, timeout_ms)`; returns the ready count or an
    /// errno-style `io::Error`.
    pub(super) fn poll(fds: &mut [super::PollFd], timeout_ms: i32) -> std::io::Result<usize> {
        let ret: isize;
        // SAFETY: the pointer/length describe a live, exclusively
        // borrowed `#[repr(C)]` pollfd array; the kernel validates the
        // descriptors and reports failure via errno.
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") SYS_POLL as isize => ret,
                in("rdi") fds.as_mut_ptr(),
                in("rsi") fds.len(),
                in("rdx") timeout_ms as isize,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack)
            );
        }
        if (-4095..0).contains(&ret) {
            Err(std::io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }
}

/// Wait up to `timeout` for readiness on `fds`, filling in `revents`.
/// Returns how many entries are ready (0 on timeout).
///
/// A signal interruption (`EINTR`) is reported as a timeout rather than
/// an error — the event loop re-derives its interest set every
/// iteration anyway. On platforms without the raw-syscall backend this
/// sleeps for at most 1 ms and reports everything ready (see the module
/// docs).
pub fn poll(fds: &mut [PollFd], timeout: Duration) -> std::io::Result<usize> {
    for fd in fds.iter_mut() {
        fd.revents = 0;
    }
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        match sys::poll(fds, ms) {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(0),
            other => other,
        }
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        // Capped because nothing can end this sleep early: the serve
        // loop's wake-up byte would otherwise wait out its whole timeout.
        std::thread::sleep(timeout.min(Duration::from_millis(1)));
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
        Ok(fds.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn listener_becomes_readable_on_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut fds = [PollFd::new(listener.as_raw_fd(), POLLIN)];

        // Nothing pending: a short poll times out (on the real backend).
        poll(&mut fds, Duration::from_millis(1)).unwrap();

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            poll(&mut fds, Duration::from_millis(50)).unwrap();
            if fds[0].ready(POLLIN) && listener.accept().is_ok() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "pending accept never became readable"
            );
        }
    }

    #[test]
    fn connected_stream_reports_write_readiness_and_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        // A fresh socket with an empty send buffer is writable.
        let mut fds = [PollFd::new(server.as_raw_fd(), POLLOUT)];
        poll(&mut fds, Duration::from_millis(100)).unwrap();
        assert!(fds[0].ready(POLLOUT));

        client.write_all(b"ping").unwrap();
        let mut fds = [PollFd::new(server.as_raw_fd(), POLLIN)];
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut server = server;
        let mut buf = [0u8; 8];
        loop {
            poll(&mut fds, Duration::from_millis(50)).unwrap();
            if fds[0].ready(POLLIN) {
                match server.read(&mut buf) {
                    Ok(n) if n > 0 => break,
                    Ok(_) => panic!("unexpected EOF"),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(e) => panic!("read failed: {e}"),
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "sent bytes never became readable"
            );
        }
    }
}
