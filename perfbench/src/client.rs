//! A line-protocol client over std TCP: blocking calls for set-up and
//! closed loops, timed reads for the open loop.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 1;

/// Wait up to `timeout` for `stream` to become readable. `ppoll` takes a
/// nanosecond timeout; `SO_RCVTIMEO` and `poll` round to a jiffy or a
/// millisecond, far coarser than an open loop's send period.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> Result<bool, String> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        sec: timeout.as_secs() as i64,
        nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: one valid pollfd, a valid timespec, and no signal mask.
    let r = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if r < 0 {
        let err = std::io::Error::last_os_error();
        return if err.kind() == ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(format!("ppoll: {err}"))
        };
    }
    Ok(r > 0)
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` already returned as lines.
    taken: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            stream,
            buf: Vec::with_capacity(1 << 16),
            taken: 0,
        })
    }

    /// Send one request line (the newline is added here).
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream
            .write_all(&bytes)
            .map_err(|e| format!("send: {e}"))
    }

    fn take_line(&mut self) -> Option<Vec<u8>> {
        let nl = self.buf[self.taken..].iter().position(|&b| b == b'\n')?;
        let line = self.buf[self.taken..self.taken + nl].to_vec();
        self.taken += nl + 1;
        if self.taken == self.buf.len() {
            self.buf.clear();
            self.taken = 0;
        }
        Some(line)
    }

    /// Block until more bytes arrive.
    fn fill(&mut self) -> Result<(), String> {
        if self.taken > 0 {
            self.buf.drain(..self.taken);
            self.taken = 0;
        }
        let mut chunk = [0u8; 1 << 16];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Block until one reply line arrives.
    pub fn recv(&mut self) -> Result<Vec<u8>, String> {
        loop {
            if let Some(line) = self.take_line() {
                return Ok(line);
            }
            self.fill()?;
        }
    }

    /// Wait at most `timeout` for reply lines; returns those that
    /// arrived (possibly none).
    pub fn recv_within(&mut self, timeout: Duration) -> Result<Vec<Vec<u8>>, String> {
        let mut out = Vec::new();
        while let Some(line) = self.take_line() {
            out.push(line);
        }
        if !out.is_empty() {
            return Ok(out);
        }
        if wait_readable(&self.stream, timeout)? {
            self.fill()?;
            while let Some(line) = self.take_line() {
                out.push(line);
            }
        }
        Ok(out)
    }

    /// One blocking request/reply round trip.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        let reply = self.recv()?;
        String::from_utf8(reply).map_err(|e| e.to_string())
    }

    /// [`call`](Self::call), failing unless the reply says `"ok":true`.
    pub fn call_ok(&mut self, line: &str) -> Result<pfe_engine::Json, String> {
        let reply = self.call(line)?;
        let json = pfe_engine::Json::parse(&reply).map_err(|e| format!("{e}: {reply}"))?;
        if json.get("ok") != Some(&pfe_engine::Json::Bool(true)) {
            return Err(format!("{line:.80} -> {reply}"));
        }
        Ok(json)
    }
}
