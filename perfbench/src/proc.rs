//! Driving the `pfe` binary as a separate process: one-shot CLI runs
//! (wall time and peak RSS from `wait4`) and a TCP server handle.

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Let this thread's timed waits wake within 1 ns of their deadline
/// instead of the default 50 µs slack, so an open loop sends on time.
pub fn fine_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and touches only
    // the calling thread.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// Reap `child`, returning its exit code (-1 on a signal) and peak RSS
/// in MB.
fn reap(child: &Child) -> Result<(i32, f64), String> {
    let mut status = 0i32;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `child` is our unreaped child; the out-pointers are valid.
    let r = unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) };
    if r < 0 {
        return Err(format!("wait4: {}", std::io::Error::last_os_error()));
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -1
    };
    Ok((code, ru.maxrss_kb as f64 / 1024.0))
}

pub struct CliRun {
    pub stdout: String,
    pub wall: Duration,
    pub rss_mb: f64,
}

/// The `pfe` binary plus a work directory for its files.
pub struct Pfe {
    pub bin: PathBuf,
    pub work: PathBuf,
}

impl Pfe {
    pub fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    /// Run `pfe ARGS` to completion; an exit code other than 0 is an error
    /// carrying its stderr.
    pub fn run(&self, args: &[&str]) -> Result<CliRun, String> {
        let err_path = self.path("cli.stderr");
        let err = std::fs::File::create(&err_path).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let mut child = Command::new(&self.bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.bin.display()))?;
        let mut stdout = String::new();
        let read = child
            .stdout
            .take()
            .expect("piped")
            .read_to_string(&mut stdout);
        let (code, rss_mb) = reap(&child)?;
        let wall = start.elapsed();
        read.map_err(|e| e.to_string())?;
        if code != 0 {
            let msg = std::fs::read_to_string(&err_path).unwrap_or_default();
            return Err(format!(
                "pfe {} exited {code}: {}",
                args.join(" "),
                msg.trim()
            ));
        }
        Ok(CliRun {
            stdout,
            wall,
            rss_mb,
        })
    }

    /// Start `pfe serve --listen 127.0.0.1:0 --workers 2 ARGS` and wait
    /// until it announces its address.
    pub fn serve(&self, args: &[&str]) -> Result<Server, String> {
        let err_path = self.path("serve.stderr");
        let err = std::fs::File::create(&err_path).map_err(|e| e.to_string())?;
        let child = Command::new(&self.bin)
            .args(["serve", "--listen", "127.0.0.1:0", "--workers", "2"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.bin.display()))?;
        let mut server = Server {
            child: Some(child),
            addr: "127.0.0.1:0".parse().expect("literal"),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let text = std::fs::read_to_string(&err_path).unwrap_or_default();
            if let Some(addr) = text
                .lines()
                .find_map(|l| l.strip_prefix("listening on "))
                .and_then(|a| a.trim().parse().ok())
            {
                server.addr = addr;
                return Ok(server);
            }
            if Instant::now() > deadline {
                return Err(format!("pfe serve did not come up: {}", text.trim()));
            }
            if let Some(c) = server.child.as_mut() {
                if let Ok(Some(status)) = c.try_wait() {
                    server.child = None;
                    return Err(format!("pfe serve exited {status}: {}", text.trim()));
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// A running `pfe serve`. Dropping it kills and reaps the process.
pub struct Server {
    child: Option<Child>,
    pub addr: SocketAddr,
}

impl Server {
    /// Peak resident set so far, in MB (`VmHWM`).
    pub fn rss_peak_mb(&self) -> f64 {
        let Some(c) = &self.child else {
            return f64::NAN;
        };
        std::fs::read_to_string(format!("/proc/{}/status", c.id()))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
            .map(|kb| kb / 1024.0)
            .unwrap_or(f64::NAN)
    }

    /// Ask the server to shut down, then reap it (killing it after 10 s).
    pub fn stop(mut self) {
        if let Ok(mut s) = TcpStream::connect(self.addr) {
            use std::io::Write;
            s.write_all(b"{\"op\":\"shutdown\"}\n").ok();
        }
        if let Some(mut c) = self.child.take() {
            let deadline = Instant::now() + Duration::from_secs(10);
            while Instant::now() < deadline {
                if let Ok(Some(_)) = c.try_wait() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            c.kill().ok();
            c.wait().ok();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            c.kill().ok();
            c.wait().ok();
        }
    }
}

/// Build the release `pfe` binary from the workspace at `root`, into the
/// same target directory cargo uses for this benchmark.
pub fn build_pfe(root: &Path) -> Result<PathBuf, String> {
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(t) => std::env::current_dir().map_err(|e| e.to_string())?.join(t),
        None => root.join("target"),
    };
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "-q",
            "-p",
            "pfe-cli",
            "--bin",
            "pfe",
        ])
        .current_dir(root)
        .env("CARGO_TARGET_DIR", &target)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "building pfe failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(target.join("release").join("pfe"))
}
