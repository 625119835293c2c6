//! A closed-loop client of the `mcast serve` line protocol.

use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running daemon. Dropping it without [`Daemon::shutdown`] kills the
/// process and waits for it.
pub struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    line: String,
}

impl Daemon {
    /// Spawns `mcast serve` and waits for its reply to a `stats`
    /// request. Returns the daemon and the time from spawn to that
    /// reply: the set-up time before the first request can be issued.
    ///
    /// # Errors
    /// If the process cannot start or does not answer.
    pub fn spawn(mcast: &Path) -> io::Result<(Daemon, Duration)> {
        let t0 = Instant::now();
        let mut child = Command::new(mcast)
            .arg("serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other("daemon pipes missing"));
        };
        let mut d = Daemon {
            child,
            stdin,
            stdout: BufReader::new(stdout),
            line: String::new(),
        };
        let reply = d.request("{\"id\":0,\"op\":\"stats\"}")?.0;
        if !reply.contains("\"ok\":true") {
            return Err(io::Error::other(format!("bad stats reply: {reply}")));
        }
        Ok((d, t0.elapsed()))
    }

    /// Writes one request line and reads its response line. Returns the
    /// response (without the newline) and the latency from the write to
    /// the read.
    ///
    /// # Errors
    /// If the pipe breaks or the daemon closes its output.
    pub fn request(&mut self, line: &str) -> io::Result<(&str, Duration)> {
        let t0 = Instant::now();
        self.stdin.write_all(line.as_bytes())?;
        self.stdin.write_all(b"\n")?;
        self.stdin.flush()?;
        self.line.clear();
        if self.stdout.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed its output",
            ));
        }
        let dt = t0.elapsed();
        Ok((self.line.trim_end(), dt))
    }

    /// The daemon's peak resident set so far, in KiB (`VmHWM`).
    ///
    /// # Errors
    /// If `/proc` has no such entry.
    pub fn peak_rss_kib(&self) -> io::Result<u64> {
        peak_rss_kib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Sends `shutdown` and waits for the process to exit.
    ///
    /// # Errors
    /// If the daemon does not acknowledge or exits unsuccessfully.
    pub fn shutdown(mut self) -> io::Result<()> {
        let reply = self
            .request("{\"id\":0,\"op\":\"shutdown\"}")?
            .0
            .to_string();
        let status = self.child.wait()?;
        if !reply.contains("\"mode\":\"shutdown\"") || !status.success() {
            return Err(io::Error::other(format!(
                "daemon shutdown failed ({status}): {reply}"
            )));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // After a clean shutdown the process has been reaped and both
        // calls fail harmlessly.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in KiB.
///
/// # Errors
/// If the file cannot be read or has no `VmHWM` line.
pub fn peak_rss_kib(status_path: &str) -> io::Result<u64> {
    let text = std::fs::read_to_string(status_path)?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other(format!("no VmHWM in {status_path}")))
}

/// The `result` object of a successful response line, or `None` for an
/// error response or a line that is not a response to `id`.
#[must_use]
pub fn result_of(response: &str, id: u64) -> Option<&str> {
    response
        .strip_prefix(&format!("{{\"id\":{id},\"ok\":true,\"result\":"))?
        .strip_suffix('}')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_of_needs_the_right_id_and_success() {
        let ok = "{\"id\":7,\"ok\":true,\"result\":{\"a\":1}}";
        assert_eq!(result_of(ok, 7), Some("{\"a\":1}"));
        assert_eq!(result_of(ok, 8), None);
        let err = "{\"id\":7,\"ok\":false,\"error\":{\"kind\":\"bad_request\",\"message\":\"x\"}}";
        assert_eq!(result_of(err, 7), None);
    }
}
