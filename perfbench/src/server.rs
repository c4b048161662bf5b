//! The `quonto-server` child process and the client connections that
//! drive it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

use obda_server::Json;

/// Builds the shipped server binary from the repository's own workspace
/// (a no-op when it is up to date) and returns its path. Cargo's output
/// goes to stderr, so the benchmark's stdout stays the report.
pub fn build_server(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .current_dir(root)
        .args([
            "build",
            "--release",
            "-q",
            "-p",
            "obda-server",
            "--bin",
            "quonto-server",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building quonto-server failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    let bin = target.join("release").join("quonto-server");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after the build", bin.display()))
    }
}

/// A running server. Dropping it kills the process and waits for it.
pub struct ServerProc {
    child: Child,
    stderr_drain: Option<JoinHandle<()>>,
    /// The address it listens on.
    pub addr: String,
}

impl ServerProc {
    /// Spawns `bin --config config` and waits until it listens.
    pub fn spawn(bin: &Path, config: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .arg("--config")
            .arg(config)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Reads the listening address, then keeps draining so the
        // server never blocks on a full pipe; ends at the server's exit.
        let drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("quonto-server listening on ") {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.trim().to_string());
                    }
                } else if line.contains("failed") || line.contains("error") {
                    eprintln!("quonto-server: {line}");
                }
            }
        });
        let mut proc = ServerProc {
            child,
            stderr_drain: Some(drain),
            addr: String::new(),
        };
        match rx.recv_timeout(Duration::from_secs(120)) {
            Ok(addr) => {
                proc.addr = addr;
                Ok(proc)
            }
            Err(_) => Err("quonto-server did not start listening".into()),
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.stderr_drain.take() {
            let _ = t.join();
        }
    }
}

/// One client connection (newline-delimited JSON).
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    /// Connects to `addr`.
    pub fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// Sends one request line and returns the response line (without
    /// the newline).
    pub fn roundtrip(&mut self, request: &str) -> std::io::Result<&str> {
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::other("server closed the connection"));
        }
        Ok(self.line.trim_end())
    }

    /// Fetches and parses the `STATS` snapshot.
    pub fn stats(&mut self) -> Result<Json, String> {
        let line = self.roundtrip("STATS").map_err(|e| e.to_string())?;
        Json::parse(line).map_err(|e| e.to_string())
    }
}

/// The unsigned integer after `"key":` in a response line, read without
/// a full parse so the timed loop stays cheap.
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The response's `status` value.
pub fn status_of(line: &str) -> &str {
    let pat = "\"status\":\"";
    match line.find(pat) {
        Some(i) => {
            let rest = &line[i + pat.len()..];
            &rest[..rest.find('"').unwrap_or(0)]
        }
        None => "",
    }
}
