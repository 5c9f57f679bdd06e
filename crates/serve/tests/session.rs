//! The session rules both transports share:
//!
//! * a blank or whitespace-only line is answered with nothing, over TCP
//!   as on stdio, and the next request's response follows;
//! * a session answers the lines already read without waiting for a
//!   batch to fill, so a lone stdio request is answered while stdin stays
//!   open;
//! * a read-only stdio stream picks up a finished background re-fit at
//!   the top of its next batch.

use genclus_core::{GenClus, GenClusConfig};
use genclus_hin::{HinBuilder, Schema};
use genclus_serve::{NetConfig, NetServer, RefreshPolicy, RefreshableEngine, Snapshot};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

/// Two planted sensor clusters; s0 and s3 carry readings.
fn snapshot_bytes() -> Vec<u8> {
    let mut s = Schema::new();
    let sensor = s.add_object_type("sensor");
    let nn = s.add_relation("nn", sensor, sensor);
    let reading = s.add_numerical_attribute("reading");
    let mut b = HinBuilder::new(s);
    let vs: Vec<_> = (0..6)
        .map(|i| b.add_object(sensor, format!("s{i}")))
        .collect();
    for group in [[0usize, 1, 2], [3, 4, 5]] {
        for &i in &group {
            for &j in &group {
                if i != j {
                    b.add_link(vs[i], vs[j], nn, 1.0).unwrap();
                }
            }
        }
    }
    b.add_numeric(vs[0], reading, -5.0).unwrap();
    b.add_numeric(vs[3], reading, 5.0).unwrap();
    let graph = b.build().unwrap();
    let cfg = GenClusConfig::new(2, vec![reading]).with_seed(7);
    let fit = GenClus::new(cfg).unwrap().fit(&graph).unwrap();
    genclus_serve::snapshot::to_bytes(&graph, &fit.model)
}

#[test]
fn blank_lines_over_tcp_are_answered_with_nothing() {
    let snap = Snapshot::from_bytes(&snapshot_bytes()).unwrap();
    let engine = RefreshableEngine::new(snap, 1, RefreshPolicy::default());
    let server = NetServer::bind("127.0.0.1:0", engine, NetConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // Alone, then pipelined with a request behind it.
    for (blank, id) in [("\n", 1), (" \t\r\n", 2)] {
        stream.write_all(blank.as_bytes()).unwrap();
        writeln!(stream, r#"{{"id":{id},"op":"membership","object":"s1"}}"#).unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert!(
            response.starts_with(&format!(r#"{{"id":{id},"ok":true"#)),
            "a blank line must produce no response, got {response:?}"
        );
    }
    drop((stream, reader));
    server.shutdown();
}

/// `genclus_serve` over a piped stdin/stdout; stdout lines arrive on a
/// channel so a missing response is a timeout, not a hang.
struct StdioServer {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    dir: PathBuf,
}

impl StdioServer {
    fn spawn(tag: &str, flags: &[&str]) -> Self {
        let dir =
            std::env::temp_dir().join(format!("genclus-session-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("model.gcsnap");
        std::fs::write(&snap, snapshot_bytes()).unwrap();
        let mut child = Command::new(env!("CARGO_BIN_EXE_genclus_serve"))
            .arg("--snapshot")
            .arg(&snap)
            .args(flags)
            .arg("--quiet")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn genclus_serve");
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        let (tx, lines) = mpsc::channel();
        std::thread::spawn(move || {
            for line in stdout.lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Self {
            child,
            stdin,
            lines,
            dir,
        }
    }

    /// Sends one request line (no blank line after it, stdin kept open)
    /// and waits up to 10 s for its response.
    fn send(&mut self, line: &str) -> String {
        let stdin = self.stdin.as_mut().unwrap();
        writeln!(stdin, "{line}").unwrap();
        stdin.flush().unwrap();
        self.lines
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("no response to {line} while stdin stays open"))
    }

    /// Closes stdin and requires a clean exit.
    fn finish(mut self) {
        drop(self.stdin.take());
        assert!(self.child.wait().unwrap().success());
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

#[test]
fn a_lone_stdio_request_is_answered_without_filling_the_batch() {
    let mut stdio = StdioServer::spawn("lone", &["--batch", "64", "--threads", "2"]);
    for id in 1..=3 {
        let response = stdio.send(&format!(r#"{{"id":{id},"op":"stats"}}"#));
        assert!(
            response.starts_with(&format!(r#"{{"id":{id},"ok":true"#)),
            "{response}"
        );
    }
    stdio.finish();
}

#[test]
fn a_read_only_stdio_stream_sees_a_swapped_in_background_refit() {
    let mut stdio = StdioServer::spawn("refit", &["--refresh-background", "--threads", "2"]);
    let ack = stdio.send(r#"{"op":"fold_in","links":[["nn","s0",1.0]],"commit":"n0"}"#);
    assert!(ack.contains(r#""ok":true"#), "{ack}");
    let started = stdio.send(r#"{"op":"refresh"}"#);
    assert!(started.contains(r#""started":true"#), "{started}");
    // From here on only reads: the re-fit lands at the top of a later
    // batch, and the committed object becomes a served one.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let response = stdio.send(r#"{"op":"membership","object":"n0"}"#);
        if response.contains(r#""ok":true"#) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the re-fit never swapped in: {response}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    stdio.finish();
}
