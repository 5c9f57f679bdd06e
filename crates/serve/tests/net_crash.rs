//! The *ack ⇒ replayable* contract over TCP, end-to-end through the
//! binary: `genclus_serve --listen` with a WAL, several concurrent
//! clients (commits past the refresh threshold racing reads and metrics
//! scrapes), SIGKILL mid-stream, restart, and every commit whose ack was
//! read back must be present — refreshed commits answer `membership`,
//! still-staged ones are known to the commit namespace ("already
//! staged"), and the restart banner reports the replay.
//!
//! This is the TCP twin of `tests/crash_recovery.rs`: same durability
//! contract, but the acks now travel through the mutation lane while 3
//! other connections hammer the lock-free read path.

use genclus_core::{GenClus, GenClusConfig};
use genclus_hin::{HinBuilder, Schema};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("genclus-net-crash-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("model.gcsnap"), snapshot_bytes()).unwrap();
    dir
}

/// The binary in `--listen` mode: stdin held open keeps it serving,
/// stderr is drained on a thread (both for the `listening on` address and
/// for the recovery banner, and so the pipe can never fill and stall the
/// process).
struct TcpServer {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
    stderr: Arc<Mutex<Vec<String>>>,
}

impl TcpServer {
    fn spawn(dir: &std::path::Path, extra: &[&str]) -> Self {
        let snap = dir.join("model.gcsnap");
        let mut child = Command::new(env!("CARGO_BIN_EXE_genclus_serve"))
            .arg("--snapshot")
            .arg(&snap)
            .arg("--wal")
            .arg(dir.join("commits.gcwal"))
            .arg("--refresh-save")
            .arg(&snap)
            .args(["--listen", "127.0.0.1:0", "--batch", "1"])
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn genclus_serve --listen");
        let stdin = child.stdin.take().unwrap();
        let lines: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&lines);
        let stderr = BufReader::new(child.stderr.take().unwrap());
        std::thread::spawn(move || {
            for line in stderr.lines().map_while(Result::ok) {
                sink.lock().unwrap().push(line);
            }
        });
        // The ephemeral port arrives on stderr: `…: listening on <addr>`.
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Some(addr) = lines
                .lock()
                .unwrap()
                .iter()
                .find_map(|l| l.split("listening on ").nth(1))
                .map(|a| a.trim().parse::<SocketAddr>().expect("bound address"))
            {
                break addr;
            }
            assert!(Instant::now() < deadline, "server never announced a port");
            std::thread::sleep(Duration::from_millis(10));
        };
        Self {
            child,
            stdin: Some(stdin),
            addr,
            stderr: lines,
        }
    }

    fn stderr_contains(&self, needle: &str) -> bool {
        self.stderr
            .lock()
            .unwrap()
            .iter()
            .any(|l| l.contains(needle))
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Self { stream, reader }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        writeln!(self.stream, "{line}").expect("request write");
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("response read");
        assert!(!resp.is_empty(), "server closed before answering {line}");
        resp.trim_end().to_string()
    }

    fn ok(&mut self, line: &str) -> String {
        let resp = self.roundtrip(line);
        assert!(resp.contains(r#""ok":true"#), "{line} -> {resp}");
        resp
    }
}

#[test]
fn tcp_sigkill_drill_replays_every_acked_commit() {
    let dir = test_dir("drill");
    let flags = ["--refresh-after-objects", "2", "--refresh-background"];
    let s = TcpServer::spawn(&dir, &flags);
    let addr = s.addr;

    // Three reader connections hammer the lock-free path (membership,
    // stats, metrics scrapes) while a fourth drives commits through the
    // mutation lane — 4 concurrent clients minimum, per the drill.
    let readers: Vec<_> = (0..3)
        .map(|who| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for i in 0..15 {
                    match (who + i) % 3 {
                        0 => c.ok(r#"{"op":"stats"}"#),
                        1 => c.ok(&format!(r#"{{"op":"membership","object":"s{}"}}"#, i % 6)),
                        _ => c.ok(r#"{"op":"metrics"}"#),
                    };
                }
            })
        })
        .collect();

    let mut committer = Client::connect(addr);
    for name in ["k0", "k1", "k2", "k3", "k4"] {
        committer.ok(&format!(
            r#"{{"op":"fold_in","links":[["nn","s3",1.0]],"commit":"{name}"}}"#
        ));
        if name == "k1" {
            // Land the first re-fit before k2: otherwise k2..k4 can all
            // stage behind it and chain into one re-fit, leaving nothing
            // staged to replay.
            committer.ok(r#"{"op":"refresh_status","wait":true}"#);
        }
    }
    for r in readers {
        r.join().expect("reader client");
    }
    // Refreshes fired after k1 and k3; wait them out so both snapshots
    // are persisted and the log is truncated down to the staged k4 —
    // the kill then lands past real refresh/truncation cycles.
    let status = committer.ok(r#"{"op":"refresh_status","wait":true}"#);
    assert!(status.contains(r#""in_flight":false"#), "{status}");

    // Every ack above was read back over TCP. SIGKILL: no flush, no
    // goodbye, connections torn mid-stream.
    let mut child = s.child;
    child.kill().expect("SIGKILL");
    child.wait().unwrap();

    // Restart on the same snapshot + WAL. The recovery banner must
    // report the replay, and every acked commit must be present.
    let s = TcpServer::spawn(&dir, &flags);
    assert!(
        s.stderr_contains("replayed 1 commit"),
        "recovery banner missing: {:?}",
        s.stderr.lock().unwrap()
    );
    let mut c = Client::connect(s.addr);
    let status = c.ok(r#"{"op":"refresh_status"}"#);
    assert!(status.contains(r#""pending_objects":1"#), "{status}");
    for name in ["k0", "k1", "k2", "k3"] {
        c.ok(&format!(r#"{{"op":"membership","object":"{name}"}}"#));
    }
    let dup = c.roundtrip(r#"{"op":"fold_in","links":[["nn","s3",1.0]],"commit":"k4"}"#);
    assert!(dup.contains("already staged"), "{dup}");

    // The recovered server keeps serving: one more commit crosses the
    // threshold and refreshes k4 + k5 into the snapshot.
    c.ok(r#"{"op":"fold_in","links":[["nn","s3",1.0]],"commit":"k5"}"#);
    c.ok(r#"{"op":"refresh_status","wait":true}"#);
    c.ok(r#"{"op":"membership","object":"k4"}"#);

    // Closing stdin is the graceful stop: drain, quiesce, exit 0.
    drop(c);
    let mut s = s;
    drop(s.stdin.take());
    assert!(s.child.wait().unwrap().success());

    std::fs::remove_dir_all(&dir).ok();
}
