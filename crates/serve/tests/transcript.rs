//! The wire transcript: one fixed script of request lines
//! (`fixtures/wire_transcript_requests.jsonl`) answered byte for byte the
//! same through every transport, and the same as the committed responses
//! (`fixtures/wire_transcript.jsonl`).
//!
//! The script covers every op except `metrics` (its latencies differ run
//! to run): reads, plain and committed fold-ins (staged targets, `in_links`
//! into staged objects, policy-triggered refreshes), `refresh`,
//! `refresh_status` with and without `"wait":true`, escaped keys, and the
//! error branches — including lines with two faults, which pin which error
//! a request reports first. Every refresh that may run in the background
//! is followed directly by a `"wait":true` status, so no response depends
//! on when a re-fit lands.
//!
//! The fixture holds the responses of an inline-mode engine followed by
//! those of a background-mode engine, both with an object threshold of 3.
//! Each transport runs the script once per mode:
//!
//! 1. [`RefreshableEngine::handle_line`], in process;
//! 2. one [`NetServer`] TCP connection;
//! 3. the `genclus_serve` stdio binary, with two worker threads so each
//!    batch is parsed and answered across the pool.
//!
//! On a mismatch the produced transcript is written to
//! `wire_transcript.<transport>.jsonl` in the system temp dir.

use genclus_core::{GenClus, GenClusConfig};
use genclus_hin::{HinBuilder, Schema};
use genclus_serve::{NetConfig, NetServer, RefreshPolicy, RefreshableEngine, Snapshot};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

const REQUESTS: &str = include_str!("fixtures/wire_transcript_requests.jsonl");
const RESPONSES: &str = include_str!("fixtures/wire_transcript.jsonl");

/// Auto-refresh after this many staged objects, in both modes.
const OBJECT_THRESHOLD: usize = 3;

/// Two planted sensor clusters; s0 and s3 carry readings, the rest rely
/// on links.
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
    for x in [-5.0, -5.1, -4.9] {
        b.add_numeric(vs[0], reading, x).unwrap();
    }
    for x in [5.0, 5.1, 4.9] {
        b.add_numeric(vs[3], reading, x).unwrap();
    }
    let graph = b.build().unwrap();
    let cfg = GenClusConfig::new(2, vec![reading]).with_seed(7);
    let fit = GenClus::new(cfg).unwrap().fit(&graph).unwrap();
    genclus_serve::snapshot::to_bytes(&graph, &fit.model)
}

fn requests() -> Vec<&'static str> {
    REQUESTS.lines().collect()
}

fn engine(bytes: &[u8], background: bool) -> RefreshableEngine {
    let policy = RefreshPolicy {
        max_pending_objects: OBJECT_THRESHOLD,
        background,
        ..RefreshPolicy::default()
    };
    RefreshableEngine::new(Snapshot::from_bytes(bytes).unwrap(), 1, policy)
}

/// Compares a transport's transcript (inline run, then background run)
/// against the committed fixture, naming the first differing line.
fn assert_matches_fixture(transport: &str, got: &[String]) {
    let want: Vec<&str> = RESPONSES.lines().collect();
    let script = requests();
    if got.iter().map(String::as_str).eq(want.iter().copied()) {
        return;
    }
    let dump = std::env::temp_dir().join(format!("wire_transcript.{transport}.jsonl"));
    std::fs::write(&dump, got.join("\n") + "\n").ok();
    let first = (0..got.len().max(want.len()))
        .find(|&i| got.get(i).map(String::as_str) != want.get(i).copied())
        .unwrap_or(0);
    let mode = if first < script.len() {
        "inline"
    } else {
        "background"
    };
    panic!(
        "{transport}: response {first} ({mode} mode) differs (full transcript in {})\n\
         request:  {}\n\
         expected: {}\n\
         got:      {}",
        dump.display(),
        script.get(first % script.len()).unwrap_or(&"<none>"),
        want.get(first).unwrap_or(&"<missing>"),
        got.get(first).map_or("<missing>", String::as_str),
    );
}

#[test]
fn in_process_engine_matches_the_transcript() {
    let bytes = snapshot_bytes();
    let mut got = Vec::new();
    for background in [false, true] {
        let mut e = engine(&bytes, background);
        got.extend(requests().into_iter().map(|line| e.handle_line(line)));
        e.finish();
    }
    assert_matches_fixture("in_process", &got);
}

#[test]
fn one_tcp_connection_matches_the_transcript() {
    let bytes = snapshot_bytes();
    let mut got = Vec::new();
    for background in [false, true] {
        let server = NetServer::bind(
            "127.0.0.1:0",
            engine(&bytes, background),
            NetConfig::default(),
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for line in requests() {
            writeln!(stream, "{line}").unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            assert!(
                response.ends_with('\n'),
                "connection closed answering {line}"
            );
            got.push(response.trim_end_matches('\n').to_string());
        }
        drop((stream, reader));
        server.shutdown().finish();
    }
    assert_matches_fixture("tcp", &got);
}

#[test]
fn stdio_binary_matches_the_transcript() {
    let dir = std::env::temp_dir().join(format!("genclus-transcript-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("model.gcsnap");
    std::fs::write(&snap, snapshot_bytes()).unwrap();
    let mut got = Vec::new();
    for background in [false, true] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_genclus_serve"));
        cmd.arg("--snapshot")
            .arg(&snap)
            .args(["--refresh-after-objects", &OBJECT_THRESHOLD.to_string()])
            .args(["--threads", "2"])
            .arg("--quiet");
        if background {
            cmd.arg("--refresh-background");
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn genclus_serve");
        let mut stdin = child.stdin.take().unwrap();
        stdin.write_all(REQUESTS.as_bytes()).unwrap();
        drop(stdin);
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success(), "genclus_serve exited {}", out.status);
        got.extend(
            String::from_utf8(out.stdout)
                .unwrap()
                .lines()
                .map(str::to_string),
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    assert_matches_fixture("stdio", &got);
}
