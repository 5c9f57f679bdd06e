//! Concurrent-serving properties of the TCP front-end
//! ([`genclus_serve::net`]), in-process: a [`NetServer`] over real
//! sockets, N client threads, commits racing reads.
//!
//! What must hold:
//!
//! * acked commits are durable in order and visible to every connection
//!   once the refresh swap lands;
//! * the `stats` checksums observed by any one connection are monotone —
//!   old\* then new\*, never interleaved, never revisiting a snapshot;
//! * one client disconnecting (mid-line, or without reading its
//!   responses) leaves every other connection serving;
//! * a request line over the byte cap gets a structured `BadRequest`,
//!   closes that connection, and nothing else;
//! * the admission cap turns new arrivals away with a structured error.
//!
//! The swap-during-read test pins the timing deterministically with the
//! `doc(hidden)` background-refit hook: the re-fit blocks on a gate while
//! a reader connection observes the old snapshot, then the gate opens and
//! the reader must see exactly one switch.

use genclus_core::{GenClus, GenClusConfig};
use genclus_hin::prelude::*;
use genclus_serve::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// The two-ring sensor network from `tests/background.rs`.
fn snapshot(n_per_ring: usize) -> Snapshot {
    let mut s = Schema::new();
    let sensor = s.add_object_type("sensor");
    let nn = s.add_relation("nn", sensor, sensor);
    let reading = s.add_numerical_attribute("reading");
    let mut b = HinBuilder::new(s);
    let vs: Vec<_> = (0..2 * n_per_ring)
        .map(|i| b.add_object(sensor, format!("s{i}")))
        .collect();
    for ring in 0..2 {
        let base = ring * n_per_ring;
        for i in 0..n_per_ring {
            let j = (i + 1) % n_per_ring;
            b.add_link(vs[base + i], vs[base + j], nn, 1.0).unwrap();
            b.add_link(vs[base + j], vs[base + i], nn, 1.0).unwrap();
        }
        let mu = if ring == 0 { -5.0 } else { 5.0 };
        for i in 0..n_per_ring / 2 {
            b.add_numeric(vs[base + i], reading, mu + 0.1 * i as f64)
                .unwrap();
        }
    }
    let graph = b.build().unwrap();
    let cfg = GenClusConfig::new(2, vec![reading]).with_seed(7);
    let fit = GenClus::new(cfg).unwrap().fit(&graph).unwrap();
    Snapshot::from_bytes(&genclus_serve::snapshot::to_bytes(&graph, &fit.model)).unwrap()
}

/// A blocking JSON-lines client with a generous read timeout (a hang is
/// a test failure, not a deadlock).
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

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("response read");
        line.trim_end().to_string()
    }

    fn send(&mut self, line: &str) -> String {
        writeln!(self.stream, "{line}").expect("request write");
        self.read_line()
    }

    fn ok(&mut self, line: &str) -> Json {
        let resp = self.send(line);
        let v = Json::parse(&resp).expect("json response");
        assert_eq!(
            v.get("ok"),
            Some(&Json::Bool(true)),
            "expected success for {line}, got {resp}"
        );
        v
    }

    fn checksum(&mut self) -> String {
        self.ok(r#"{"op":"stats"}"#)
            .get("checksum")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    }
}

/// Monotone, never-revisiting: once a sequence moves off a value it never
/// returns to it — the wire-visible shape of "old\* then new\*".
fn assert_monotone(observed: &[String], who: usize) {
    let mut seen: Vec<&String> = Vec::new();
    for c in observed {
        match seen.iter().position(|s| *s == c) {
            Some(i) => assert_eq!(
                i + 1,
                seen.len(),
                "client {who} observed interleaved checksums: {observed:?}"
            ),
            None => seen.push(c),
        }
    }
}

#[test]
fn sixty_four_connections_commits_racing_reads() {
    let policy = RefreshPolicy {
        max_pending_objects: 4,
        background: true,
        ..RefreshPolicy::default()
    };
    let engine = RefreshableEngine::new(snapshot(10), 1, policy);
    let server = NetServer::bind("127.0.0.1:0", engine, NetConfig::default()).unwrap();
    let addr = server.local_addr();

    // 64 concurrent reader connections, each interleaving stats (lane)
    // with membership/top_k (lock-free pinned path).
    let readers: Vec<_> = (0..64)
        .map(|who| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let mut observed = Vec::new();
                for i in 0..12 {
                    observed.push(c.checksum());
                    c.ok(&format!(r#"{{"op":"membership","object":"s{}"}}"#, i % 20));
                }
                (who, observed)
            })
        })
        .collect();

    // Meanwhile: commits past the refresh threshold, twice, on their own
    // connection. Every ack read back here is a durability-ordered point
    // racing the 64 readers above.
    let mut writer = Client::connect(addr);
    for i in 0..8 {
        let anchor = if i == 0 {
            "s0".into()
        } else {
            format!("n{}", i - 1)
        };
        writer.ok(&format!(
            r#"{{"op":"fold_in","links":[["nn","{anchor}",1.0],["nn","s1",1.0]],"commit":"n{i}"}}"#
        ));
    }
    let waited = writer.ok(r#"{"op":"refresh_status","wait":true}"#);
    assert_eq!(waited.get("in_flight"), Some(&Json::Bool(false)));

    for handle in readers {
        let (who, observed) = handle.join().expect("reader thread");
        assert_monotone(&observed, who);
    }

    // Post-swap: every acked commit is visible to a brand-new connection,
    // on the lock-free read path.
    let mut fresh = Client::connect(addr);
    let stats = fresh.ok(r#"{"op":"stats"}"#);
    assert_eq!(stats.get("n_objects").unwrap().as_usize(), Some(28));
    for i in 0..8 {
        fresh.ok(&format!(r#"{{"op":"membership","object":"n{i}"}}"#));
    }
    let metrics = fresh.ok(r#"{"op":"metrics"}"#);
    let net = metrics.get("net").unwrap();
    assert!(net.get("accepted").unwrap().as_usize().unwrap() >= 66);
    assert_eq!(net.get("write_errors").unwrap().as_usize(), Some(0));

    drop((writer, fresh));
    let engine = server.shutdown();
    assert_eq!(engine.refreshes(), 2);
}

#[test]
fn swap_during_read_is_atomic_deterministically() {
    let policy = RefreshPolicy {
        background: true,
        ..RefreshPolicy::default()
    };
    let mut engine = RefreshableEngine::new(snapshot(8), 1, policy);

    // Gate the background re-fit: it blocks at its start until released,
    // so "during the re-fit" is a controlled region, not a race.
    #[allow(clippy::type_complexity)]
    let gate: Arc<(Mutex<bool>, Condvar)> = Arc::new((Mutex::new(false), Condvar::new()));
    let hook_gate = Arc::clone(&gate);
    engine.set_background_refit_hook(move || {
        let (lock, cvar) = &*hook_gate;
        let mut released = lock.lock().unwrap();
        while !*released {
            released = cvar.wait(released).unwrap();
        }
    });

    let server = NetServer::bind("127.0.0.1:0", engine, NetConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut writer = Client::connect(addr);
    let mut reader = Client::connect(addr);
    let old = reader.checksum();

    writer.ok(r#"{"op":"fold_in","links":[["nn","s0",1.0]],"commit":"g0"}"#);
    let started = writer.ok(r#"{"op":"refresh"}"#);
    assert_eq!(started.get("started"), Some(&Json::Bool(true)));

    // The re-fit is provably in flight and blocked: every read, on every
    // path, answers from the old snapshot.
    let mut observed = Vec::new();
    for _ in 0..5 {
        observed.push(reader.checksum());
        reader.ok(r#"{"op":"membership","object":"s0"}"#);
    }
    assert!(observed.iter().all(|c| *c == old), "{observed:?}");
    // The committed-but-unrefreshed object is not on the read path yet.
    let resp = reader.send(r#"{"op":"membership","object":"g0"}"#);
    assert!(resp.contains(r#""ok":false"#), "{resp}");

    // Open the gate; the swap lands and must be observed as one switch.
    {
        let (lock, cvar) = &*gate;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let c = reader.checksum();
        let switched = c != old;
        observed.push(c);
        if switched {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "swap never observed: {observed:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let new = observed.last().unwrap().clone();
    let switch = observed.iter().position(|c| *c != old).unwrap();
    assert!(observed[..switch].iter().all(|c| *c == old));
    assert!(observed[switch..].iter().all(|c| *c == new));

    // The same connection's *next* pinned read sees the new core: the
    // arrival is now served on the lock-free path (the old core has no
    // object named g0, so this is proof the publish reached the pin).
    reader.ok(r#"{"op":"membership","object":"g0"}"#);

    drop((writer, reader));
    server.shutdown();
}

#[test]
fn one_disconnecting_client_leaves_others_serving() {
    let engine = RefreshableEngine::new(snapshot(6), 1, RefreshPolicy::default());
    let server = NetServer::bind("127.0.0.1:0", engine, NetConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut steady = Client::connect(addr);
    steady.ok(r#"{"op":"stats"}"#);

    // Client A dies mid-line (partial request, no newline, then gone).
    {
        let mut a = Client::connect(addr);
        a.stream.write_all(br#"{"op":"stats""#).unwrap();
    }

    // Client B pipelines a pile of requests and vanishes without reading
    // a single response — the server's writes may hit a dead socket.
    {
        let b = TcpStream::connect(addr).unwrap();
        let mut w = b.try_clone().unwrap();
        for _ in 0..256 {
            writeln!(w, r#"{{"op":"stats"}}"#).unwrap();
        }
    }

    // Both disconnects contained: the steady connection keeps serving,
    // and new connections are accepted.
    for _ in 0..10 {
        steady.ok(r#"{"op":"membership","object":"s0"}"#);
    }
    let mut fresh = Client::connect(addr);
    fresh.ok(r#"{"op":"stats"}"#);

    drop((steady, fresh));
    server.shutdown();
}

#[test]
fn over_limit_line_answers_bad_request_then_closes_that_connection() {
    let engine = RefreshableEngine::new(snapshot(6), 1, RefreshPolicy::default());
    let cfg = NetConfig {
        max_request_bytes: 256,
        ..NetConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", engine, cfg).unwrap();
    let addr = server.local_addr();

    let mut offender = Client::connect(addr);
    offender.ok(r#"{"op":"stats"}"#);
    let long = format!(r#"{{"op":"membership","object":"{}"}}"#, "x".repeat(4096));
    let resp = offender.send(&long);
    assert!(resp.contains(r#""ok":false"#), "{resp}");
    assert!(resp.contains("exceeds"), "{resp}");
    // ... and then the connection is closed (EOF on the next read).
    let mut tail = String::new();
    let n = offender.reader.read_line(&mut tail).expect("EOF read");
    assert_eq!(n, 0, "connection must close after an over-limit line");

    // The process and other connections are untouched; the event is
    // visible in the metrics.
    let mut fresh = Client::connect(addr);
    fresh.ok(r#"{"op":"stats"}"#);
    let net = fresh.ok(r#"{"op":"metrics"}"#).get("net").cloned().unwrap();
    assert_eq!(net.get("over_limit").unwrap().as_usize(), Some(1));

    drop((offender, fresh));
    server.shutdown();
}

#[test]
fn admission_cap_rejects_new_arrivals_with_a_structured_error() {
    let engine = RefreshableEngine::new(snapshot(6), 1, RefreshPolicy::default());
    let cfg = NetConfig {
        max_connections: 1,
        ..NetConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", engine, cfg).unwrap();
    let addr = server.local_addr();

    let mut only = Client::connect(addr);
    only.ok(r#"{"op":"stats"}"#);

    let mut turned_away = Client::connect(addr);
    let line = turned_away.read_line();
    assert!(line.contains("connection capacity"), "{line}");
    let mut tail = String::new();
    assert_eq!(turned_away.reader.read_line(&mut tail).unwrap(), 0);

    // The admitted connection is unaffected, and the slot frees up once
    // it leaves (the handler exits on EOF within a tick).
    only.ok(r#"{"op":"membership","object":"s0"}"#);
    drop(only);
    let mut admitted = None;
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(20));
        let mut c = Client::connect(addr);
        let resp = c.send(r#"{"op":"stats"}"#);
        if resp.contains(r#""ok":true"#) {
            admitted = Some(c);
            break;
        }
    }
    let mut c = admitted.expect("slot never freed after the only client left");
    let net = c.ok(r#"{"op":"metrics"}"#).get("net").cloned().unwrap();
    assert!(net.get("rejected").unwrap().as_usize().unwrap() >= 1);

    drop(c);
    server.shutdown();
}
