//! A closed-loop JSON-lines client over loopback TCP, and the checks the
//! benchmark applies to what comes back.

use genclus_core::Similarity;
use genclus_serve::Json;
use genclus_stats::MembershipMatrix;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
    line: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            stream,
            reader,
            out: Vec::new(),
            line: String::new(),
        })
    }

    /// Sends one request line and waits for its response line; returns the
    /// response and the client-observed latency in seconds.
    pub fn call(&mut self, req: &str) -> std::io::Result<(&str, f64)> {
        self.out.clear();
        self.out.extend_from_slice(req.as_bytes());
        self.out.push(b'\n');
        self.line.clear();
        let t = Instant::now();
        self.stream.write_all(&self.out)?;
        let n = self.reader.read_line(&mut self.line)?;
        let lat = t.elapsed().as_secs_f64();
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok((self.line.trim_end(), lat))
    }
}

/// Whether a response line is an `"ok":true` envelope (requests carry no
/// `id`, so `ok` is the first key).
pub fn is_ok(resp: &str) -> bool {
    resp.starts_with("{\"ok\":true")
}

/// Whether `row` is a point of the probability simplex.
pub fn on_simplex(row: &[f64]) -> bool {
    row.iter().all(|&x| x.is_finite() && x >= 0.0) && (row.iter().sum::<f64>() - 1.0).abs() <= 1e-9
}

/// The numbers of a JSON array field, if present and all numeric.
pub fn nums(resp: &Json, key: &str) -> Option<Vec<f64>> {
    resp.get(key)?.as_arr()?.iter().map(Json::as_f64).collect()
}

/// Checks a `membership` response against the snapshot row, bit for bit.
pub fn check_membership(resp: &str, row: &[f64]) -> Result<(), String> {
    let j = Json::parse(resp).map_err(|e| format!("membership: bad JSON {e}"))?;
    let theta = nums(&j, "theta").ok_or("membership: no theta")?;
    let same = theta.len() == row.len()
        && theta
            .iter()
            .zip(row)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !same {
        return Err(format!(
            "membership row {theta:?} differs from snapshot {row:?}"
        ));
    }
    if !on_simplex(&theta) {
        return Err(format!("membership row {theta:?} is off the simplex"));
    }
    Ok(())
}

/// Checks a `fold_in` (or commit) response: a row on the simplex. Returns
/// the row and the fold-in iteration count.
pub fn check_fold_in(resp: &str) -> Result<(Vec<f64>, f64), String> {
    let j = Json::parse(resp).map_err(|e| format!("fold_in: bad JSON {e}"))?;
    let theta = nums(&j, "theta").ok_or("fold_in: no theta")?;
    if !on_simplex(&theta) {
        return Err(format!("fold_in row {theta:?} is off the simplex"));
    }
    let iters = j
        .get("iterations")
        .and_then(Json::as_f64)
        .ok_or("fold_in: no iterations")?;
    Ok((theta, iters))
}

/// Brute-force cosine top-k, ranked the way `genclus_core::top_k` ranks:
/// descending score, NaN last, ties by ascending id.
pub fn brute_top_k(
    theta: &MembershipMatrix,
    query: usize,
    candidates: &[usize],
    k: usize,
) -> Vec<(usize, f64)> {
    let q = theta.row(query);
    let mut scored: Vec<(usize, f64)> = candidates
        .iter()
        .filter(|&&c| c != query)
        .map(|&c| (c, Similarity::Cosine.score(q, theta.row(c))))
        .collect();
    let order = |a: &(usize, f64), b: &(usize, f64)| match b.1.partial_cmp(&a.1) {
        Some(o) => o.then(a.0.cmp(&b.0)),
        None => a.1.is_nan().cmp(&b.1.is_nan()).then(a.0.cmp(&b.0)),
    };
    if k < scored.len() {
        scored.select_nth_unstable_by(k, order);
        scored.truncate(k);
    }
    scored.sort_by(order);
    scored
}

/// Checks a `top_k` response against the brute-force ranking; `name_of`
/// maps an object id to its name.
pub fn check_top_k(
    resp: &str,
    expected: &[(usize, f64)],
    name_of: impl Fn(usize) -> String,
) -> Result<(), String> {
    let j = Json::parse(resp).map_err(|e| format!("top_k: bad JSON {e}"))?;
    let results = j
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("top_k: no results")?;
    if results.len() != expected.len() {
        return Err(format!(
            "top_k returned {} results, brute force {}",
            results.len(),
            expected.len()
        ));
    }
    for (got, &(id, score)) in results.iter().zip(expected) {
        let pair = got.as_arr().unwrap_or(&[]);
        let name = pair.first().and_then(Json::as_str).unwrap_or("");
        let s = pair.get(1).and_then(Json::as_f64).unwrap_or(f64::NAN);
        if name != name_of(id) || s.to_bits() != score.to_bits() {
            return Err(format!(
                "top_k entry {name}:{s} differs from brute force {}:{score}",
                name_of(id)
            ));
        }
    }
    Ok(())
}
