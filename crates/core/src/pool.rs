//! A persistent scoped worker pool for a fit's per-object passes: the EM
//! step, strength learning and the `g₁` objective.
//!
//! The seed implementation spawned fresh OS threads inside every
//! [`crate::em::EmEngine::step`] call, so a 100-iteration EM run paid thread
//! start-up 100 times. [`WorkerPool`] spawns its workers once (when the
//! engine is built) and hands them borrowed-closure jobs per step through
//! channels; [`WorkerPool::broadcast`] blocks until every job has finished,
//! which is what makes lending non-`'static` closures to the long-lived
//! workers sound.
//!
//! [`WorkerPool::submit`] is the non-barriering counterpart: it hands one
//! `'static` job to a worker and returns a [`JobHandle`] the caller can
//! poll ([`JobHandle::try_join`]) or block on ([`JobHandle::join`]) for the
//! job's return value — the serving layer's background re-fit runs through
//! it. Submitted jobs share the per-worker FIFO queues with broadcast
//! jobs, so a long-running submission delays that worker's share of later
//! broadcasts; callers that need isolation (like the background refresher)
//! dedicate a pool to their submissions.
//!
//! [`DisjointRows`] is the companion write-side primitive: it lets the
//! workers write concurrently into *disjoint* ranges of one flat `f64`
//! buffer (`Θ` rows, per-object statistics, per-chunk partials) without
//! locking, with the disjointness obligation carried by each `unsafe` call
//! site.
//!
//! # Fixed-chunk reductions
//!
//! Every pass that *sums* over objects on the pool — the EM step's `β`
//! statistics, strength learning's pseudo-likelihood derivatives
//! ([`crate::strength`]) and the `g₁` objective ([`crate::objective`]) —
//! splits the objects into [`CHUNK`]-sized chunks. The chunk size is a
//! constant, never derived from the worker count. Workers claim chunks in
//! turn ([`for_each_chunk`]) and write one partial per chunk; the caller
//! adds the partials up in chunk order. A chunk's partial does not depend
//! on which worker computed it, and the order of the final sum does not
//! depend on the worker count, so the result is bit-identical for 1, 2 or
//! N threads. [`ChunkBuffers`] holds the per-chunk partials and per-worker
//! scratch rows of a flat `f64` reduction. Both are sized on the caller
//! before a pass, so workers allocate nothing, and padded so that no two
//! rows share a cache line: with the rows packed, two workers updating
//! neighbouring rows made the pooled strength passes slower than serial
//! ones.

use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A queued unit of work. Completion signalling lives *inside* the box:
/// broadcast jobs report to the pool's shared `done` channel, submitted
/// jobs to their handle's private one — so the two kinds can interleave on
/// the same workers without confusing each other's accounting.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of named worker threads executing broadcast jobs.
pub struct WorkerPool {
    job_txs: Vec<Sender<Job>>,
    /// Kept alive so `done_rx.recv()` in `broadcast` can never observe a
    /// spurious disconnect; cloned into each broadcast job.
    done_tx: Sender<std::thread::Result<()>>,
    done_rx: Receiver<std::thread::Result<()>>,
    handles: Vec<JoinHandle<()>>,
    /// Round-robin cursor for `submit` placement.
    next_submit: Cell<usize>,
    /// Jobs dispatched but not yet finished, across broadcast and submit;
    /// shared with the job boxes so completion decrements from any worker.
    inflight: Arc<AtomicU64>,
}

/// The result channel of one [`WorkerPool::submit`] call.
///
/// Holds the job's return value once the worker finishes it. A panicking
/// job surfaces as `Err(payload)` (the pool worker survives); a job whose
/// pool was torn down before the result was read reports a synthetic
/// `Err` instead of blocking forever.
pub struct JobHandle<T> {
    rx: Receiver<std::thread::Result<T>>,
}

impl<T> JobHandle<T> {
    fn disconnected() -> std::thread::Result<T> {
        Err(Box::new(
            "worker pool shut down before the job's result was read".to_string(),
        ))
    }

    /// Non-blocking completion check: `None` while the job is still queued
    /// or running, `Some(result)` once it finished. After a completion has
    /// been returned once, further calls report the job as gone.
    pub fn try_join(&self) -> Option<std::thread::Result<T>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Self::disconnected()),
        }
    }

    /// Blocks until the job finishes and returns its result.
    pub fn join(self) -> std::thread::Result<T> {
        self.rx.recv().unwrap_or_else(|_| Self::disconnected())
    }
}

impl WorkerPool {
    /// Spawns `n` (≥ 1) workers, alive until the pool is dropped.
    pub fn new(n: usize) -> Self {
        let n = n.max(1);
        let (done_tx, done_rx) = channel::<std::thread::Result<()>>();
        let mut job_txs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for i in 0..n {
            let (tx, rx) = channel::<Job>();
            let handle = std::thread::Builder::new()
                .name(format!("genclus-em-{i}"))
                .spawn(move || {
                    // Each job signals its own completion (and catches its
                    // own panics); the loop ends when the pool drops the
                    // sender, after draining any still-queued jobs.
                    for job in rx {
                        job();
                    }
                })
                .expect("failed to spawn EM worker thread");
            job_txs.push(tx);
            handles.push(handle);
        }
        Self {
            job_txs,
            done_tx,
            done_rx,
            handles,
            next_submit: Cell::new(0),
            inflight: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Number of workers.
    pub fn n_workers(&self) -> usize {
        self.job_txs.len()
    }

    /// Jobs currently dispatched but not yet finished (queued + running),
    /// across `broadcast` and `submit`. An instantaneous observability
    /// gauge — by the time the caller reads it the value may have moved.
    pub fn queue_depth(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Runs `f(0), …, f(n_jobs − 1)`, one call per worker, and blocks until
    /// all of them have completed. `n_jobs` is clamped to the worker count.
    /// If any job panicked, the panic is resumed on the caller's thread —
    /// but only after every job has finished, so borrows held by `f` are
    /// never outlived.
    pub fn broadcast<F>(&self, n_jobs: usize, f: &F)
    where
        F: Fn(usize) + Sync,
    {
        let n = n_jobs.min(self.job_txs.len());
        // Dispatch. A failed send means that worker's thread is gone; its
        // job box is returned inside the error and dropped without ever
        // running, so it owes no completion message — but jobs already
        // handed to *other* workers are running and must be joined before
        // this function may unwind (see the SAFETY argument below).
        let mut dispatched = 0usize;
        for (i, tx) in self.job_txs.iter().take(n).enumerate() {
            let f_ref: &(dyn Fn(usize) + Sync) = f;
            // SAFETY: every job that was actually sent is joined via the
            // completion loop below before this function returns or
            // unwinds, so the transmuted borrow never outlives the real
            // one.
            let f_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f_ref) };
            let done = self.done_tx.clone();
            let inflight = Arc::clone(&self.inflight);
            let job: Job = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(|| f_static(i)));
                inflight.fetch_sub(1, Ordering::Relaxed);
                let _ = done.send(result);
            });
            self.inflight.fetch_add(1, Ordering::Relaxed);
            if tx.send(job).is_err() {
                // The box never ran (it came back in the error and is
                // dropped here), so it owes no decrement.
                self.inflight.fetch_sub(1, Ordering::Relaxed);
                break;
            }
            dispatched += 1;
        }
        let mut panic = None;
        for _ in 0..dispatched {
            // Cannot disconnect: the pool itself holds `done_tx`, and every
            // dispatched job box sends exactly one message (its clone of
            // the sender is dropped only after the send, or with the box
            // when the worker drains a closed queue — which cannot happen
            // while this `&self` borrow pins the pool alive).
            match self
                .done_rx
                .recv()
                .expect("pool holds a live completion sender")
            {
                Ok(()) => {}
                Err(payload) => panic = Some(payload),
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        assert_eq!(
            dispatched, n,
            "EM worker thread disappeared before job dispatch"
        );
    }

    /// Queues `f` on one worker (round-robin) and returns a [`JobHandle`]
    /// for its result — no barrier, the caller keeps running while the job
    /// does. Panics inside `f` are caught and surface as the handle's
    /// `Err`; the worker thread survives to take further jobs.
    ///
    /// The job shares its worker's FIFO queue with `broadcast` work: a
    /// long-running submission delays that worker's share of later
    /// broadcasts (and pool teardown waits for it). Dedicate a pool to
    /// long submissions — the serving layer's background refresher owns a
    /// one-worker pool for exactly this reason.
    pub fn submit<T, F>(&self, f: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (tx, rx) = channel::<std::thread::Result<T>>();
        let inflight = Arc::clone(&self.inflight);
        let mut job: Job = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            inflight.fetch_sub(1, Ordering::Relaxed);
            let _ = tx.send(result);
        });
        let k = self.job_txs.len();
        let start = self.next_submit.get();
        self.next_submit.set((start + 1) % k);
        self.inflight.fetch_add(1, Ordering::Relaxed);
        for offset in 0..k {
            match self.job_txs[(start + offset) % k].send(job) {
                Ok(()) => return JobHandle { rx },
                // That worker is gone; the unrun box comes back in the
                // error — try the next one.
                Err(failed) => job = failed.0,
            }
        }
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        panic!("every worker thread disappeared before job dispatch");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the job channels ends each worker's receive loop.
        self.job_txs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Objects per chunk of a fixed-chunk reduction (module doc). 2048 rows
/// of `Θ` at `K = 4` are 64 KiB, and 100k objects make 49 chunks, enough
/// for the workers to balance their load.
pub(crate) const CHUNK: usize = 2048;

/// Number of [`CHUNK`]-sized chunks covering `n` items.
pub(crate) fn n_chunks(n: usize) -> usize {
    n.div_ceil(CHUNK)
}

/// The items of chunk `c` of `n` items.
pub(crate) fn chunk_range(c: usize, n: usize) -> Range<usize> {
    c * CHUNK..((c + 1) * CHUNK).min(n)
}

/// Scratch slots a pass on `pool` needs: one per worker, or one when the
/// pass runs serially.
pub(crate) fn n_slots(pool: Option<&WorkerPool>) -> usize {
    pool.map_or(1, WorkerPool::n_workers)
}

/// Runs `f(slot, c)` once for every chunk `c` in `0..n_chunks` and returns
/// when all have finished. On `pool`, each worker claims chunks in turn and
/// passes its own index as `slot` (below [`n_slots`]); with no pool, the
/// chunks run in order on the caller with `slot = 0`. No two running calls
/// share a chunk or a slot.
///
/// Claims alternate between the front and the back of the chunk range
/// (`0, n−1, 1, n−2, …`), so two workers run chunks far apart rather than
/// neighbours. On `dblp-100k`, whose objects of one type are stored
/// together, that made the EM step ~20% faster than claiming in order
/// (in-process A/B on a 2-vCPU host); `weather-100k` and the strength
/// and `g₁` passes did not move.
pub(crate) fn for_each_chunk(
    pool: Option<&WorkerPool>,
    n_chunks: usize,
    f: &(dyn Fn(usize, usize) + Sync),
) {
    match pool {
        Some(pool) if n_chunks > 1 => {
            // The counter only hands out claim numbers (`Relaxed`
            // suffices); what the chunks write reaches the caller through
            // `broadcast`'s completion channel.
            let next = AtomicUsize::new(0);
            pool.broadcast(pool.n_workers().min(n_chunks), &|slot| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_chunks {
                    break;
                }
                let c = if i.is_multiple_of(2) {
                    i / 2
                } else {
                    n_chunks - 1 - i / 2
                };
                f(slot, c);
            });
        }
        _ => (0..n_chunks).for_each(|c| f(0, c)),
    }
}

/// Caller-owned buffers of a flat fixed-chunk reduction: one partial row
/// per chunk and one scratch row per worker slot. They are reused from one
/// pass to the next and resized only on the caller.
#[derive(Debug, Default)]
pub(crate) struct ChunkBuffers {
    partials: Vec<f64>,
    scratch: Vec<f64>,
}

impl ChunkBuffers {
    /// Sums `f` over the chunks of `0..n_items` into `out`.
    ///
    /// `f(items, partial, scratch)` adds the contribution of `items` to
    /// `partial` (zeroed, `out.len()` wide); `scratch` is the calling
    /// worker's row of `scratch_width` values, left as the last chunk on
    /// that slot wrote it. The partials are added into `out` (zeroed first)
    /// in chunk order, so `out` is the same for every pool size.
    pub(crate) fn sum<F>(
        &mut self,
        pool: Option<&WorkerPool>,
        n_items: usize,
        scratch_width: usize,
        out: &mut [f64],
        f: &F,
    ) where
        F: Fn(Range<usize>, &mut [f64], &mut [f64]) + Sync,
    {
        let width = out.len();
        let chunks = n_chunks(n_items);
        // Rows are padded so that no two of them share a cache line: the
        // workers update their rows object by object, and a line shared by
        // two workers would bounce between their cores on every update.
        let (stride, scratch_stride) = (padded(width), padded(scratch_width));
        self.partials.resize(chunks * stride, 0.0);
        self.scratch.resize(n_slots(pool) * scratch_stride, 0.0);
        {
            let partials = DisjointRows::new(&mut self.partials);
            let scratch = DisjointRows::new(&mut self.scratch);
            for_each_chunk(pool, chunks, &|slot, c| {
                // SAFETY: `for_each_chunk` runs each chunk once and never
                // lets two running calls share a slot, so the partial row of
                // chunk `c` and the scratch row of `slot` are each held by
                // one call at a time.
                let (partial, scratch) = unsafe {
                    (
                        partials.slice_mut(c * stride, c * stride + width),
                        scratch.slice_mut(
                            slot * scratch_stride,
                            slot * scratch_stride + scratch_width,
                        ),
                    )
                };
                partial.fill(0.0);
                f(chunk_range(c, n_items), partial, scratch);
            });
        }
        out.fill(0.0);
        for partial in self.partials.chunks_exact(stride) {
            for (o, p) in out.iter_mut().zip(partial) {
                *o += p;
            }
        }
    }
}

/// `width` rounded up to whole 64-byte lines, plus one line: rows this far
/// apart never share a cache line, wherever the buffer starts.
fn padded(width: usize) -> usize {
    width.div_ceil(8) * 8 + 8
}

/// `len` zeros in a buffer with at least one cache line of spare capacity
/// after them, so the used part shares no cache line with any other
/// allocation's used part. For per-chunk and per-worker rows that
/// different workers update at once: allocated back to back without the
/// slack, neighbouring rows share lines, and the lines bounce between the
/// workers' cores on every update.
pub(crate) fn padded_zeros(len: usize) -> Vec<f64> {
    let mut v = Vec::with_capacity(padded(len));
    v.resize(len, 0.0);
    v
}

/// A shareable writer over one flat `f64` buffer that hands out mutable
/// sub-slices to concurrent workers.
///
/// Safety contract: the ranges requested through [`Self::slice_mut`] while
/// other slices are live must be pairwise disjoint. Every caller satisfies
/// it through [`for_each_chunk`], which runs each chunk once: the EM engine
/// and the strength statistics' refill hand chunk `c` only its own objects'
/// rows, and [`ChunkBuffers`] only chunk `c`'s partial and the running
/// worker's scratch row.
pub struct DisjointRows<'a> {
    ptr: *mut f64,
    len: usize,
    _marker: PhantomData<&'a mut [f64]>,
}

// SAFETY: access is restricted to disjoint ranges by the `slice_mut`
// contract, so concurrent use from multiple threads cannot alias.
unsafe impl Sync for DisjointRows<'_> {}
// SAFETY: the wrapper owns no thread-affine state — it is a raw pointer
// plus a length borrowed from the caller's slice, and the disjointness
// contract above covers writes from whichever thread holds a range.
unsafe impl Send for DisjointRows<'_> {}

impl<'a> DisjointRows<'a> {
    /// Wraps `buffer` for disjoint concurrent writes.
    pub fn new(buffer: &'a mut [f64]) -> Self {
        Self {
            ptr: buffer.as_mut_ptr(),
            len: buffer.len(),
            _marker: PhantomData,
        }
    }

    /// Total buffer length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sub-slice `[start, end)`.
    ///
    /// # Safety
    /// No other live slice obtained from this writer may overlap
    /// `[start, end)`.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, start: usize, end: usize) -> &mut [f64] {
        debug_assert!(start <= end && end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), end - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn broadcast_runs_every_index_and_can_repeat() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.n_workers(), 4);
        let hits = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.broadcast(4, &|i| {
                assert!(i < 4);
                hits.fetch_add(i + 1, Ordering::Relaxed);
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 50 * (1 + 2 + 3 + 4));
    }

    #[test]
    fn broadcast_clamps_to_worker_count() {
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        pool.broadcast(10, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn borrowed_state_is_visible_after_broadcast() {
        let pool = WorkerPool::new(3);
        let mut data = vec![0.0f64; 3 * 5];
        {
            let rows = DisjointRows::new(&mut data);
            pool.broadcast(3, &|i| {
                // SAFETY: each worker writes its own 5-element chunk.
                let chunk = unsafe { rows.slice_mut(i * 5, (i + 1) * 5) };
                for (j, x) in chunk.iter_mut().enumerate() {
                    *x = (i * 5 + j) as f64;
                }
            });
        }
        let expected: Vec<f64> = (0..15).map(|x| x as f64).collect();
        assert_eq!(data, expected);
    }

    #[test]
    fn for_each_chunk_runs_every_chunk_once() {
        for n_chunks in [0, 1, 2, 5, 48, 49] {
            for pool in [None, Some(WorkerPool::new(2)), Some(WorkerPool::new(3))] {
                let hits: Vec<AtomicUsize> = (0..n_chunks).map(|_| AtomicUsize::new(0)).collect();
                let slots = n_slots(pool.as_ref());
                for_each_chunk(pool.as_ref(), n_chunks, &|slot, c| {
                    assert!(slot < slots);
                    hits[c].fetch_add(1, Ordering::Relaxed);
                });
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            }
        }
    }

    #[test]
    fn chunk_sums_are_identical_for_every_pool_size() {
        // Terms of mixed magnitude, so that summation order shows in the
        // last bits.
        let n = 5 * CHUNK + 3;
        let term = |i: usize| (i as f64 * 0.37).sin() * 10f64.powi((i % 7) as i32 - 3);
        let sum_on = |pool: Option<&WorkerPool>| {
            let mut out = [0.0; 2];
            ChunkBuffers::default().sum(pool, n, 1, &mut out, &|items, partial, scratch| {
                for i in items {
                    scratch[0] = term(i);
                    partial[0] += scratch[0];
                    partial[1] += 1.0;
                }
            });
            out
        };
        let serial = sum_on(None);
        assert_eq!(serial[1], n as f64);
        for threads in [2, 3] {
            let pooled = sum_on(Some(&WorkerPool::new(threads)));
            assert_eq!(pooled[0].to_bits(), serial[0].to_bits());
            assert_eq!(pooled[1], serial[1]);
        }
    }

    #[test]
    fn submit_returns_the_job_result() {
        let pool = WorkerPool::new(2);
        let handle = pool.submit(|| 6 * 7);
        assert_eq!(handle.join().expect("job succeeds"), 42);
    }

    #[test]
    fn queue_depth_tracks_inflight_jobs() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.queue_depth(), 0);
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let blocker = pool.submit(move || {
            let _ = started_tx.send(());
            let _ = release_rx.recv();
        });
        started_rx.recv().unwrap();
        let queued = pool.submit(|| ());
        // One job running, one queued behind it on the same worker.
        assert_eq!(pool.queue_depth(), 2);
        release_tx.send(()).unwrap();
        blocker.join().unwrap();
        queued.join().unwrap();
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn try_join_polls_without_blocking() {
        let pool = WorkerPool::new(1);
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let handle = pool.submit(move || {
            gate_rx.recv().expect("gate stays open");
            "done"
        });
        // Still running (blocked on the gate): try_join must not block.
        assert!(handle.try_join().is_none());
        gate_tx.send(()).unwrap();
        let result = loop {
            if let Some(r) = handle.try_join() {
                break r;
            }
            std::thread::yield_now();
        };
        assert_eq!(result.expect("job succeeds"), "done");
    }

    #[test]
    fn submitted_panic_surfaces_in_the_handle_and_spares_the_pool() {
        let pool = WorkerPool::new(1);
        let handle = pool.submit(|| -> usize { panic!("refit exploded") });
        let err = handle.join().expect_err("panic must surface");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-string payload>");
        assert_eq!(msg, "refit exploded");
        // The worker survives for both submit and broadcast work.
        assert_eq!(pool.submit(|| 7).join().expect("pool alive"), 7);
        let hits = AtomicUsize::new(0);
        pool.broadcast(1, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn submissions_and_broadcasts_interleave_on_the_same_pool() {
        let pool = WorkerPool::new(3);
        let handles: Vec<_> = (0..6).map(|i| pool.submit(move || i * i)).collect();
        let hits = AtomicUsize::new(0);
        for _ in 0..20 {
            pool.broadcast(3, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 60);
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().expect("job succeeds"), i * i);
        }
    }

    #[test]
    fn worker_panic_propagates_to_the_caller() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(2, &|i| {
                if i == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool survives a panicked job.
        let hits = AtomicUsize::new(0);
        pool.broadcast(2, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }
}
