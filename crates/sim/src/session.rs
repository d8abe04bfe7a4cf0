//! Streaming grid sessions: the execution layer under every grid wave.
//!
//! [`crate::runner::run_grid`] used to be one blocking fan-out: callers got
//! nothing until every cell finished, could not cancel, and could not
//! observe progress. A [`GridSession`] replaces those internals with a
//! long-lived object: cells are claimed one at a time from a shared queue
//! by a bounded worker pool, and completed `(cell index, result)` pairs
//! stream back over [`GridSession::recv`] *as they finish*. A
//! [`CancelToken`] stops the session from issuing new cells (in-flight
//! cells complete and are still delivered), and [`GridSession::progress`]
//! exposes live counters.
//!
//! Determinism is unchanged: every cell derives its RNG state from
//! `(config, cell)` alone — never from worker identity, claim order, or
//! delivery order — so the collected results are bit-identical to serial
//! execution (the engine-equivalence and golden-port suites pin this
//! through the session-backed `run_grid`).
//!
//! Two driving modes share one claim/run/deliver path:
//!
//! * [`GridSession::spawn`] starts its own bounded pool of worker threads
//!   (what `run_grid` uses);
//! * [`GridSession::queued`] spawns nothing — external threads drive the
//!   session via [`GridSession::try_claim`] + [`GridSession::run_claimed`]
//!   (or [`GridSession::drive`]). This is the hook the `cdcs-serve`
//!   experiment daemon uses to interleave cells from many concurrent jobs
//!   fairly across one shared machine-wide pool.

use crate::runner::{run_cell, GridCell};
use crate::{SimConfig, SimResult};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// A hook run on the worker thread just before each claimed cell, inside
/// the same panic boundary as the cell body: a panicking hook fails *that
/// cell* (its `Err` carries the payload message), never the worker. This
/// is the seam the `cdcs-serve` fault-injection harness uses to inject
/// deterministic cell panics and slowdowns without touching the engine.
pub type CellHook = Arc<dyn Fn(usize) + Send + Sync>;

/// Optional session behaviors beyond the plain claim/run/deliver loop.
#[derive(Default, Clone)]
pub struct SessionOptions {
    /// Wall-clock deadline: once it passes, no new cells are issued (the
    /// session behaves as cancelled) and
    /// [`GridSession::deadline_exceeded`] reports `true`. In-flight cells
    /// still complete and deliver.
    pub deadline: Option<Instant>,
    /// Pre-cell hook (see [`CellHook`]).
    pub cell_hook: Option<CellHook>,
}

impl std::fmt::Debug for SessionOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionOptions")
            .field("deadline", &self.deadline)
            .field("cell_hook", &self.cell_hook.is_some())
            .finish()
    }
}

/// Applies the nested-clamp rule for a session executed by `pool_workers`
/// concurrent workers: when the config asks for intra-cell workers too,
/// the inner worker count is clamped so `pool × inner` never exceeds the
/// machine. Cell-level parallelism (the better-scaling axis) keeps
/// priority; a 1-worker pool keeps its full intra-cell fan-out. The clamp
/// cannot change any result — the pipeline is bit-identical for every
/// worker count.
pub fn clamp_intra_cell(config: &SimConfig, pool_workers: usize) -> SimConfig {
    let machine = rayon::current_num_threads();
    let mut cfg = config.clone();
    if cfg.intra_cell_threads > 1 {
        cfg.intra_cell_threads = cfg
            .intra_cell_threads
            .min((machine / pool_workers.max(1)).max(1));
    }
    cfg
}

/// One completed cell, streamed in completion order.
#[derive(Debug)]
pub struct CellDone {
    /// Index of the cell in the submitted list.
    pub index: usize,
    /// The cell's result (construction errors surface per cell).
    pub result: Result<SimResult, String>,
}

/// Live session counters (a consistent snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionProgress {
    /// Cells submitted to the session.
    pub total: usize,
    /// Cells claimed by workers so far (running or finished).
    pub issued: usize,
    /// Cells finished (delivered or waiting in the stream queue).
    pub completed: usize,
    /// Whether the session has been cancelled.
    pub cancelled: bool,
}

impl SessionProgress {
    /// True once no further results will ever be produced: every claimed
    /// cell has completed and no new cells can be issued.
    pub fn finished(&self) -> bool {
        self.completed == self.issued && (self.cancelled || self.issued == self.total)
    }
}

/// Cancels a [`GridSession`]: no new cells are issued after
/// [`CancelToken::cancel`]; in-flight cells complete and are delivered.
/// Cheap to clone and safe to trigger from any thread (the `cdcs-serve`
/// daemon cancels jobs from HTTP handler threads).
#[derive(Debug, Clone)]
pub struct CancelToken {
    shared: Arc<SessionShared>,
}

impl CancelToken {
    /// Stops the session from issuing new cells.
    pub fn cancel(&self) {
        self.shared.cancelled.store(true, Ordering::SeqCst);
        // Wake any blocked `recv`: with nothing in flight the session is
        // now finished and the stream must return `None`.
        let _guard = self.shared.lock();
        self.shared.cv.notify_all();
    }

    /// Whether the session has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.shared.cancelled.load(Ordering::SeqCst)
    }
}

/// Mutable session state, guarded by one mutex (claims are per *cell*, so
/// the lock is touched a handful of times per simulation — never per
/// access).
#[derive(Debug, Default)]
struct SessionState {
    /// Next unissued cell index.
    next: usize,
    /// Cells claimed so far.
    issued: usize,
    /// Cells finished so far.
    completed: usize,
    /// Finished cells not yet taken by `recv`.
    stream: VecDeque<CellDone>,
    /// Cells returned by [`GridSession::requeue`] (a revoked fleet
    /// lease); claimed again before any fresh index is issued.
    requeued: VecDeque<usize>,
}

struct SessionShared {
    /// Pool-clamped configuration every cell runs under.
    config: SimConfig,
    /// The submitted cells (immutable once the session exists).
    cells: Vec<GridCell>,
    /// Cancellation flag (outside the lock so checks are free).
    cancelled: AtomicBool,
    /// Set the first time a claim observes the deadline has passed.
    deadline_hit: AtomicBool,
    options: SessionOptions,
    state: Mutex<SessionState>,
    cv: Condvar,
}

impl std::fmt::Debug for SessionShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionShared")
            .field("cells", &self.cells.len())
            .field("cancelled", &self.cancelled.load(Ordering::SeqCst))
            .field("deadline_hit", &self.deadline_hit.load(Ordering::SeqCst))
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

impl SessionShared {
    // A poisoned session mutex means some holder panicked mid-update; the
    // state it guards (counters + stream queue) is only ever mutated in
    // panic-free straight-line code, so recovering the guard is safe —
    // and a cancel/status path that panicked on poison would turn one bad
    // cell into a wedged daemon.
    fn lock(&self) -> MutexGuard<'_, SessionState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims the next cell, or `None` when the session is cancelled,
    /// past its deadline, or drained. Each index is handed out exactly
    /// once.
    fn try_claim(&self) -> Option<usize> {
        if self.cancelled.load(Ordering::SeqCst) {
            return None;
        }
        if let Some(deadline) = self.options.deadline {
            // lint: allow(determinism) — deadline enforcement reads the wall
            // clock to *stop* issuing cells; completed cells' SimResults are
            // untouched, so no golden byte depends on this read.
            if Instant::now() >= deadline {
                self.deadline_hit.store(true, Ordering::SeqCst);
                self.cancelled.store(true, Ordering::SeqCst);
                let _guard = self.lock();
                self.cv.notify_all();
                return None;
            }
        }
        let mut state = self.lock();
        if self.cancelled.load(Ordering::SeqCst) {
            return None;
        }
        // Revoked-lease cells outrank fresh indices: re-running them first
        // keeps the issued window tight so `finished()` flips as soon as
        // the stragglers land.
        if let Some(i) = state.requeued.pop_front() {
            state.issued += 1;
            return Some(i);
        }
        if state.next >= self.cells.len() {
            return None;
        }
        let i = state.next;
        state.next += 1;
        state.issued += 1;
        Some(i)
    }

    /// Returns a claimed-but-unfinished cell to the queue (a fleet lease
    /// was revoked before its result arrived). The index becomes claimable
    /// again and `issued` is rolled back so progress accounting stays
    /// exact. Callers must only requeue indices they claimed and have not
    /// delivered — double-delivery would corrupt the counters.
    fn requeue(&self, index: usize) {
        let mut state = self.lock();
        state.issued = state.issued.saturating_sub(1);
        state.requeued.push_back(index);
        self.cv.notify_all();
    }

    /// Delivers an externally-computed result for a claimed cell (a fleet
    /// runner executed it remotely). Counter-wise this is the tail of
    /// [`Self::run_claimed`] without the local execution.
    fn deliver(&self, index: usize, result: Result<SimResult, String>) {
        let mut state = self.lock();
        state.completed += 1;
        state.stream.push_back(CellDone { index, result });
        self.cv.notify_all();
    }

    /// Runs a claimed cell on the calling thread and delivers its result to
    /// the stream.
    ///
    /// A panicking cell is caught and delivered as that cell's `Err`
    /// instead of killing the worker: an uncaught unwind after `issued`
    /// was bumped would leave `completed` behind forever and deadlock
    /// every `recv`/`join` (and silently shrink the daemon's shared
    /// pool). The session keeps streaming; the failure surfaces exactly
    /// like a construction error.
    fn run_claimed(&self, index: usize) {
        let result = catch_cell_panic(index, || {
            if let Some(hook) = &self.options.cell_hook {
                hook(index);
            }
            run_cell(&self.config, &self.cells[index])
        });
        self.deliver(index, result);
    }

    fn progress_locked(&self, state: &SessionState) -> SessionProgress {
        SessionProgress {
            total: self.cells.len(),
            issued: state.issued,
            completed: state.completed,
            cancelled: self.cancelled.load(Ordering::SeqCst),
        }
    }
}

/// Runs one cell body, converting an unwind into that cell's `Err`. The
/// payload message is preserved (`&str` and `String` panics; anything
/// else is labelled as such).
fn catch_cell_panic(
    index: usize,
    run: impl FnOnce() -> Result<SimResult, String>,
) -> Result<SimResult, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(format!("cell {index} panicked: {msg}"))
    })
}

/// A streaming execution session over one grid of cells.
///
/// See the module docs for the two driving modes. Dropping a session
/// cancels it and joins its worker threads (in-flight cells finish first).
#[derive(Debug)]
pub struct GridSession {
    shared: Arc<SessionShared>,
    workers: Vec<JoinHandle<()>>,
}

impl GridSession {
    /// Creates a session and starts a bounded pool of `workers` threads
    /// executing its cells. `config` is pool-clamped via
    /// [`clamp_intra_cell`]; at most one thread per cell is started.
    pub fn spawn(config: &SimConfig, cells: Vec<GridCell>, workers: usize) -> Self {
        let mut session = GridSession::queued(&clamp_intra_cell(config, workers), cells);
        let count = workers.min(session.shared.cells.len());
        session.workers = (0..count)
            .map(|_| {
                let shared = Arc::clone(&session.shared);
                std::thread::spawn(move || {
                    while let Some(i) = shared.try_claim() {
                        shared.run_claimed(i);
                    }
                })
            })
            .collect();
        session
    }

    /// Creates a session with **no** worker threads: external threads drive
    /// it through [`Self::try_claim`] + [`Self::run_claimed`] or
    /// [`Self::drive`]. `config` is used verbatim — callers driving the
    /// session from a wide shared pool apply [`clamp_intra_cell`]
    /// themselves (the `cdcs-serve` scheduler does).
    pub fn queued(config: &SimConfig, cells: Vec<GridCell>) -> Self {
        GridSession::queued_with(config, cells, SessionOptions::default())
    }

    /// [`Self::queued`] with extra behaviors: a wall-clock deadline and/or
    /// a pre-cell hook (the `cdcs-serve` daemon's deadline enforcement and
    /// fault-injection seams).
    pub fn queued_with(config: &SimConfig, cells: Vec<GridCell>, options: SessionOptions) -> Self {
        GridSession {
            shared: Arc::new(SessionShared {
                config: config.clone(),
                cells,
                cancelled: AtomicBool::new(false),
                deadline_hit: AtomicBool::new(false),
                options,
                state: Mutex::new(SessionState::default()),
                cv: Condvar::new(),
            }),
            workers: Vec::new(),
        }
    }

    /// Whether a claim has observed the session's deadline passing (the
    /// session then behaves as cancelled; callers use this to distinguish
    /// `deadline_exceeded` from a user cancel).
    pub fn deadline_exceeded(&self) -> bool {
        self.shared.deadline_hit.load(Ordering::SeqCst)
    }

    /// The cells this session runs.
    pub fn cells(&self) -> &[GridCell] {
        &self.shared.cells
    }

    /// Claims the next cell for the calling thread, or `None` when the
    /// session is cancelled or all cells are issued. Pair every claim with
    /// [`Self::run_claimed`].
    pub fn try_claim(&self) -> Option<usize> {
        self.shared.try_claim()
    }

    /// Runs a claimed cell on the calling thread and delivers its result.
    pub fn run_claimed(&self, index: usize) {
        self.shared.run_claimed(index);
    }

    /// Returns a claimed cell to the queue without a result — the fleet
    /// revocation path: a remote lease missed its heartbeat window, so the
    /// cell must be claimable again (requeued indices are re-issued before
    /// any fresh index). Only call with an index obtained from
    /// [`Self::try_claim`] that has not been delivered.
    pub fn requeue(&self, index: usize) {
        self.shared.requeue(index);
    }

    /// Delivers an externally-computed result for a claimed cell — the
    /// fleet result path: a remote runner executed `(config, cell)` and
    /// shipped the `SimResult` back. Determinism makes this
    /// indistinguishable from running the cell locally. Only call once per
    /// claimed index.
    pub fn deliver(&self, index: usize, result: Result<SimResult, String>) {
        self.shared.deliver(index, result);
    }

    /// The (pool-clamped) configuration every cell runs under — what a
    /// fleet lease ships to a remote runner alongside the cell.
    pub fn config(&self) -> &SimConfig {
        &self.shared.config
    }

    /// Drives the session on the calling thread until no cells remain
    /// (cells run in index order when this is the only driver — the serial
    /// reference path).
    pub fn drive(&self) {
        while let Some(i) = self.try_claim() {
            self.run_claimed(i);
        }
    }

    /// A cancellation handle for this session.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A consistent snapshot of the live counters.
    pub fn progress(&self) -> SessionProgress {
        let state = self.shared.lock();
        self.shared.progress_locked(&state)
    }

    /// Blocks until the next cell finishes and returns it, in completion
    /// order; `None` once every result has been delivered and no more will
    /// come (all cells done, or cancelled with in-flight cells drained).
    ///
    /// Externally-driven sessions ([`Self::queued`]) only make progress
    /// while some thread drives them — a lone `recv` with no driver blocks.
    pub fn recv(&self) -> Option<CellDone> {
        let mut state = self.shared.lock();
        loop {
            if let Some(done) = state.stream.pop_front() {
                return Some(done);
            }
            if self.shared.progress_locked(&state).finished() {
                return None;
            }
            state = self
                .shared
                .cv
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Drains the stream to completion and joins the worker pool. Returns
    /// one slot per cell in *index* order; `None` slots are cells the
    /// session never issued (only possible after cancellation).
    pub fn join(mut self) -> Vec<Option<Result<SimResult, String>>> {
        let mut slots: Vec<Option<Result<SimResult, String>>> =
            (0..self.shared.cells.len()).map(|_| None).collect();
        while let Some(done) = self.recv() {
            slots[done.index] = Some(done.result);
        }
        // Workers convert every cell unwind into that cell's `Err`, so a
        // join failure would mean a panic outside the catch boundary —
        // the results are already drained, so report nothing rather than
        // propagate.
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        slots
    }
}

impl Drop for GridSession {
    fn drop(&mut self) {
        // Stop issuing new cells and wait for in-flight ones, so dropping a
        // half-consumed session never leaks running simulations. Never
        // panic in Drop (a double panic aborts the process).
        self.shared.cancelled.store(true, Ordering::SeqCst);
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::catch_cell_panic;

    // A panicking cell must become that cell's `Err`, never an unwound
    // worker: an unwind after `issued` was bumped but before `completed`
    // would deadlock every `recv`/`join` and silently shrink the daemon's
    // pool. (Valid configs cannot currently panic mid-run — `validate`
    // rejects the known traps — so the conversion is pinned here at the
    // mechanism level.)
    #[test]
    fn panics_become_cell_errors_with_their_message() {
        let err = catch_cell_panic(7, || panic!("boom {}", 41 + 1)).expect_err("panic is Err");
        assert_eq!(err, "cell 7 panicked: boom 42");
        let err = catch_cell_panic(3, || panic!("static")).expect_err("panic is Err");
        assert_eq!(err, "cell 3 panicked: static");
    }

    #[test]
    fn non_panicking_results_pass_through_unchanged() {
        let err = catch_cell_panic(0, || Err("plain error".into())).expect_err("Err passes");
        assert_eq!(err, "plain error");
    }
}
