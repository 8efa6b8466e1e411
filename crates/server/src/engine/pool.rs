//! The engine's worker pool and its one claim run. Each worker runs its
//! jobs on one [`EvalCtx`] of scratch buffers. In a [`ClaimRun`], the
//! worker that took a request and helper jobs on free workers claim ranges
//! of a phase's items; whoever accounts for the last item folds them.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;
use dependability::mcprog::ClaimCursor;
use upsim_campaign::EvalCtx;

use super::{Engine, EngineError, Shard, WireCallback, WireResponse};
use crate::metrics::Counter;

/// One unit of pool work, run on its worker's scratch buffers.
pub(super) type PoolTask = Box<dyn FnOnce(&mut EvalCtx) + Send>;

pub(super) enum Job {
    /// A request's pool half, or a helper of a claim run. Dropping an
    /// unexecuted Run (shutdown drain) drops the request's callback, which
    /// its waiter reads as `EngineError::Shutdown`; a dropped helper
    /// claimed nothing. The shard tag is accounting only.
    Run {
        shard: Arc<Shard>,
        run: PoolTask,
    },
    Stop,
}

pub(super) fn worker_loop(rx: Receiver<Job>, idle: &AtomicUsize) {
    // The scratch buffers hold no model state, so one context serves
    // every shard and epoch this worker evaluates.
    let mut ctx = EvalCtx::default();
    while let Ok(job) = rx.recv() {
        // `idle` counts this worker while it runs no job, which tells claim
        // runs whether to post or keep a helper (see `spare_workers`).
        idle.fetch_sub(1, Ordering::Relaxed);
        match job {
            Job::Stop => break,
            Job::Run { shard, run } => {
                let started = Instant::now();
                run(&mut ctx);
                idle.fetch_add(1, Ordering::Relaxed);
                // Busy wall time and a job count, per shard.
                let busy = started.elapsed().as_nanos() as u64;
                shard.metrics.add(Counter::WorkerBusyNs, busy);
                shard.metrics.bump(Counter::TasksExecuted);
            }
        }
    }
}

impl Engine {
    /// How many more workers have no job to run than jobs wait in the
    /// queue; below zero, jobs wait for a worker. Both counts move under
    /// other threads, so this is a hint, never a promise.
    fn spare_workers(&self) -> isize {
        self.shared.idle_workers.load(Ordering::Relaxed) as isize - self.job_rx.len() as isize
    }

    /// Enqueues one request's pool half. If the shutdown flag flipped
    /// after the send, the job may sit behind the Stop jobs with every
    /// worker already gone: drain it (and any neighbours) here, which
    /// drops its callback unfired — read as `EngineError::Shutdown`.
    pub(super) fn enqueue(&self, shard: Arc<Shard>, run: PoolTask) {
        if self.job_tx.send(Job::Run { shard, run }).is_err() {
            return;
        }
        if self.shared.shutdown.load(Ordering::SeqCst) {
            self.drain_pending();
        }
    }

    /// Sends one Stop per worker and joins the pool.
    pub(super) fn stop_workers(&self) {
        for _ in 0..self.workers {
            // Ignore send failures: all workers already gone is fine.
            let _ = self.job_tx.send(Job::Stop);
        }
        let handles = std::mem::take(&mut *self.handles.lock().expect("handles poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Drops every job still sitting in the queue, each exactly once, so
    /// it is safe from several threads; a dropped Run drops its callback,
    /// which the waiter reads as `EngineError::Shutdown`. A racing drain
    /// (from `enqueue`'s tail) can also pull out a `Job::Stop` that
    /// `stop_workers` addressed to a worker still blocked in `recv`, and
    /// stealing it would hang that worker and the `shutdown` join, so every
    /// drained Stop is re-sent: a Stop is only queued while its worker is
    /// alive to receive it.
    pub(super) fn drain_pending(&self) {
        let mut stolen_stops = 0usize;
        while let Ok(job) = self.job_rx.try_recv() {
            if let Job::Stop = job {
                stolen_stops += 1;
            }
        }
        for _ in 0..stolen_stops {
            let _ = self.job_tx.send(Job::Stop);
        }
    }
}

/// Called with how many items have ticked so far (a campaign's scenarios).
pub(super) type Tick = Box<dyn FnMut(usize) + Send>;

/// A request's completion callback and progress tick, answered at most
/// once: by whichever claimant of its run gets there first. The answer
/// drops the tick, so no tick follows it.
pub(super) struct Reply(Mutex<Option<(WireCallback, Tick, usize)>>);

impl Reply {
    pub(super) fn new(done: WireCallback, tick: Tick) -> Reply {
        Reply(Mutex::new(Some((done, tick, 0))))
    }

    /// Counts one more item and ticks, under the lock, so ticks count up.
    pub(super) fn tick(&self) {
        if let Some((_, tick, ticked)) = self.0.lock().expect("reply poisoned").as_mut() {
            *ticked += 1;
            tick(*ticked);
        }
    }

    /// Fires the callback, unless an earlier answer already has.
    pub(super) fn answer(&self, result: Result<WireResponse, EngineError>) {
        let answered = self.0.lock().expect("reply poisoned").take();
        if let Some((done, ..)) = answered {
            done(result);
        }
    }
}

/// A verb's phases: what each claimant of its run does.
pub(super) trait Phases: Send + Sync + Sized + 'static {
    /// Claims items of the open phase, and of the phases after it, on the
    /// worker's `ctx`. The `anchor` took the request and never yields.
    fn claim(run: &Arc<ClaimRun<Self>>, ctx: &mut EvalCtx, anchor: bool);
}

/// One request's shared work: its phases, claimed by the worker that
/// took the request and by helper jobs under one stop rule.
pub(super) struct ClaimRun<P> {
    pool: Engine,
    pub(super) shard: Arc<Shard>,
    pub(super) reply: Reply,
    /// Flipped when the requester is gone (`CAMPAIGN` only).
    cancel: Option<Arc<AtomicBool>>,
    /// Whether an item of the open phase failed.
    failed: AtomicBool,
    /// Helpers that yielded their worker, each owed a re-post.
    yielded: AtomicUsize,
    pub(super) phases: P,
}

impl<P: Phases> ClaimRun<P> {
    /// Runs `phases` as the anchor, after opening the first phase.
    pub(super) fn start(
        pool: &Engine,
        shard: &Arc<Shard>,
        reply: Reply,
        cancel: Option<Arc<AtomicBool>>,
        phases: P,
        claims: usize,
        ctx: &mut EvalCtx,
    ) {
        let run = Arc::new(ClaimRun {
            pool: pool.clone(),
            shard: Arc::clone(shard),
            reply,
            cancel,
            failed: AtomicBool::new(false),
            yielded: AtomicUsize::new(0),
            phases,
        });
        run.open(claims);
        P::claim(&run, ctx, true);
    }

    /// The helper policy for a phase of `claims` claims: post helpers, at
    /// most one per other worker, while no job waits for a worker and
    /// every claimant keeps two claims (a one-claim helper costs more to
    /// dispatch than it saves). Only the last one may wait in the queue.
    pub(super) fn open(self: &Arc<Self>, claims: usize) {
        for _ in 1..(claims / 2).min(self.pool.workers) {
            if self.pool.spare_workers() < 0 || !self.post_helper() {
                return;
            }
        }
    }

    /// Posts a helper that joins the open phase; `false` if the queue is
    /// full, which leaves the run to its other claimants.
    fn post_helper(self: &Arc<Self>) -> bool {
        let run = Arc::clone(self);
        let job = Job::Run {
            shard: Arc::clone(&self.shard),
            run: Box::new(move |ctx| P::claim(&run, ctx, false)),
        };
        self.pool.job_tx.send_timeout(job, Duration::ZERO).is_ok()
    }

    /// The stop rule: the next range a claimant takes from `cursor`, or
    /// `None` after shutdown or a cancel (which answer), a failed item or
    /// the last claim. A helper also stops once a job waits for a worker;
    /// the next claim that finds a worker free posts it again. An item
    /// phase hands out one item per claim, an `MC` up to 64 blocks.
    pub(super) fn next_range(
        self: &Arc<Self>,
        cursor: &ClaimCursor,
        anchor: bool,
    ) -> Option<Range<usize>> {
        if self.stopped() || self.failed.load(Ordering::Relaxed) {
            return None;
        }
        if !anchor && self.pool.spare_workers() < 0 {
            self.yielded.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let range = cursor.claim()?;
        let owed = |n: usize| n.checked_sub(1);
        if self.pool.spare_workers() > 0
            && self
                .yielded
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, owed)
                .is_ok()
        {
            self.post_helper();
        }
        Some(range)
    }

    /// Whether the engine is shutting down or the request was cancelled;
    /// the first claimant to see either answers.
    fn stopped(&self) -> bool {
        let err = if self.pool.shared.shutdown.load(Ordering::SeqCst) {
            EngineError::Shutdown
        } else if self.cancel.iter().any(|c| c.load(Ordering::Relaxed)) {
            EngineError::Campaign("campaign cancelled".into())
        } else {
            return false;
        };
        self.reply.answer(Err(err));
        true
    }

    /// Claims items of `phase` through the stop rule and runs `body` on
    /// each. Returns every result, in index order, to the claimant that
    /// accounts for the phase's last item; an item no claimant took after
    /// a failure holds `None`. The cursor hands items out in index order,
    /// so every item before the first failure ran.
    pub(super) fn claim_items<T, E>(
        self: &Arc<Self>,
        phase: &Phase<Result<T, E>>,
        anchor: bool,
        mut body: impl FnMut(usize) -> Result<T, E>,
    ) -> Option<Vec<Option<Result<T, E>>>> {
        while let Some(range) = self.next_range(&phase.cursor, anchor) {
            for ix in range {
                let result = body(ix);
                if result.is_err() {
                    self.failed.store(true, Ordering::Relaxed);
                    // No claimant takes another range, so account for the
                    // rest; not the last item, as this one is still out.
                    while let Some(rest) = phase.cursor.claim() {
                        phase.account(rest, None);
                    }
                }
                if let Some(results) = phase.account(ix..ix + 1, Some(result)) {
                    return Some(results);
                }
            }
        }
        None
    }
}

/// One phase of a claim run: a cursor over its items, their results by
/// index, and how many items are not yet accounted for.
pub(super) struct Phase<T> {
    pub(super) cursor: ClaimCursor,
    slots: Mutex<(Vec<Option<T>>, usize)>,
}

impl<T> Phase<T> {
    pub(super) fn new(len: usize) -> Phase<T> {
        let cursor = ClaimCursor::new(len);
        let slots = Mutex::new(((0..len).map(|_| None).collect(), len));
        Phase { cursor, slots }
    }

    /// Accounts for `items`, storing `result` under the first; returns
    /// every result to the caller that accounts for the last item.
    fn account(&self, items: Range<usize>, result: Option<T>) -> Option<Vec<Option<T>>> {
        let mut slots = self.slots.lock().expect("phase poisoned");
        slots.0[items.start] = result;
        slots.1 -= items.len();
        (slots.1 == 0).then(|| std::mem::take(&mut slots.0))
    }
}
