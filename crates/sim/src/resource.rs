//! Single-server FIFO resources with context-switch accounting.
//!
//! Both the simulated CPU and the simulated disk of the mail server are
//! instances of [`FifoResource`]: work arrives as [`ServiceJob`]s, is served
//! one job at a time in arrival order, and each completion fires a
//! user-supplied event. When consecutive jobs belong to different simulated
//! processes, a configurable context-switch penalty is charged and counted —
//! this is the mechanism behind the paper's "total number of context
//! switches is reduced by close to a factor of two" claim (§5.4): the
//! hybrid master's event-loop jobs all share one [`ProcId`] and therefore
//! switch only when a worker runs in between.

use crate::{Nanos, Scheduler};
use std::collections::VecDeque;

/// Identifier of a simulated OS process (for context-switch accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u32);

/// One unit of work submitted to a [`FifoResource`].
#[derive(Debug, Clone)]
pub struct ServiceJob<E> {
    /// The simulated process on whose behalf the work runs.
    pub pid: ProcId,
    /// Pure service time, excluding any switch penalty.
    pub service: Nanos,
    /// Event fired when the job completes.
    pub done: E,
}

impl<E> ServiceJob<E> {
    /// Convenience constructor.
    pub fn new(pid: ProcId, service: Nanos, done: E) -> ServiceJob<E> {
        ServiceJob { pid, service, done }
    }
}

/// Aggregate statistics for a [`FifoResource`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceStats {
    /// Jobs fully served.
    pub completed: u64,
    /// Context switches charged (job's pid differed from the previous one).
    pub context_switches: u64,
    /// Total busy time, including switch penalties.
    pub busy: Nanos,
    /// Total time jobs spent queued before service began.
    pub waited: Nanos,
    /// High-water mark of the queue length (including the job in service).
    pub max_queue: usize,
}

/// A single-server FIFO queue with per-job service times.
///
/// # Contract
///
/// The resource schedules each job's `done` event itself, but it cannot
/// observe the event being handled. The world **must** call
/// [`FifoResource::on_complete`] exactly once while handling each `done`
/// event (before submitting follow-up work), so the resource can begin the
/// next queued job. Debug builds assert this ordering.
///
/// # Example
///
/// ```
/// use spamaware_sim::{FifoResource, Nanos, ProcId, Scheduler, ServiceJob, World, run};
///
/// enum Ev { Done(u32) }
/// struct W { cpu: FifoResource<Ev>, order: Vec<u32> }
/// impl World for W {
///     type Event = Ev;
///     fn handle(&mut self, sched: &mut Scheduler<Ev>, ev: Ev) {
///         let Ev::Done(id) = ev;
///         self.cpu.on_complete(sched);
///         self.order.push(id);
///     }
/// }
///
/// let mut sched = Scheduler::new();
/// let mut w = W { cpu: FifoResource::new(Nanos::from_micros(30)), order: vec![] };
/// w.cpu.submit(&mut sched, ServiceJob::new(ProcId(1), Nanos::from_micros(100), Ev::Done(1)));
/// w.cpu.submit(&mut sched, ServiceJob::new(ProcId(2), Nanos::from_micros(100), Ev::Done(2)));
/// run(&mut sched, &mut w);
/// assert_eq!(w.order, vec![1, 2]);
/// // Job 2 ran under a different pid than job 1: one context switch.
/// assert_eq!(w.cpu.stats().context_switches, 1);
/// ```
#[derive(Debug)]
pub struct FifoResource<E> {
    switch_cost: Nanos,
    queue: VecDeque<(Nanos, ServiceJob<E>)>,
    busy: bool,
    last_pid: Option<ProcId>,
    stats: ResourceStats,
}

impl<E> FifoResource<E> {
    /// Creates an idle resource with the given context-switch penalty.
    pub fn new(switch_cost: Nanos) -> FifoResource<E> {
        FifoResource {
            switch_cost,
            queue: VecDeque::new(),
            busy: false,
            last_pid: None,
            stats: ResourceStats::default(),
        }
    }

    /// Submits a job; it begins service immediately if the resource is idle,
    /// otherwise it waits in FIFO order.
    pub fn submit(&mut self, sched: &mut Scheduler<E>, job: ServiceJob<E>) {
        self.queue.push_back((sched.now(), job));
        let occupancy = self.queue.len() + usize::from(self.busy);
        if occupancy > self.stats.max_queue {
            self.stats.max_queue = occupancy;
        }
        if !self.busy {
            self.start_next(sched);
        }
    }

    /// Notifies the resource that the `done` event it scheduled has fired.
    /// Starts the next queued job, if any.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the resource was not busy (i.e. `on_complete`
    /// was called without a matching completion).
    pub fn on_complete(&mut self, sched: &mut Scheduler<E>) {
        debug_assert!(self.busy, "on_complete called on an idle resource");
        self.busy = false;
        self.stats.completed += 1;
        if !self.queue.is_empty() {
            self.start_next(sched);
        }
    }

    fn start_next(&mut self, sched: &mut Scheduler<E>) {
        let (enqueued, job) = self.queue.pop_front().expect("queue non-empty");
        self.stats.waited += sched.now().saturating_sub(enqueued);
        let mut cost = job.service;
        if self.last_pid != Some(job.pid) {
            if self.last_pid.is_some() {
                self.stats.context_switches += 1;
                cost += self.switch_cost;
            }
            self.last_pid = Some(job.pid);
        }
        self.stats.busy += cost;
        self.busy = true;
        sched.schedule_in(cost, job.done);
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> ResourceStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, World};

    enum Ev {
        Done(u32),
    }

    struct W {
        cpu: FifoResource<Ev>,
        finished: Vec<(Nanos, u32)>,
    }

    impl World for W {
        type Event = Ev;
        fn handle(&mut self, sched: &mut Scheduler<Ev>, ev: Ev) {
            let Ev::Done(id) = ev;
            self.cpu.on_complete(sched);
            self.finished.push((sched.now(), id));
        }
    }

    fn world(switch_us: u64) -> W {
        W {
            cpu: FifoResource::new(Nanos::from_micros(switch_us)),
            finished: Vec::new(),
        }
    }

    #[test]
    fn jobs_serve_fifo_with_correct_times() {
        let mut s = Scheduler::new();
        let mut w = world(0);
        for id in 0..3 {
            w.cpu.submit(
                &mut s,
                ServiceJob::new(ProcId(id), Nanos::from_micros(100), Ev::Done(id)),
            );
        }
        run(&mut s, &mut w);
        let times: Vec<u64> = w.finished.iter().map(|(t, _)| t.as_micros()).collect();
        assert_eq!(times, vec![100, 200, 300]);
        assert_eq!(w.cpu.stats().completed, 3);
    }

    #[test]
    fn context_switches_counted_and_charged() {
        let mut s = Scheduler::new();
        let mut w = world(50);
        // pids: 1, 1, 2 — only the 1->2 transition is a switch (first
        // dispatch on an idle CPU charges nothing).
        for (i, pid) in [1u32, 1, 2].into_iter().enumerate() {
            w.cpu.submit(
                &mut s,
                ServiceJob::new(ProcId(pid), Nanos::from_micros(100), Ev::Done(i as u32)),
            );
        }
        run(&mut s, &mut w);
        assert_eq!(w.cpu.stats().context_switches, 1);
        // 3 * 100us service + 1 * 50us switch.
        assert_eq!(w.finished.last().unwrap().0, Nanos::from_micros(350));
    }

    #[test]
    fn wait_time_accumulates_for_queued_jobs() {
        let mut s = Scheduler::new();
        let mut w = world(0);
        w.cpu.submit(
            &mut s,
            ServiceJob::new(ProcId(1), Nanos::from_micros(100), Ev::Done(1)),
        );
        w.cpu.submit(
            &mut s,
            ServiceJob::new(ProcId(2), Nanos::from_micros(100), Ev::Done(2)),
        );
        run(&mut s, &mut w);
        // Second job waited the first job's full service time.
        assert_eq!(w.cpu.stats().waited, Nanos::from_micros(100));
        assert_eq!(w.cpu.stats().max_queue, 2);
    }

    #[test]
    fn resource_idles_and_resumes() {
        let mut s = Scheduler::new();
        let mut w = world(0);
        w.cpu.submit(
            &mut s,
            ServiceJob::new(ProcId(1), Nanos::from_micros(10), Ev::Done(1)),
        );
        run(&mut s, &mut w);
        assert_eq!(w.cpu.stats().completed, 1);
        // Submit again after the queue drained: must restart cleanly,
        // without waiting behind the finished job.
        w.cpu.submit(
            &mut s,
            ServiceJob::new(ProcId(1), Nanos::from_micros(10), Ev::Done(2)),
        );
        run(&mut s, &mut w);
        assert_eq!(w.cpu.stats().completed, 2);
        assert_eq!(w.cpu.stats().waited, Nanos::ZERO);
    }
}
