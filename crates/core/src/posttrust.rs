//! Post-trust SMTP: a worker's instance of the session engine.
//!
//! A worker is a [`crate::driver`] thread over its own reactor,
//! multiplexing every trusted connection the master hands it: the bounded
//! queue carries the hand-off and the reactor's waker announces it. The
//! protocol finishes the transaction the master began — `DATA` capture
//! under the driver's phase deadline, one [`ShardedStore::deliver`] per
//! mail (the only blocking work left on the thread), and on a graceful
//! drain "finish the `DATA` in flight, then `421`". A slow sender
//! therefore costs its own connection state and nothing else: it no
//! longer owns the thread.
//!
//! A connection ends through the one SMTP exit it shares with the
//! master (`smtp_exit.rs`).
//!
//! Generic over the transport and the store backend, so the deterministic
//! tests replay it on [`crate::reactor::sim`] over a `MemFs`.

use crate::driver::{
    drive, Arrival, Conn, DriverEnv, DriverMetrics, End, Gone, Limits, Protocol, Step,
};
use crate::instruments::{LiveStats, VerbCounters, WorkerMetrics};
use crate::linebuf::LineBuffer;
use crate::pool::BufferPool;
use crate::pretrust::Trusted;
use crate::reactor::Reactor;
use crate::smtp_exit::SmtpExit;
use spamaware_metrics::{Gauge, Registry};
use spamaware_mfs::{Backend, DataRef, MailId, ShardedStore};
use spamaware_smtp::{DataVerdict, Envelope, Reply, ServerSession, SessionPhase};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Duration;

/// One queued hand-off: the registry-clock instant it was enqueued (for
/// `worker.queue_wait_ns`) and the trusted connection.
pub type Handoff<C> = (u64, Trusted<C>);

/// Everything one worker thread owns.
pub struct WorkerCtx<C, B> {
    /// Hand-offs from the master; the sender wakes this worker's reactor
    /// after every send.
    pub rx: Receiver<Handoff<C>>,
    /// The mail store deliveries land in.
    pub store: Arc<ShardedStore<B>>,
    /// Lifecycle counters (`live.*`).
    pub stats: Arc<LiveStats>,
    /// Mail-id allocator shared by all workers.
    pub next_id: Arc<AtomicU64>,
    /// Valid mailbox local parts, for further `RCPT`s.
    pub mailboxes: Arc<HashSet<String>>,
    /// Metrics registry; its clock is the loop's only time source.
    pub registry: Arc<Registry>,
    /// Pool the line buffers return to.
    pub line_pool: Arc<BufferPool>,
    /// Pool `DATA` bodies are captured into.
    pub body_pool: Arc<BufferPool>,
    /// Hard-stop flag.
    pub stop: Arc<AtomicBool>,
    /// Graceful-drain flag.
    pub draining: Arc<AtomicBool>,
    /// In-flight connection gauge (`live.inflight`).
    pub inflight: Arc<Gauge>,
    /// Idle budget, and the no-progress budget of a queued reply.
    pub read_timeout: Duration,
    /// Whole-session budget, charged from accept.
    pub session_deadline: Duration,
    /// Budget of one `DATA` transfer.
    pub data_deadline: Duration,
    /// Cap on one connection's queued reply bytes.
    pub max_outq_bytes: usize,
}

/// One trusted connection's protocol state.
struct Post {
    session: ServerSession,
    /// `worker.data_ns` start instant of the `DATA` transfer in flight.
    data_start: Option<u64>,
}

struct PostTrust<C, B> {
    ctx: WorkerCtx<C, B>,
    metrics: WorkerMetrics,
    verbs: VerbCounters,
    exit: SmtpExit,
}

impl<C, B: Backend> PostTrust<C, B> {
    /// Stores the mail whose `DATA` just ended under a fresh id and picks
    /// its reply from the store's answer: stored, the session accepts it
    /// and the peer reads `250`; refused, `451` and nothing accepted.
    fn store_mail(&self, session: &mut ServerSession, env: Envelope) -> Reply {
        let ctx = &self.ctx;
        let id = MailId(ctx.next_id.fetch_add(1, Ordering::Relaxed));
        let rcpts: Vec<&str> = env.recipients.iter().map(|a| a.local_part()).collect();
        let stored = {
            let _span = self.metrics.storage_ns.start();
            ctx.store.deliver(id, &rcpts, DataRef::Bytes(&env.body))
        };
        // The body's allocation goes back to the pool for the next DATA.
        ctx.body_pool.put(env.body);
        match stored {
            Ok(()) => {
                session.accept();
                ctx.stats.mails_stored.inc();
                Reply::queued(&id.to_string())
            }
            Err(_) => Reply::local_error(),
        }
    }
}

impl<C: Conn, B: Backend> Protocol<C> for PostTrust<C, B> {
    type Session = Post;

    fn listener(&self) -> Option<u64> {
        None
    }

    fn admit(&mut self, _now_ns: u64, _draining: bool) -> Option<Arrival<C, Post>> {
        let ctx = &self.ctx;
        let (enqueued_ns, task) = ctx.rx.try_recv().ok()?;
        self.metrics.queue_depth.dec();
        self.metrics.queue_wait_ns.record_since(enqueued_ns);
        let mut session = task.session;
        session.capture_bodies(true);
        Some(Arrival {
            conn: task.conn,
            session: Post {
                session,
                data_start: None,
            },
            // Adopt the master's leftover bytes *and* their allocation;
            // it returns to the line pool when the connection ends.
            lines: LineBuffer::from_remaining(task.leftover),
            // Whatever the master's queue had not flushed goes first: the
            // peer never observes a reply gap across the delegation seam.
            greeting: task.pending_out,
            accepted_ns: task.accepted_ns,
        })
    }

    fn line(&mut self, post: &mut Post, line: &[u8], out: &mut Vec<u8>) -> Step {
        if let Some(start) = post.data_start {
            if post.session.data_line(line) != DataVerdict::Complete {
                return Step::Continue;
            }
            post.data_start = None;
            self.metrics.data_ns.record_since(start);
            match post.session.end_data() {
                Ok(env) => self.store_mail(&mut post.session, env),
                // 552: the capture buffer goes back to the pool.
                Err(refused) => {
                    self.ctx.body_pool.put(post.session.take_body_buffer());
                    refused
                }
            }
            .write_wire(out);
            return Step::PhaseEnd;
        }
        let (reply, verb) = post.session.handle_line(line, &self.ctx.mailboxes);
        self.verbs.count(verb);
        reply.write_wire(out);
        if reply.code() == 354 {
            post.data_start = Some(self.metrics.data_ns.now());
            // Capture the body into a pooled buffer.
            post.session
                .provide_body_buffer(self.ctx.body_pool.take_vec());
            Step::PhaseStart
        } else if post.session.phase() == SessionPhase::Closed {
            Step::Close
        } else {
            Step::Continue
        }
    }

    fn finish(&mut self, gone: Gone<C, Post>, end: End) {
        let mut post = gone.session;
        // Ended mid-DATA, the capture buffer taken at the 354 goes back
        // as well (otherwise it is empty and `put` drops it).
        self.ctx.body_pool.put(post.session.take_body_buffer());
        if let Some(start) = post.data_start {
            // Ended mid-DATA: close out the span so abandoned transfers
            // still show up in the latency histogram.
            self.metrics.data_ns.record_since(start);
        }
        let leftover = gone.lines.into_remaining();
        self.exit.leave(gone.conn, &post.session, leftover, end);
    }
}

/// Serves the trusted connections arriving on `ctx.rx` until `ctx.stop`
/// is set.
pub fn run_posttrust<C: Conn, R: Reactor, B: Backend>(reactor: &mut R, ctx: WorkerCtx<C, B>) {
    let registry = Arc::clone(&ctx.registry);
    let env = DriverEnv {
        clock: registry.clock(),
        stop: Arc::clone(&ctx.stop),
        draining: Arc::clone(&ctx.draining),
        limits: Limits {
            idle: ctx.read_timeout,
            session: ctx.session_deadline,
            write_stall: ctx.read_timeout,
            phase: ctx.data_deadline,
            max_outq_bytes: ctx.max_outq_bytes,
        },
        metrics: DriverMetrics::default(),
    };
    let exit = SmtpExit {
        stats: Arc::clone(&ctx.stats),
        line_pool: Arc::clone(&ctx.line_pool),
        inflight: Arc::clone(&ctx.inflight),
        slow_writers: Arc::clone(&ctx.stats.worker_write_timeouts),
    };
    let mut proto = PostTrust {
        ctx,
        metrics: WorkerMetrics::register(&registry),
        verbs: VerbCounters::register(&registry),
        exit,
    };
    drive(reactor, &mut proto, &env);
}
