//! The one exit of an SMTP connection, wherever it ends: the master's
//! `finish` ([`crate::pretrust`]) and a worker's ([`crate::posttrust`])
//! release their own state, then call [`SmtpExit::leave`], which reads
//! everything else from the [`End`] alone (DESIGN.md §14.3, §15.2).

use crate::driver::{farewell, Conn, End};
use crate::instruments::LiveStats;
use crate::pool::BufferPool;
use spamaware_metrics::{Counter, Gauge};
use spamaware_smtp::{Reply, ServerSession};
use std::sync::Arc;

/// What leaving costs an SMTP connection.
pub(crate) struct SmtpExit {
    pub(crate) stats: Arc<LiveStats>,
    pub(crate) line_pool: Arc<BufferPool>,
    pub(crate) inflight: Arc<Gauge>,
    /// `master.evicted_slow_writers` or `live.worker_write_timeouts`.
    pub(crate) slow_writers: Arc<Counter>,
}

impl SmtpExit {
    /// Bumps the cause row of `end`, says its farewell, returns `leftover`
    /// to the line pool, counts exactly one terminal row and gives back
    /// the `live.inflight` slot.
    pub(crate) fn leave<C: Conn>(
        &self,
        mut conn: C,
        session: &ServerSession,
        leftover: Vec<u8>,
        end: End,
    ) {
        let stats = &*self.stats;
        let unavailable = || Some(Reply::service_not_available());
        let (cause, reply) = match end {
            End::Closed | End::PeerGone => (None, None),
            End::Overflow => (Some(&stats.overflows), Some(Reply::syntax_error())),
            // Neither would hear a word: one is not talking, the other
            // not reading.
            End::Idle => (Some(&stats.idle_evictions), None),
            End::SlowWriter => (Some(&self.slow_writers), None),
            End::Session => (Some(&stats.session_deadline_evictions), unavailable()),
            End::Phase => (Some(&stats.data_deadline_evictions), unavailable()),
            End::Drain => (Some(&stats.drain_evictions), unavailable()),
            End::Unwatchable => (Some(&stats.sockopt_errors), unavailable()),
            // Only a hand-off every worker queue refused comes back: the
            // master sheds that one client rather than block on a send.
            End::Detached => (Some(&stats.shed_worker_busy), unavailable()),
        };
        if let Some(cause) = cause {
            cause.inc();
        }
        if let Some(reply) = reply {
            farewell(&mut conn, reply.to_wire().as_bytes());
        }
        self.line_pool.put(leftover);
        let ended_by_client = matches!(end, End::Closed | End::PeerGone);
        let outcome = session.outcome(ended_by_client);
        outcome
            .pick(&stats.delivered, &stats.bounces, &stats.unfinished)
            .inc();
        self.inflight.dec();
    }
}
