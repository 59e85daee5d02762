//! Every instrument the live server owns, declared once.
//!
//! One [`spamaware_metrics::instruments!`] table, one row per
//! instrument; the `mfs` and `dnsbl` crates declare theirs the same way
//! (`spamaware_mfs::INSTRUMENTS`, `spamaware_dnsbl::INSTRUMENTS`), and
//! the test at the bottom of this file renders the three tables as
//! DESIGN.md §14.3. Nothing else in the server spells an instrument's
//! name, and the rows marked `terminal` *are* the conservation equation
//! ([`LiveSnapshot::unaccounted`]): a new outcome enters it by being
//! declared.
//!
//! Handles are resolved once, when a thread starts; recording through
//! them is plain atomics.

spamaware_metrics::instruments! {
    /// Every row below, in declaration order.
    #[cfg(test)]
    const TABLE;

    /// Registry-backed lifecycle counters of a running
    /// [`crate::LiveServer`] (`live.*` in its metrics report);
    /// [`LiveStats::snapshot`] reads them all at once.
    ///
    /// [`LiveStats::register`] is public so the deterministic engine tests
    /// can drive [`crate::pretrust::run_pretrust`] and
    /// [`crate::posttrust::run_posttrust`] against a fresh registry.
    #[derive(Debug, Clone)]
    pub struct LiveStats / LiveSnapshot {
        accepted: counter "live.accepted" "Connections accepted by the master.",
        delivered: counter "live.delivered" terminal "Connections closed after delivering mail.",
        bounces: counter "live.bounces" terminal "Connections the client ended after a `550` without delivering mail, on the master or on a worker.",
        unfinished: counter "live.unfinished" terminal "Connections that got a session and ended without delivering mail or bouncing, on the master or on a worker, whatever the cause.",
        delegated: counter "live.delegated" "Trusted connections handed to workers.",
        mails_stored: counter "live.mails_stored" "Mails written to the store.",
        blacklisted: counter "live.blacklisted" "Connections whose peer the DNSBL agent found listed.",
        rejected_ipv6: counter "live.rejected_ipv6" terminal "IPv6 peers refused with a 554 reply (the server is IPv4-only).",
        overflows: counter "live.overflows" "Connections dropped for overflowing the fixed-size line buffer.",
        idle_evictions: counter "live.idle_evictions" "Connections evicted by the idle timeout, on the master or on a worker.",
        recovered_records: counter "live.recovered_records" "Torn key records truncated away while recovering the store at startup (a clean shutdown leaves this at zero).",
        fsck_repairs: counter "live.fsck_repairs" "Repairs the startup fsck pass made durable (torn tails, refcount rebuilds, orphan reclamation).",
        shed_connections: counter "live.shed_connections" terminal "Connections shed with `421` at the total in-flight cap.",
        shed_per_ip: counter "live.shed_per_ip" terminal "Connections shed with `421` at the per-IP pre-trust cap.",
        shed_worker_busy: counter "live.shed_worker_busy" "Trusted connections shed with `421` because every worker queue was full (the master never blocks on a send).",
        shed_draining: counter "live.shed_draining" terminal "Arrivals refused at the door with `421` because the server is draining.",
        drain_evictions: counter "live.drain_evictions" "Connections a drain evicted with `421`: pre-trust ones mid-dialog, trusted ones between transactions.",
        session_deadline_evictions: counter "live.session_deadline_evictions" "Connections evicted with `421` for exhausting the whole-session wall-clock budget.",
        data_deadline_evictions: counter "live.data_deadline_evictions" "Connections evicted with `421` for exhausting the `DATA` transfer budget.",
        sockopt_errors: counter "live.sockopt_errors" "Connections a reactor (master, worker or admin) could not register: closed rather than left unserved and outside its deadlines.",
        worker_write_timeouts: counter "live.worker_write_timeouts" "Trusted connections dropped because the peer stopped reading: its queued replies hit the cap or made no progress for a whole budget.",
        admin_write_timeouts: counter "live.admin_write_timeouts" "Admin responses abandoned because the client stopped reading for a whole write budget.",
    }

    /// The level [`crate::LiveServer::drain`] polls to zero.
    pub(crate) struct Occupancy {
        inflight: gauge "live.inflight" "Connections in flight (pre-trust, queued, or being served by a worker).",
    }

    /// Per-verb command counts, shared by the master's pre-trust dialog
    /// and the worker pool.
    pub(crate) struct VerbCounters {
        helo: counter "smtp.verb.helo" "`HELO` commands parsed.",
        ehlo: counter "smtp.verb.ehlo" "`EHLO` commands parsed.",
        mail: counter "smtp.verb.mail" "`MAIL FROM` commands parsed.",
        rcpt: counter "smtp.verb.rcpt" "`RCPT TO` commands parsed.",
        data: counter "smtp.verb.data" "`DATA` commands parsed.",
        rset: counter "smtp.verb.rset" "`RSET` commands parsed.",
        noop: counter "smtp.verb.noop" "`NOOP` commands parsed.",
        vrfy: counter "smtp.verb.vrfy" "`VRFY` commands parsed.",
        quit: counter "smtp.verb.quit" "`QUIT` commands parsed.",
        unknown: counter "smtp.verb.unknown" "Command lines that are no SMTP verb the server knows, or fail to parse as one.",
    }

    /// Loop-health instruments of [`crate::driver::drive`]. The master
    /// registers them; every other driver thread keeps
    /// [`DriverMetrics::default`] — detached instruments no report
    /// renders, so `master.*` keeps meaning the master thread alone.
    #[derive(Debug, Default)]
    pub struct DriverMetrics {
        wakeups: counter "master.wakeups" "Returns from the master's reactor wait.",
        io_events: counter "master.io_events" "Readiness events delivered to the master.",
        timers_fired: counter "master.timers_fired" "Timer expirations the master processed.",
        write_stalls: counter "master.write_stalls" "Pre-trust connections whose replies outran the socket and started queuing.",
        outq_bytes: gauge "master.outq_bytes" "Reply bytes queued across all pre-trust connections.",
    }

    /// What the pre-trust protocol records besides the lifecycle counters.
    pub(crate) struct MasterMetrics {
        pretrust_ns: span "master.pretrust_ns" "Time a connection spent on the master, accept to hand-off or close.",
        evicted_slow_writers: counter "master.evicted_slow_writers" "Pre-trust connections evicted because the peer stopped reading its replies.",
        agent_dropped: counter "dnsbl.agent_dropped" "Lookups dropped because the DNSBL agent's queue was full.",
    }

    /// What a worker records besides the lifecycle counters; the master's
    /// dispatch raises `queue_depth`, the worker that dequeues lowers it.
    pub(crate) struct WorkerMetrics {
        queue_wait_ns: span "worker.queue_wait_ns" "Time a trusted connection waited in a worker queue.",
        data_ns: span "worker.data_ns" "Duration of one `DATA` transfer, 354 to final dot (or to the connection's end).",
        storage_ns: span "worker.storage_ns" "Duration of one store delivery.",
        queue_depth: gauge "worker.queue_depth" "Trusted connections queued for workers and not yet dequeued.",
    }

    /// The DNSBL agent thread's own instruments; registered only when an
    /// agent runs, so a DNSBL-less server's report does not list them.
    pub(crate) struct AgentMetrics {
        lookup_ns: span "dnsbl.agent_ns" "DNSBL agent per-verdict latency (cache, breaker or UDP).",
        udp_timeouts: counter "dnsbl.udp_timeouts" "UDP lookups that burned their whole budget.",
        udp_errors: counter "dnsbl.udp_errors" "UDP lookups failed on decode or socket errors.",
    }

    /// Shared by every [`crate::BufferPool`] on the registry.
    #[derive(Debug)]
    pub(crate) struct PoolMetrics {
        reuse: counter "live.pool_reuse" "Buffer-pool takes served from the free list.",
        miss: counter "live.pool_miss" "Buffer-pool takes that had to allocate.",
    }
}

impl VerbCounters {
    /// Counts one command line by the verb
    /// [`spamaware_smtp::ServerSession::handle_line`] returned.
    pub(crate) fn count(&self, verb: &str) {
        match verb {
            "HELO" => self.helo.inc(),
            "EHLO" => self.ehlo.inc(),
            "MAIL" => self.mail.inc(),
            "RCPT" => self.rcpt.inc(),
            "DATA" => self.data.inc(),
            "RSET" => self.rset.inc(),
            "NOOP" => self.noop.inc(),
            "VRFY" => self.vrfy.inc(),
            "QUIT" => self.quit.inc(),
            _ => self.unknown.inc(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may read clock and env (DESIGN.md §9)
mod tests {
    use super::*;
    use crate::{LiveConfig, LiveServer};
    use spamaware_metrics::Row;
    use std::fmt::Write;

    /// Kind and name of every instrument in the registry of a fresh,
    /// DNSBL-less `LiveServer`, the same in debug and release builds.
    const FRESH_INVENTORY: &str = "\
counter dnsbl.agent_dropped\n\
counter live.accepted\n\
counter live.admin_write_timeouts\n\
counter live.blacklisted\n\
counter live.bounces\n\
counter live.data_deadline_evictions\n\
counter live.delegated\n\
counter live.delivered\n\
counter live.drain_evictions\n\
counter live.fsck_repairs\n\
counter live.idle_evictions\n\
gauge live.inflight\n\
counter live.mails_stored\n\
counter live.overflows\n\
counter live.pool_miss\n\
counter live.pool_reuse\n\
counter live.recovered_records\n\
counter live.rejected_ipv6\n\
counter live.session_deadline_evictions\n\
counter live.shed_connections\n\
counter live.shed_draining\n\
counter live.shed_per_ip\n\
counter live.shed_worker_busy\n\
counter live.sockopt_errors\n\
counter live.unfinished\n\
counter live.worker_write_timeouts\n\
counter master.evicted_slow_writers\n\
counter master.io_events\n\
gauge master.outq_bytes\n\
histogram master.pretrust_ns\n\
counter master.timers_fired\n\
counter master.wakeups\n\
counter master.write_stalls\n\
histogram mfs.delete_ns\n\
counter mfs.private_bytes\n\
histogram mfs.read_ns\n\
counter mfs.refcount_ops\n\
histogram mfs.shard_contention_ns\n\
counter mfs.shared_bytes\n\
histogram mfs.write_ns\n\
counter smtp.verb.data\n\
counter smtp.verb.ehlo\n\
counter smtp.verb.helo\n\
counter smtp.verb.mail\n\
counter smtp.verb.noop\n\
counter smtp.verb.quit\n\
counter smtp.verb.rcpt\n\
counter smtp.verb.rset\n\
counter smtp.verb.unknown\n\
counter smtp.verb.vrfy\n\
histogram worker.data_ns\n\
gauge worker.queue_depth\n\
histogram worker.queue_wait_ns\n\
histogram worker.storage_ns\n\
";

    /// Every row of the three tables the server's instruments are
    /// declared in.
    fn all_rows() -> impl Iterator<Item = &'static Row> {
        TABLE
            .iter()
            .chain(spamaware_mfs::INSTRUMENTS)
            .chain(spamaware_dnsbl::INSTRUMENTS)
    }

    /// How `metrics().render()` starts the line of the instrument `row`
    /// declares: a span is its histogram.
    fn report_line(row: &Row) -> String {
        let kind = if row.kind == "span" {
            "histogram"
        } else {
            row.kind
        };
        format!("{kind} {}", row.name)
    }

    /// `kind name` of every line of the report of a localhost server,
    /// its config changed by `tweak`, read the moment `start` returns.
    fn inventory_at_start(tag: &str, tweak: impl FnOnce(&mut LiveConfig)) -> Vec<String> {
        let root = std::env::temp_dir().join(format!("spamaware-{tag}-{}", std::process::id()));
        let mut cfg = LiveConfig::localhost(&root, vec!["alice".to_owned()]);
        tweak(&mut cfg);
        let server = LiveServer::start(cfg).expect("start");
        let report = server.metrics().render();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
        report
            .lines()
            .map(|line| line.splitn(3, ' ').take(2).collect::<Vec<_>>().join(" "))
            .collect()
    }

    #[test]
    fn fresh_server_registers_the_inventory_it_always_did() {
        let inventory = inventory_at_start("inventory", |_| {});
        assert_eq!(inventory, FRESH_INVENTORY.lines().collect::<Vec<_>>());
    }

    #[test]
    fn a_server_with_a_dnsbl_lists_every_row_when_start_returns() {
        // No lookup is made, so nothing needs to answer there.
        let dnsbl = std::net::SocketAddr::from(([127, 0, 0, 1], 9));
        let mut inventory = inventory_at_start("dnsbl-inventory", |cfg| {
            cfg.dnsbl_udp = Some((dnsbl, "bl.example".to_owned()));
        });
        inventory.sort();
        let mut declared: Vec<String> = all_rows().map(report_line).collect();
        declared.sort();
        assert_eq!(inventory, declared);
    }

    #[test]
    fn the_table_declares_each_instrument_the_server_registers_exactly_once() {
        let mut names: Vec<&str> = all_rows().map(|row| row.name).collect();
        names.sort_unstable();
        let rows = names.len();
        names.dedup();
        assert_eq!(names.len(), rows, "a name declared twice");
        // A DNSBL-less server registers every row but the DNSBL agent's
        // and those of its resolver and breaker.
        let agent_only = ["dnsbl.agent_ns", "dnsbl.udp_errors", "dnsbl.udp_timeouts"];
        let mut declared: Vec<String> = TABLE
            .iter()
            .chain(spamaware_mfs::INSTRUMENTS)
            .filter(|row| !agent_only.contains(&row.name))
            .map(report_line)
            .collect();
        declared.sort();
        let mut registered: Vec<&str> = FRESH_INVENTORY.lines().collect();
        registered.sort_unstable();
        assert_eq!(declared, registered);
    }

    #[test]
    fn the_terminal_rows_are_the_seven_connection_outcomes() {
        let terminal: Vec<&str> = TABLE
            .iter()
            .filter(|row| row.terminal)
            .map(|row| row.name)
            .collect();
        assert_eq!(
            terminal,
            [
                "live.delivered",
                "live.bounces",
                "live.unfinished",
                "live.rejected_ipv6",
                "live.shed_connections",
                "live.shed_per_ip",
                "live.shed_draining",
            ]
        );
        // Every field a distinct bit: the result names exactly the terms
        // that entered the sum.
        let snap = LiveSnapshot {
            accepted: 1 << 30,
            delivered: 1,
            bounces: 1 << 1,
            unfinished: 1 << 2,
            rejected_ipv6: 1 << 3,
            shed_connections: 1 << 4,
            shed_per_ip: 1 << 5,
            shed_draining: 1 << 6,
            drain_evictions: 1 << 7,
            delegated: 1 << 8,
            mails_stored: 1 << 9,
            blacklisted: 1 << 10,
            overflows: 1 << 11,
            idle_evictions: 1 << 12,
            recovered_records: 1 << 13,
            fsck_repairs: 1 << 14,
            shed_worker_busy: 1 << 15,
            session_deadline_evictions: 1 << 16,
            data_deadline_evictions: 1 << 17,
            sockopt_errors: 1 << 18,
            worker_write_timeouts: 1 << 19,
            admin_write_timeouts: 1 << 20,
        };
        assert_eq!(snap.unaccounted(), (1 << 30) - 0b0111_1111);
    }

    /// DESIGN.md §14.3's table, rendered from the rows.
    fn design_table() -> String {
        let mut rows: Vec<&Row> = all_rows().collect();
        rows.sort_by_key(|row| row.name);
        let mut out = String::from(
            "| metric | kind | terminal | meaning |\n|--------|------|----------|---------|\n",
        );
        for row in rows {
            let terminal = if row.terminal { "yes" } else { "" };
            let _ = writeln!(
                out,
                "| `{}` | {} | {terminal} | {} |",
                row.name, row.kind, row.doc
            );
        }
        out
    }

    #[test]
    fn design_md_carries_the_table_as_rendered() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
        let design = std::fs::read_to_string(path).expect("read DESIGN.md");
        let table = design_table();
        assert!(
            design.contains(&table),
            "DESIGN.md §14.3 has drifted from the instrument tables; it should read:\n{table}"
        );
    }
}
