//! Every instrument the live server owns, declared once.
//!
//! The `instruments!` table below has one row per instrument: the field
//! a thread reaches it through, the registry call that makes it
//! (`counter`, `gauge` or `span`), the name `METRICS` prints, whether it
//! is a *terminal* connection outcome, and one sentence saying what it
//! measures. Each group of rows becomes a struct of handles with a
//! `register` that resolves them all on a [`Registry`]; the sentence is
//! the field's documentation and, through the test at the bottom of this
//! file, the row of DESIGN.md §14.3. Nothing else in the crate spells an
//! instrument's name, so a name cannot be registered under two spellings
//! (the registry's get-or-create would make the second a fresh instrument
//! that reads zero forever), and the rows marked `terminal` *are* the
//! conservation equation ([`LiveSnapshot::unaccounted`]): a new outcome
//! enters it by being declared.
//!
//! Handles are resolved once, when a thread starts; recording through
//! them is plain atomics.

use spamaware_metrics::{Counter, Gauge, Registry, SpanHandle};
use spamaware_smtp::SessionOutcome;
use std::sync::Arc;

/// The handle type a row's registry call returns.
macro_rules! handle {
    (counter) => { Arc<Counter> };
    (gauge) => { Arc<Gauge> };
    (span) => { SpanHandle };
}

/// `$then` for a row marked `terminal`, `$otherwise` for any other.
macro_rules! if_terminal {
    (terminal, $then:expr, $otherwise:expr) => {
        $then
    };
    (, $then:expr, $otherwise:expr) => {
        $otherwise
    };
}

/// For a group declared `struct Handles / Values`: the `Values` struct of
/// plain numbers, `Handles::snapshot`, and the sum of the terminal rows.
macro_rules! snapshot {
    ([] $($ignored:tt)*) => {};
    ([$Values:ident] $Handles:ident { $($field:ident $($terminal:ident)? $doc:literal,)* }) => {
        #[doc = concat!("Point-in-time values of every [`", stringify!($Handles), "`] counter.")]
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $Values {
            $(#[doc = $doc] pub $field: u64,)*
        }

        impl $Handles {
            /// Reads every counter at once.
            pub fn snapshot(&self) -> $Values {
                $Values { $($field: self.$field.get(),)* }
            }
        }

        impl $Values {
            /// Sum of the rows marked `terminal`.
            pub(crate) fn terminal_outcomes(&self) -> u64 {
                0 $(+ if_terminal!($($terminal)?, self.$field, 0))*
            }
        }
    };
}

macro_rules! instruments {
    ($(
        $(#[$group_meta:meta])*
        $vis:vis struct $Handles:ident $(/ $Values:ident)? {
            $(
                $(#[$row_meta:meta])*
                $field:ident: $kind:ident $name:literal $($terminal:ident)? $doc:literal,
            )*
        }
    )*) => {
        $(
            $(#[$group_meta])*
            $vis struct $Handles {
                $($(#[$row_meta])* #[doc = $doc] pub $field: handle!($kind),)*
            }

            impl $Handles {
                /// Resolves (gets or creates) every instrument of the
                /// group on `registry`.
                pub fn register(registry: &Registry) -> $Handles {
                    $Handles { $($(#[$row_meta])* $field: registry.$kind($name),)* }
                }
            }

            snapshot! { [$($Values)?] $Handles { $($field $($terminal)? $doc,)* } }
        )*

        /// Every row of every group, in declaration order.
        #[cfg(test)]
        const TABLE: &[Row] = &[$($(Row {
            field: stringify!($field),
            kind: stringify!($kind),
            name: $name,
            terminal: if_terminal!($($terminal)?, true, false),
            doc: $doc,
        },)*)*];
    };
}

/// One table row as data, for the tests that hold the table to the
/// registry and to DESIGN.md.
#[cfg(test)]
struct Row {
    field: &'static str,
    kind: &'static str,
    name: &'static str,
    terminal: bool,
    doc: &'static str,
}

instruments! {
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
        shed_draining: counter "live.shed_draining" terminal "Connections shed with `421` because the server is draining: arrivals refused at the door, plus the pre-trust connections the drain evicted (those are also in `drain_evictions`).",
        drain_evictions: counter "live.drain_evictions" "Pre-trust connections a drain evicted mid-dialog (each also in `shed_draining` and `unfinished`).",
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
        internal_errors: counter "live.internal_error" "Mails answered `451` because the session reported a delivery with no envelope (a state-machine bug, counted instead of crashing the worker).",
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
        #[cfg(debug_assertions)]
        alloc_bytes: counter "live.alloc_bytes" "Fresh buffer capacity allocated on a pool miss (debug builds only).",
    }
}

impl LiveStats {
    /// Counts an SMTP connection's terminal outcome, on the master or on
    /// a worker.
    pub(crate) fn count_outcome(&self, outcome: SessionOutcome) {
        outcome
            .pick(&self.delivered, &self.bounces, &self.unfinished)
            .inc();
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
    use std::fmt::Write;

    /// Kind and name of every instrument in the registry of a fresh,
    /// DNSBL-less `LiveServer` built in debug mode, taken from
    /// `metrics_report()` at the commit before the table existed.
    const FRESH_INVENTORY: &str = "\
counter dnsbl.agent_dropped\n\
counter live.accepted\n\
counter live.admin_write_timeouts\n\
counter live.alloc_bytes\n\
counter live.blacklisted\n\
counter live.bounces\n\
counter live.data_deadline_evictions\n\
counter live.delegated\n\
counter live.delivered\n\
counter live.drain_evictions\n\
counter live.fsck_repairs\n\
counter live.idle_evictions\n\
gauge live.inflight\n\
counter live.internal_error\n\
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

    /// How `metrics_report()` starts the line of an instrument that either
    /// table of DESIGN.md §14.3 lists as `kind`: a span is its histogram.
    fn report_line(kind: &str, name: &str) -> String {
        let kind = if kind == "span" { "histogram" } else { kind };
        format!("{kind} {name}")
    }

    /// `kind name` of every line of a `metrics_report()`.
    fn inventory_of(report: &str) -> Vec<String> {
        report
            .lines()
            .map(|line| line.splitn(3, ' ').take(2).collect::<Vec<_>>().join(" "))
            .collect()
    }

    #[test]
    fn fresh_server_registers_the_inventory_it_always_did() {
        let root = std::env::temp_dir().join(format!("spamaware-inventory-{}", std::process::id()));
        let server = LiveServer::start(LiveConfig::localhost(&root, vec!["alice".to_owned()]))
            .expect("start");
        let report = server.metrics_report();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
        let inventory = inventory_of(&report);
        let golden: Vec<&str> = FRESH_INVENTORY
            .lines()
            .filter(|line| cfg!(debug_assertions) || *line != "counter live.alloc_bytes")
            .collect();
        assert_eq!(inventory, golden);
    }

    /// The `dnsbl` and `mfs` crates name their instruments from a prefix
    /// the caller passes, so no table can declare them. What the server's
    /// registry holds under those two prefixes beyond the table's rows
    /// must be DESIGN.md §14.3's second, hand-kept table and nothing
    /// else — read from a running registry, in both directions.
    #[test]
    fn design_md_lists_every_prefixed_instrument_the_server_registers() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
        let design = std::fs::read_to_string(path).expect("read DESIGN.md");
        let mut documented: Vec<String> = design
            .lines()
            .skip_while(|line| *line != "| metric | kind | meaning |")
            .skip(2)
            .take_while(|line| line.starts_with("| `"))
            .map(|line| {
                let cells: Vec<&str> = line.split('|').map(str::trim).collect();
                report_line(cells[2], cells[1].trim_matches('`'))
            })
            .collect();
        documented.sort();

        let root = std::env::temp_dir().join(format!("spamaware-prefixed-{}", std::process::id()));
        let dnsbl = spamaware_dnsbl::UdpDnsbl::start(
            std::net::SocketAddr::from(([127, 0, 0, 1], 0)),
            "bl.example",
            spamaware_dnsbl::BlacklistDb::default(),
        )
        .expect("start the UDP stub");
        let mut cfg = LiveConfig::localhost(&root, vec!["alice".to_owned()]);
        cfg.dnsbl_udp = Some((dnsbl.local_addr(), "bl.example".to_owned()));
        let server = LiveServer::start(cfg).expect("start");
        // The agent registers its breaker's and resolver's instruments
        // from its own thread, some time after `start` returns.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let registered = loop {
            let mut names = inventory_of(&server.metrics_report());
            names.retain(|line| {
                let name = line.split(' ').nth(1).unwrap_or_default();
                (name.starts_with("dnsbl.") || name.starts_with("mfs."))
                    && !TABLE.iter().any(|row| row.name == name)
            });
            names.sort();
            if names == documented || std::time::Instant::now() >= deadline {
                break names;
            }
            std::thread::yield_now();
        };
        server.shutdown();
        dnsbl.shutdown();
        let _ = std::fs::remove_dir_all(&root);
        let unregistered: Vec<_> = documented
            .iter()
            .filter(|line| !registered.contains(line))
            .collect();
        let undocumented: Vec<_> = registered
            .iter()
            .filter(|line| !documented.contains(line))
            .collect();
        assert!(
            registered == documented,
            "DESIGN.md §14.3's second table lists {unregistered:?}, which the server never \
             registers, and lacks {undocumented:?}, which it does"
        );
    }

    #[test]
    fn the_table_declares_each_instrument_the_server_registers_exactly_once() {
        // The store registers `mfs.*` itself; the agent's rows are
        // registered only when an agent runs. Everything else a fresh
        // server has is a row, and every other row is in a fresh server.
        let agent_only = ["dnsbl.agent_ns", "dnsbl.udp_errors", "dnsbl.udp_timeouts"];
        let mut declared: Vec<String> = TABLE
            .iter()
            .filter(|row| !agent_only.contains(&row.name))
            .map(|row| report_line(row.kind, row.name))
            .collect();
        declared.sort();
        let mut registered: Vec<&str> = FRESH_INVENTORY
            .lines()
            .filter(|line| !line.contains(" mfs."))
            .collect();
        registered.sort_unstable();
        assert_eq!(declared, registered);
    }

    #[test]
    fn the_terminal_rows_are_the_seven_connection_outcomes() {
        let terminal: Vec<&str> = TABLE
            .iter()
            .filter(|row| row.terminal)
            .map(|row| row.field)
            .collect();
        assert_eq!(
            terminal,
            [
                "delivered",
                "bounces",
                "unfinished",
                "rejected_ipv6",
                "shed_connections",
                "shed_per_ip",
                "shed_draining",
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
        assert_eq!(snap.unaccounted(), (1 << 30) - 0b0111_1111 + (1 << 7));
    }

    /// DESIGN.md §14.3's first table, rendered from the rows.
    fn design_table() -> String {
        let mut rows: Vec<&Row> = TABLE.iter().collect();
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
            "DESIGN.md §14.3 has drifted from crates/core/src/instruments.rs; its first table should read:\n{table}"
        );
    }
}
