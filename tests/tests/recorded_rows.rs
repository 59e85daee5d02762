//! The recorded-rows guard (DESIGN.md §14.4): a row of an `instruments!`
//! table that no code records renders 0 in every report, and rustc's
//! `dead_code` cannot see it through another crate's macro. So one
//! scripted run boots a live server over a torn spool and drives it, its
//! DNSBL agent and a POP3 server through every path a loopback IPv4 peer
//! can reach in a few seconds, and the report's zero lines must be
//! exactly the pinned rows below — each recorded by another test, or by
//! none, as its entry says.

mod common;

use common::{assert_conserved_at_quiesce, spool, wait_for, wait_for_mails, Line};
use spamaware_core::{LiveConfig, LiveServer, Pop3Server, MAX_LINE};
use spamaware_dnsbl::{BlacklistDb, UdpDnsbl};
use spamaware_netaddr::Ipv4;
use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// The zero lines of the report at quiesce, sorted as the report sorts
/// them, each with where it is recorded instead.
const UNREACHED_HERE: &[&str] = &[
    "counter dnsbl.agent_dropped", // sim_engine::a_full_dnsbl_queue_drops_the_lookup_and_serves_the_client
    "counter dnsbl.breaker_closed", // overload_chaos::breaker_closes_again_when_the_dnsbl_heals
    "counter dnsbl.breaker_opened", // overload_chaos::blackholed_dnsbl_trips_breaker_and_mail_flows_fail_open
    "counter dnsbl.breaker_probes", // spamaware-dnsbl breaker::tests::metrics_track_transitions
    "counter dnsbl.breaker_short_circuits", // overload_chaos::blackholed_dnsbl_trips_breaker_and_mail_flows_fail_open
    "gauge dnsbl.breaker_state",            // a gauge, closed (0) at quiesce
    "counter dnsbl.eviction", // spamaware-dnsbl resolver::tests::registry_metrics_count_capacity_evictions
    "counter dnsbl.udp_errors", // overload_chaos::garbled_dnsbl_counts_errors_not_timeouts_and_trips_breaker
    "counter dnsbl.udp_timeouts", // overload_chaos::blackholed_dnsbl_trips_breaker_and_mail_flows_fail_open
    "counter live.admin_write_timeouts", // spamaware-core live::tests::an_admin_client_that_stops_reading_its_report_is_cut_off
    "counter live.data_deadline_evictions", // sim_engine::trickled_data_is_evicted_at_the_exact_data_deadline
    "gauge live.inflight",                  // a gauge, 0 at quiesce
    "counter live.rejected_ipv6",           // sim_engine::ipv6_peer_is_refused_at_the_door
    "counter live.session_deadline_evictions", // sim_engine::dripping_client_cannot_outlive_the_session_deadline
    "counter live.shed_worker_busy", // sim_engine::worker_saturation_hands_back_and_sheds_with_421
    "counter live.sockopt_errors", // sim_engine::a_socket_the_masters_reactor_refuses_is_closed_with_421, sim_engine::a_socket_the_workers_reactor_refuses_is_closed_with_421
    "counter live.worker_write_timeouts", // sim_engine::a_trusted_peer_that_stops_reading_is_a_worker_write_timeout
    "counter master.evicted_slow_writers", // write_stall::stalled_smtp_writer_is_evicted_while_delivery_flows
    "gauge master.outq_bytes",             // a gauge, 0 at quiesce
    "counter master.write_stalls", // write_stall::stalled_smtp_writer_is_evicted_while_delivery_flows
    "gauge worker.queue_depth",    // a gauge, 0 at quiesce
];

/// `kind name` of every line of `report` that reads zero: a counter or
/// gauge at 0, or a histogram with `count=0`.
fn zero_lines(report: &str) -> Vec<String> {
    report
        .lines()
        .filter_map(|line| {
            let mut parts = line.splitn(3, ' ');
            let (kind, name, value) = (parts.next()?, parts.next()?, parts.next()?);
            let zero = match kind {
                "histogram" => value.starts_with("count=0 "),
                _ => value == "0",
            };
            zero.then(|| format!("{kind} {name}"))
        })
        .collect()
}

fn counter(srv: &LiveServer, name: &str) -> u64 {
    srv.metrics().counter_value(name).unwrap_or(0)
}

#[test]
fn every_row_is_recorded_by_this_script_or_pinned() {
    let db: BlacklistDb = [Ipv4::new(127, 0, 0, 1)].into_iter().collect();
    let dnsbl =
        UdpDnsbl::start("127.0.0.1:0".parse().expect("addr"), "bl.example", db).expect("dnsbl");
    // The server boots over a spool whose last key record is torn.
    let root = spool("rows");
    let torn = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/fsck/torn-tail/mfs");
    let mfs = root.join("mfs");
    std::fs::create_dir_all(&mfs).expect("spool");
    for file in ["alice.key", "alice.data"] {
        std::fs::copy(torn.join(file), mfs.join(file)).expect("fixture");
    }
    let mut cfg = LiveConfig::localhost(&root, vec!["alice".into(), "bob".into()]);
    cfg.dnsbl_udp = Some((dnsbl.local_addr(), "bl.example".to_owned()));
    cfg.pretrust_idle_timeout = Duration::from_secs(2);
    cfg.max_connections = 3;
    cfg.max_pretrust_per_ip = 2;
    let srv = LiveServer::start(cfg).expect("start");
    let addr = srv.local_addr();
    let pop = Pop3Server::start_with_timeout(
        "127.0.0.1:0".parse().expect("addr"),
        srv.store(),
        vec!["alice".to_owned(), "bob".to_owned()],
        Duration::from_secs(10),
    )
    .expect("pop3");

    // Every verb, then a delivery to one mailbox.
    let mut c = Line::greet(addr);
    let mut ehlo = c.cmd("EHLO client.example");
    while ehlo.starts_with("250-") {
        ehlo = c.read_line();
    }
    assert!(ehlo.starts_with("250 "), "EHLO: {ehlo:?}");
    assert!(c.cmd("NOOP").starts_with("250"));
    assert!(c.cmd("VRFY alice").starts_with("252"));
    assert!(c.cmd("RSET").starts_with("250"));
    assert!(c.cmd("XYZZY").starts_with("500"));
    assert!(c.cmd("HELO client.example").starts_with("250"));
    c.deliver(&["alice"], "Subject: private\r\n\r\nprivate body");
    assert!(c.cmd("QUIT").starts_with("221"));
    wait_for_mails(&srv, 1);
    wait_for("the listed peer to be flagged", || {
        counter(&srv, "live.blacklisted") >= 1
    });

    // A bounce: the client quits after a 550.
    let mut c = Line::greet(addr);
    assert!(c.cmd("HELO client.example").starts_with("250"));
    assert!(c.cmd("MAIL FROM:<x@client.example>").starts_with("250"));
    assert!(c.cmd("RCPT TO:<nobody@dept.example>").starts_with("550"));
    assert!(c.cmd("QUIT").starts_with("221"));

    // A line longer than the buffer: 500, then the server hangs up.
    let mut c = Line::greet(addr);
    c.stream
        .write_all(&vec![b'A'; MAX_LINE + 100])
        .expect("flood");
    assert!(c.read_line().starts_with("500"));
    assert!(c.read_or_eof().is_empty());

    // The caps: one trusted session on a worker and two idle pre-trust
    // ones fill `max_connections`; with the worker's gone, the two still
    // fill `max_pretrust_per_ip`.
    wait_for("the sessions so far to end", || srv.inflight() == 0);
    let mut trusted = Line::greet(addr);
    assert!(trusted.cmd("HELO client.example").starts_with("250"));
    assert!(trusted
        .cmd("MAIL FROM:<x@client.example>")
        .starts_with("250"));
    assert!(trusted
        .cmd("RCPT TO:<alice@dept.example>")
        .starts_with("250"));
    wait_for("the hand-off", || counter(&srv, "live.delegated") >= 2);
    let idle = [Line::greet(addr), Line::greet(addr)];
    assert!(
        Line::connect(addr).shed(),
        "the in-flight cap admitted a 4th"
    );
    assert!(trusted.cmd("RCPT TO:<bob@dept.example>").starts_with("250"));
    assert!(trusted.cmd("DATA").starts_with("354"));
    trusted.raw("Subject: shared\r\n\r\nshared body");
    assert!(trusted.cmd(".").starts_with("250"));
    assert!(trusted.cmd("QUIT").starts_with("221"));
    wait_for("the worker's session to end", || srv.inflight() == 2);
    assert!(Line::connect(addr).shed(), "the per-IP cap admitted a 3rd");
    wait_for_mails(&srv, 2);

    // The two idle ones outlast `pretrust_idle_timeout`.
    wait_for("the idle evictions", || {
        counter(&srv, "live.idle_evictions") >= 2
    });
    drop(idle);

    // POP3 reads and deletes the shared mail.
    let mut p = Line::greet(pop.local_addr());
    assert!(p.cmd("USER alice").starts_with("+OK"));
    assert!(p.cmd("PASS x").starts_with("+OK"));
    // Two mails survived the torn tail; the shared one came last.
    assert!(p.cmd("STAT").starts_with("+OK 4 "));
    assert!(p.cmd("LIST").starts_with("+OK"));
    assert_eq!(p.read_multiline().len(), 4);
    assert!(p.cmd("RETR 4").starts_with("+OK"));
    assert!(p.read_multiline().join("\n").contains("shared body"));
    assert!(p.cmd("DELE 4").starts_with("+OK"));
    assert!(p.cmd("QUIT").starts_with("+OK"));
    wait_for("the delete", || {
        srv.metrics().histogram_count("mfs.delete_ns") >= Some(1)
    });

    // A drain evicts a pre-trust session and refuses an arrival.
    let held = Line::greet(addr);
    assert!(
        srv.drain(Duration::from_secs(10)),
        "drain left work in flight"
    );
    drop(held);
    assert!(Line::connect(addr).shed(), "a draining server admitted one");

    wait_for("the DNSBL cache to answer", || {
        counter(&srv, "dnsbl.cache_hit") >= 1
    });
    assert_conserved_at_quiesce(&srv);
    let zeros = zero_lines(&srv.metrics().render());
    assert_eq!(zeros, UNREACHED_HERE, "rows reading zero at quiesce");

    pop.shutdown();
    srv.shutdown();
    dnsbl.shutdown();
    let _ = std::fs::remove_dir_all(root);
}
