//! The system under test, as its own process: `LiveServer` with the
//! unmodified `LiveConfig::localhost` defaults plus a `Pop3Server` over
//! the same store, on ephemeral ports.
//!
//! `bench_server <spool-dir> <mailbox-count>` hosts `user0..user<n-1>`,
//! prints `LISTENING <smtp> <pop3> <admin>` once all three sockets accept,
//! then blocks on stdin. The load generator holds the other end of that
//! pipe: after the admin `DRAIN` it closes it, and the server finishes
//! in-flight work, prints `DRAINED …` with the POP3 counters (which the
//! admin `METRICS` report does not carry) and exits. A generator that
//! dies closes the pipe too, so no server is ever left holding a port.

use spamaware_core::{LiveConfig, LiveServer, Pop3Server};
use std::io::{Read, Write};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (Some(spool), Some(count)) = (args.get(1), args.get(2).and_then(|n| n.parse::<u32>().ok()))
    else {
        eprintln!("usage: bench_server <spool-dir> <mailbox-count>");
        return ExitCode::from(2);
    };
    let mailboxes: Vec<String> = (0..count).map(|i| format!("user{i}")).collect();
    let server = match LiveServer::start(LiveConfig::localhost(spool, mailboxes.clone())) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_server: smtp: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bind = std::net::SocketAddr::from(([127, 0, 0, 1], 0));
    let pop3 = match Pop3Server::start(bind, server.store(), mailboxes) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("bench_server: pop3: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "LISTENING {} {} {}",
        server.local_addr(),
        pop3.local_addr(),
        server.admin_addr()
    );
    let _ = std::io::stdout().flush();

    // EOF (or any read error) on stdin is the exit signal.
    let mut sink = [0u8; 64];
    while matches!(std::io::stdin().read(&mut sink), Ok(n) if n > 0) {}

    let clean = server.drain(Duration::from_secs(10));
    let stats = pop3.stats();
    println!(
        "DRAINED clean={} pop3_sessions={} pop3_retrieved={} pop3_deleted={}",
        u8::from(clean),
        stats.sessions.load(Ordering::Relaxed),
        stats.retrieved.load(Ordering::Relaxed),
        stats.deleted.load(Ordering::Relaxed),
    );
    pop3.shutdown();
    server.shutdown();
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
