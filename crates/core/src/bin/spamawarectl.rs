#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // DESIGN.md §9
#![deny(clippy::unreachable)]
//! `spamawarectl` — admin tool for an on-disk MFS mail store.
//!
//! ```text
//! spamawarectl stats <store-root>
//! spamawarectl list <store-root> <mailbox>
//! spamawarectl cat <store-root> <mailbox> <n>
//! spamawarectl delete <store-root> <mailbox> <n>
//! spamawarectl compact <store-root>
//! spamawarectl fsck <store-root>
//! spamawarectl serve <store-root> <mailbox,...>
//! ```
//!
//! The store format is exactly what [`spamaware_core::LiveServer`] writes,
//! so this tool can inspect a live server's spool (stop the server first —
//! the store is single-writer). `fsck` repairs a crashed spool in place
//! (torn key-file tails, refcount drift, orphaned shared bodies) and
//! prints a deterministic report; `serve` runs a [`LiveServer`] on an
//! ephemeral localhost port until killed, printing `LISTENING <addr>` on
//! startup — the crash-recovery integration tests drive a real process
//! through it and `SIGKILL` it mid-delivery.
//!
//! [`LiveServer`]: spamaware_core::LiveServer

use spamaware_core::{LiveConfig, LiveServer, MailStore, MfsStore, RealDir};
use spamaware_mfs::{MailId, MailboxEntry};
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("spamawarectl: {msg}");
            eprintln!();
            eprintln!("usage:");
            eprintln!("  spamawarectl stats <store-root>");
            eprintln!("  spamawarectl list <store-root> <mailbox>");
            eprintln!("  spamawarectl cat <store-root> <mailbox> <n>");
            eprintln!("  spamawarectl delete <store-root> <mailbox> <n>");
            eprintln!("  spamawarectl compact <store-root>");
            eprintln!("  spamawarectl fsck <store-root>");
            eprintln!("  spamawarectl serve <store-root> <mailbox,...>");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().map(String::as_str).unwrap_or("");
    match cmd {
        "stats" => {
            let mut store = open_store(args.get(1))?;
            let s = store.stats();
            println!("shared mails:        {}", s.shared_mails);
            println!("shared bytes:        {}", s.shared_bytes);
            println!("reclaimable bytes:   {}", s.freed_shared_bytes);
            println!("own records:         {}", s.own_records);
            println!("shared references:   {}", s.shared_references);
            Ok(())
        }
        "list" => {
            let mut store = open_store(args.get(1))?;
            let mailbox = arg(args, 2, "mailbox")?;
            let entries = list(&mut store, mailbox)?;
            println!("{} mail(s) in {mailbox}:", entries.len());
            for (i, e) in entries.iter().enumerate() {
                println!("  {:>3}  [{}]  {} bytes", i + 1, e.id, e.len);
            }
            Ok(())
        }
        "cat" => {
            let mut store = open_store(args.get(1))?;
            let mailbox = arg(args, 2, "mailbox")?;
            let id = nth(&mut store, mailbox, index(args, 3)?)?;
            let mail = store
                .read_mail(mailbox, id)
                .map_err(|e| format!("cannot read {mailbox}: {e}"))?;
            print!("{}", String::from_utf8_lossy(&mail.body));
            Ok(())
        }
        "delete" => {
            let mut store = open_store(args.get(1))?;
            let mailbox = arg(args, 2, "mailbox")?;
            let id = nth(&mut store, mailbox, index(args, 3)?)?;
            store
                .delete(mailbox, id)
                .map_err(|e| format!("delete failed: {e}"))?;
            println!("deleted [{id}] from {mailbox}");
            Ok(())
        }
        "compact" => {
            let mut store = open_store(args.get(1))?;
            let reclaimed = store
                .compact()
                .map_err(|e| format!("compact failed: {e}"))?;
            println!("reclaimed {reclaimed} shared bytes");
            Ok(())
        }
        "fsck" => {
            let root = arg(args, 1, "store-root")?;
            let backend = RealDir::new(root).map_err(|e| format!("cannot open {root}: {e}"))?;
            let (_store, report) =
                spamaware_core::fsck(backend).map_err(|e| format!("fsck failed: {e}"))?;
            print!("{report}");
            Ok(())
        }
        "serve" => {
            let root = arg(args, 1, "store-root")?;
            let boxes: Vec<String> = arg(args, 2, "mailbox,...")?
                .split(',')
                .filter(|s| !s.is_empty())
                .map(str::to_owned)
                .collect();
            if boxes.is_empty() {
                return Err("no mailboxes given".to_owned());
            }
            let server = LiveServer::start(LiveConfig::localhost(root, boxes))
                .map_err(|e| format!("cannot start server: {e}"))?;
            println!("LISTENING {}", server.local_addr());
            println!("ADMIN {}", server.admin_addr());
            std::io::stdout()
                .flush()
                .map_err(|e| format!("stdout: {e}"))?;
            // Runs until the process is killed (the store's crash
            // consistency is exactly what the SIGKILL tests exercise) or
            // until an admin `DRAIN` command lands, at which point the
            // in-flight work is allowed to finish and the process exits
            // cleanly, printing `DRAINED`.
            loop {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the process's main thread, which serves nobody: it polls for the admin DRAIN flag"
                )]
                std::thread::sleep(std::time::Duration::from_millis(50));
                if server.is_draining() {
                    // The flag is already set, so the grace period here
                    // only waits out in-flight transactions.
                    let _ = server.drain(std::time::Duration::from_secs(30));
                    server.shutdown();
                    println!("DRAINED");
                    return Ok(());
                }
            }
        }
        "" => Err("missing command".to_owned()),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn open_store(root: Option<&String>) -> Result<MfsStore<RealDir>, String> {
    let root = root.ok_or("missing <store-root>")?;
    let backend = RealDir::new(root).map_err(|e| format!("cannot open {root}: {e}"))?;
    MfsStore::open(backend).map_err(|e| format!("cannot replay store at {root}: {e}"))
}

/// The mailbox's live mails, from its key file alone: no body is read.
fn list(store: &mut MfsStore<RealDir>, mailbox: &str) -> Result<Vec<MailboxEntry>, String> {
    store
        .list_entries(mailbox)
        .map_err(|e| format!("cannot read {mailbox}: {e}"))
}

/// The id of the mailbox's `n`th live mail, counting from 1.
fn nth(store: &mut MfsStore<RealDir>, mailbox: &str, n: usize) -> Result<MailId, String> {
    let entries = list(store, mailbox)?;
    entries
        .get(n - 1)
        .map(|e| e.id)
        .ok_or_else(|| format!("no mail {n} in {mailbox} ({} mails)", entries.len()))
}

fn arg<'a>(args: &'a [String], i: usize, what: &str) -> Result<&'a str, String> {
    args.get(i)
        .map(String::as_str)
        .ok_or_else(|| format!("missing <{what}>"))
}

fn index(args: &[String], i: usize) -> Result<usize, String> {
    let raw = arg(args, i, "mail number")?;
    let n: usize = raw
        .parse()
        .map_err(|_| format!("invalid mail number {raw:?}"))?;
    if n == 0 {
        return Err("mail numbers start at 1".to_owned());
    }
    Ok(n)
}
