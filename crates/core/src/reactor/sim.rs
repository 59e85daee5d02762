//! Scripted readiness on virtual time: the deterministic [`Reactor`].
//!
//! A [`SimReactor`] replays a pre-written schedule of network events —
//! connects, byte deliveries, peer EOFs, write-window grants, drain/stop
//! control flips — against a [`ManualClock`]. [`Reactor::wait`] never
//! sleeps: it either reports readiness that is already pending
//! (level-triggered, like epoll), or jumps the clock forward to the next
//! scripted event or the caller's timer deadline, whichever is sooner.
//! Driven this way, the session engine in [`crate::driver`] — under the
//! pre-trust and the post-trust protocol alike — runs its full behavior
//! (timeouts, drain, shed, slowloris eviction, write backpressure, `DATA`
//! deadlines) byte-identically on every run, with zero real sockets or
//! sleeps.
//!
//! [`SimAcceptor`] and [`SimConn`] are the transport doubles; all three
//! share one scripted-network state, so a test builds a reactor, takes
//! its acceptor, runs the engine, and then inspects per-connection
//! output bytes, open/closed state, and the reactor's event log.
//!
//! Write backpressure is scripted through per-connection **windows**: a
//! connection starts with an unlimited window (every write is accepted
//! whole, like a healthy peer with an empty socket buffer), and a
//! [`SimEvent::Window`] grant switches it to a byte budget — writes
//! consume the budget, a zero budget returns `WouldBlock` (the scripted
//! zero-window stall), and later grants model the peer draining its
//! receive buffer.
//!
//! No wall-clock reads or ambient entropy here: `crates/core/clippy.toml`
//! refuses both (DESIGN.md §9), and the file holds no hash containers.

use super::{Pollable, Reactor, ReadyEvent};
use crate::driver::{Acceptor, Conn};
use spamaware_metrics::{lock, Clock, ManualClock};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, ErrorKind};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// The `poll_id` of the simulated acceptor (connection ids are small
/// integers chosen by the script, so the top of the space is free).
pub const SIM_ACCEPTOR_ID: u64 = u64::MAX;

/// One scripted network event.
#[derive(Debug, Clone)]
pub enum SimEvent {
    /// A client finishes its TCP handshake.
    Connect {
        /// Script-chosen connection id (the `poll_id` of its [`SimConn`]).
        conn: u64,
        /// The peer address the acceptor reports.
        peer: SocketAddr,
    },
    /// Bytes arrive from the client.
    Data {
        /// Target connection id.
        conn: u64,
        /// Payload appended to the connection's input.
        bytes: Vec<u8>,
    },
    /// The client half-closes; reads drain the buffer then return EOF.
    Eof {
        /// Target connection id.
        conn: u64,
    },
    /// The peer grants `bytes` of write budget (its kernel acked that
    /// much of our output). The first grant switches the connection from
    /// the default unlimited window to scripted flow control — grant `0`
    /// at connect time to model a peer that stalls from the first byte.
    Window {
        /// Target connection id.
        conn: u64,
        /// Additional bytes the connection will accept.
        bytes: usize,
    },
    /// The operator requests a graceful drain.
    Drain,
    /// The operator stops the server; the engine exits at this wakeup.
    Stop,
}

/// A simulated client connection's kernel-side state.
#[derive(Debug, Default)]
struct ConnState {
    input: VecDeque<u8>,
    eof: bool,
    output: Vec<u8>,
    open: bool,
    /// Remaining write budget: `None` (default) accepts everything,
    /// `Some(n)` accepts up to `n` bytes and then `WouldBlock`s.
    window: Option<usize>,
}

impl ConnState {
    /// Whether a write of at least one byte would currently succeed.
    fn writable(&self) -> bool {
        self.window.is_none_or(|w| w > 0)
    }
}

/// The scripted network: pending handshakes plus per-connection buffers.
#[derive(Debug, Default)]
struct NetState {
    pending: VecDeque<(u64, SocketAddr)>,
    conns: BTreeMap<u64, ConnState>,
}

/// The engine-side handle to one scripted connection.
#[derive(Debug)]
pub struct SimConn {
    id: u64,
    net: Arc<Mutex<NetState>>,
}

impl Pollable for SimConn {
    fn poll_id(&self) -> u64 {
        self.id
    }
}

impl Conn for SimConn {
    fn read_ready(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut net = lock(&self.net);
        let Some(st) = net.conns.get_mut(&self.id) else {
            return Ok(0);
        };
        if st.input.is_empty() {
            if st.eof {
                return Ok(0);
            }
            return Err(io::Error::from(ErrorKind::WouldBlock));
        }
        let n = st.input.len().min(buf.len());
        for slot in buf.iter_mut().take(n) {
            // The VecDeque is non-empty for each of the first `n` pops.
            *slot = st.input.pop_front().unwrap_or(0);
        }
        Ok(n)
    }

    fn write_ready(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut net = lock(&self.net);
        let Some(st) = net.conns.get_mut(&self.id) else {
            // Scripted teardown already forgot the connection: swallow the
            // bytes like a closed socket's last write racing the RST.
            return Ok(buf.len());
        };
        match st.window {
            None => {
                st.output.extend_from_slice(buf);
                Ok(buf.len())
            }
            Some(0) => Err(io::Error::from(ErrorKind::WouldBlock)),
            Some(w) => {
                let n = w.min(buf.len());
                st.output.extend_from_slice(&buf[..n]);
                st.window = Some(w - n);
                Ok(n)
            }
        }
    }
}

impl Drop for SimConn {
    fn drop(&mut self) {
        // The engine closing the socket, observable to the test as
        // `!conn_open(id)`.
        let mut net = lock(&self.net);
        if let Some(st) = net.conns.get_mut(&self.id) {
            st.open = false;
        }
    }
}

/// The engine-side handle to the scripted listening socket.
#[derive(Debug)]
pub struct SimAcceptor {
    net: Arc<Mutex<NetState>>,
}

impl Pollable for SimAcceptor {
    fn poll_id(&self) -> u64 {
        SIM_ACCEPTOR_ID
    }
}

impl Acceptor for SimAcceptor {
    type Conn = SimConn;

    fn try_accept(&mut self) -> io::Result<Option<(SimConn, SocketAddr)>> {
        let mut net = lock(&self.net);
        let Some((id, peer)) = net.pending.pop_front() else {
            return Ok(None);
        };
        if let Some(st) = net.conns.get_mut(&id) {
            st.open = true;
        }
        Ok(Some((
            SimConn {
                id,
                net: Arc::clone(&self.net),
            },
            peer,
        )))
    }
}

/// Deterministic reactor replaying a [`SimEvent`] schedule on virtual
/// time.
#[derive(Debug)]
pub struct SimReactor {
    clock: ManualClock,
    /// Remaining script, sorted by time (stable, so same-time events keep
    /// their authoring order).
    script: VecDeque<(u64, SimEvent)>,
    net: Arc<Mutex<NetState>>,
    /// `poll_id → (token, reads muted, write interest armed)`.
    registered: BTreeMap<u64, (u64, bool, bool)>,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    log: Vec<String>,
}

impl SimReactor {
    /// Builds a reactor over `clock` that will replay `script` (sorted by
    /// event time here; same-time order is preserved) and flip the given
    /// `stop`/`draining` flags when control events fire. When the script
    /// runs out while the engine would wait forever, the reactor sets
    /// `stop` itself so simulations always terminate.
    pub fn new(
        clock: &ManualClock,
        stop: &Arc<AtomicBool>,
        draining: &Arc<AtomicBool>,
        mut script: Vec<(u64, SimEvent)>,
    ) -> SimReactor {
        script.sort_by_key(|&(at, _)| at);
        SimReactor {
            clock: clock.clone(),
            script: script.into(),
            net: Arc::new(Mutex::new(NetState::default())),
            registered: BTreeMap::new(),
            stop: Arc::clone(stop),
            draining: Arc::clone(draining),
            log: Vec::new(),
        }
    }

    /// The acceptor double sharing this reactor's scripted network.
    pub fn acceptor(&self) -> SimAcceptor {
        SimAcceptor {
            net: Arc::clone(&self.net),
        }
    }

    /// The deterministic event log: one line per delivered event,
    /// readiness report, interest change, and timer wakeup. Two identical
    /// runs produce byte-identical logs.
    pub fn log(&self) -> &[String] {
        &self.log
    }

    /// Everything the server wrote to connection `conn` so far.
    pub fn output(&self, conn: u64) -> Vec<u8> {
        lock(&self.net)
            .conns
            .get(&conn)
            .map(|st| st.output.clone())
            .unwrap_or_default()
    }

    /// Whether the engine still holds connection `conn` open (false
    /// before accept and after the engine dropped it).
    pub fn conn_open(&self, conn: u64) -> bool {
        lock(&self.net)
            .conns
            .get(&conn)
            .map(|st| st.open)
            .unwrap_or(false)
    }

    /// Bytes the client sent that the engine never consumed.
    pub fn unread_input(&self, conn: u64) -> usize {
        lock(&self.net)
            .conns
            .get(&conn)
            .map(|st| st.input.len())
            .unwrap_or(0)
    }

    /// Applies one scripted event to the network/control state.
    fn apply(&mut self, at: u64, ev: SimEvent) {
        match ev {
            SimEvent::Connect { conn, peer } => {
                {
                    let mut net = lock(&self.net);
                    net.conns.entry(conn).or_default();
                    net.pending.push_back((conn, peer));
                }
                self.log.push(format!("t={at} connect conn={conn}"));
            }
            SimEvent::Data { conn, bytes } => {
                {
                    let mut net = lock(&self.net);
                    let st = net.conns.entry(conn).or_default();
                    st.input.extend(bytes.iter().copied());
                }
                self.log
                    .push(format!("t={at} data conn={conn} len={}", bytes.len()));
            }
            SimEvent::Eof { conn } => {
                {
                    let mut net = lock(&self.net);
                    net.conns.entry(conn).or_default().eof = true;
                }
                self.log.push(format!("t={at} eof conn={conn}"));
            }
            SimEvent::Window { conn, bytes } => {
                {
                    let mut net = lock(&self.net);
                    let st = net.conns.entry(conn).or_default();
                    st.window = Some(st.window.unwrap_or(0).saturating_add(bytes));
                }
                self.log
                    .push(format!("t={at} window conn={conn} bytes={bytes}"));
            }
            SimEvent::Drain => {
                self.draining.store(true, Ordering::SeqCst);
                self.log.push(format!("t={at} drain"));
            }
            SimEvent::Stop => {
                self.stop.store(true, Ordering::SeqCst);
                self.log.push(format!("t={at} stop"));
            }
        }
    }

    /// Ready events under level-triggered semantics: the acceptor while a
    /// handshake is pending, a connection while it has unread input or a
    /// pending EOF (readable) or an armed write interest with window room
    /// (writable). Order follows registration ids, deterministically.
    fn collect_ready(&self, out: &mut Vec<ReadyEvent>) {
        let net = lock(&self.net);
        for (&poll_id, &(token, muted, write_armed)) in &self.registered {
            if poll_id == SIM_ACCEPTOR_ID {
                if !net.pending.is_empty() {
                    out.push(ReadyEvent {
                        token,
                        readable: true,
                        writable: false,
                    });
                }
            } else if let Some(st) = net.conns.get(&poll_id) {
                let readable = !muted && (!st.input.is_empty() || st.eof);
                let writable = write_armed && st.writable();
                if readable || writable {
                    out.push(ReadyEvent {
                        token,
                        readable,
                        writable,
                    });
                }
            }
        }
    }

    /// Compact, stable rendering of a readiness batch for the log.
    fn render_ready(out: &[ReadyEvent]) -> String {
        let items: Vec<String> = out
            .iter()
            .map(|ev| {
                let mut s = ev.token.to_string();
                if ev.readable {
                    s.push('r');
                }
                if ev.writable {
                    s.push('w');
                }
                s
            })
            .collect();
        format!("[{}]", items.join(", "))
    }
}

impl Reactor for SimReactor {
    fn register(&mut self, poll_id: u64, token: u64) -> io::Result<()> {
        self.registered.insert(poll_id, (token, false, false));
        self.log
            .push(format!("watch id={poll_id:#x} token={token}"));
        Ok(())
    }

    fn deregister(&mut self, poll_id: u64) -> io::Result<()> {
        self.registered.remove(&poll_id);
        self.log.push(format!("unwatch id={poll_id:#x}"));
        Ok(())
    }

    fn set_interest(&mut self, poll_id: u64, read: bool, write: bool) -> io::Result<()> {
        let Some(entry) = self.registered.get_mut(&poll_id) else {
            return Err(io::Error::from(ErrorKind::NotFound));
        };
        let (_, muted, armed) = *entry;
        (entry.1, entry.2) = (!read, write);
        if armed != write {
            let state = if write { "arm" } else { "disarm" };
            self.log.push(format!("{state}-write id={poll_id:#x}"));
        }
        if muted == read {
            let state = if read { "unmute" } else { "mute" };
            self.log.push(format!("{state}-read id={poll_id:#x}"));
        }
        Ok(())
    }

    fn wait(&mut self, timeout_ns: Option<u64>, out: &mut Vec<ReadyEvent>) -> io::Result<()> {
        // Level-triggered: readiness the engine has not yet consumed
        // returns immediately, without advancing time.
        self.collect_ready(out);
        let now = self.clock.now_nanos();
        if !out.is_empty() {
            self.log
                .push(format!("t={now} ready {}", Self::render_ready(out)));
            return Ok(());
        }
        let due = timeout_ns.map(|t| now.saturating_add(t));
        let next_event = self.script.front().map(|&(at, _)| at);
        match next_event {
            Some(at) if due.is_none_or(|d| at <= d) => {
                // Jump to the next scripted instant and deliver every
                // event at it (a burst arrives atomically, like one
                // epoll_wait batch).
                self.clock.set(at.max(now));
                while let Some(&(t, _)) = self.script.front() {
                    if t > at {
                        break;
                    }
                    if let Some((t, ev)) = self.script.pop_front() {
                        self.apply(t, ev);
                    }
                }
                self.collect_ready(out);
                self.log.push(format!(
                    "t={} ready {}",
                    self.clock.now_nanos(),
                    Self::render_ready(out)
                ));
                Ok(())
            }
            _ => match due {
                Some(d) => {
                    // Nothing scripted before the caller's deadline: this
                    // wakeup is a timer expiry.
                    self.clock.set(d.max(now));
                    self.log.push(format!("t={d} timer"));
                    Ok(())
                }
                None => {
                    // Script exhausted and the engine would wait forever:
                    // end the simulation instead of hanging the test.
                    self.stop.store(true, Ordering::SeqCst);
                    self.log.push(format!("t={now} script-exhausted"));
                    Ok(())
                }
            },
        }
    }
}
