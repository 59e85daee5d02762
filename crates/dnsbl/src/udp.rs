//! A live DNSBL server over UDP — the paper's DNSBLv6 running on an
//! actual socket with real RFC 1035 messages.
//!
//! One thread answers A queries (classic reversed-IP scheme) and AAAA
//! queries (DNSBLv6: the 128-bit /25 bitmap as the AAAA address), plus a
//! blocking stub-client helper for tests and demos.

use crate::wire::{Answer, Message, Rcode, RecordType};
use crate::{BlacklistDb, WireAnswer};
use spamaware_netaddr::QueryScheme;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Counters exposed by a running [`UdpDnsbl`].
#[derive(Debug, Default)]
pub struct UdpStats {
    /// Queries answered.
    pub answered: AtomicU64,
    /// Queries rejected as malformed.
    pub malformed: AtomicU64,
}

/// A DNSBL answering real DNS queries on a UDP socket.
///
/// # Example
///
/// ```no_run
/// use spamaware_dnsbl::{BlacklistDb, UdpDnsbl};
/// use spamaware_netaddr::Ipv4;
/// use std::time::Duration;
///
/// let db: BlacklistDb = [Ipv4::new(203, 0, 113, 7)].into_iter().collect();
/// let server = UdpDnsbl::start("127.0.0.1:0".parse().unwrap(), "bl.example", db)?;
/// let listed = UdpDnsbl::lookup_v4_timeout(
///     server.local_addr(),
///     "bl.example",
///     Ipv4::new(203, 0, 113, 7),
///     Duration::from_secs(3),
/// )?;
/// assert!(listed.is_some());
/// server.shutdown();
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct UdpDnsbl {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    stats: Arc<UdpStats>,
}

impl UdpDnsbl {
    /// Binds and starts the answering thread.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn start(
        bind: SocketAddr,
        zone: impl Into<String>,
        db: BlacklistDb,
    ) -> std::io::Result<UdpDnsbl> {
        let zone = zone.into();
        let socket = UdpSocket::bind(bind)?;
        socket.set_read_timeout(Some(Duration::from_millis(50)))?;
        let addr = socket.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(UdpStats::default());
        let handle = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("dnsblv6".to_owned())
                .spawn(move || serve(socket, &zone, &db, &stop, &stats))?
        };
        Ok(UdpDnsbl {
            addr,
            stop,
            handle: Some(handle),
            stats,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &UdpStats {
        &self.stats
    }

    /// Stops the server thread.
    pub fn shutdown(mut self) {
        self.stop_join();
    }

    fn stop_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }

    /// Blocking stub client: classic per-IP A lookup against `server`,
    /// waiting up to `timeout` — a caller checking DNSBLs inline must bound
    /// the wait itself. Returns the listing address (`127.0.0.x`) if
    /// listed. A lookup that exceeds `timeout` fails with
    /// `WouldBlock`/`TimedOut` (platform-dependent), distinguishable from
    /// network or decode errors.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a malformed response surfaces as
    /// `InvalidData`.
    pub fn lookup_v4_timeout(
        server: SocketAddr,
        zone: &str,
        ip: spamaware_netaddr::Ipv4,
        timeout: Duration,
    ) -> std::io::Result<Option<spamaware_netaddr::Ipv4>> {
        let name = spamaware_netaddr::QueryName::encode(ip, QueryScheme::Ipv4, zone);
        let resp = Self::exchange(
            server,
            Message::query(next_query_id(), name.as_str(), RecordType::A),
            timeout,
        )?;
        Ok(resp
            .answers
            .iter()
            .find(|a| a.rtype == RecordType::A && a.rdata.len() == 4)
            .map(|a| spamaware_netaddr::Ipv4::new(a.rdata[0], a.rdata[1], a.rdata[2], a.rdata[3])))
    }

    /// Blocking stub client: DNSBLv6 AAAA lookup waiting up to `timeout`
    /// (see [`lookup_v4_timeout`](Self::lookup_v4_timeout) for the error
    /// classification); returns the /25 bitmap.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a malformed response surfaces as
    /// `InvalidData`.
    pub fn lookup_v6_timeout(
        server: SocketAddr,
        zone: &str,
        ip: spamaware_netaddr::Ipv4,
        timeout: Duration,
    ) -> std::io::Result<spamaware_netaddr::PrefixBitmap> {
        let name = spamaware_netaddr::QueryName::encode(ip, QueryScheme::PrefixV6, zone);
        let resp = Self::exchange(
            server,
            Message::query(next_query_id(), name.as_str(), RecordType::Aaaa),
            timeout,
        )?;
        let bytes: [u8; 16] = resp
            .answers
            .iter()
            .filter(|a| a.rtype == RecordType::Aaaa)
            .find_map(|a| <[u8; 16]>::try_from(a.rdata.as_slice()).ok())
            .unwrap_or([0u8; 16]);
        Ok(spamaware_netaddr::PrefixBitmap::from_wire(
            ip.prefix25(),
            bytes,
        ))
    }

    fn exchange(server: SocketAddr, query: Message, timeout: Duration) -> std::io::Result<Message> {
        let socket = client_socket(server)?;
        // A zero timeout would mean "block forever" to the socket layer —
        // clamp to the smallest bounded wait instead.
        socket.set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        socket.send_to(&query.encode(), server)?;
        let mut buf = [0u8; 1024];
        let (n, _) = socket.recv_from(&mut buf)?;
        Message::decode(&buf[..n])
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// The socket one exchange with `server` runs on, bound to the unspecified
/// address of its family: Linux refuses to send from a loopback-bound
/// socket to any address off the host (`EINVAL`).
fn client_socket(server: SocketAddr) -> std::io::Result<UdpSocket> {
    let any: SocketAddr = match server {
        SocketAddr::V4(_) => (std::net::Ipv4Addr::UNSPECIFIED, 0).into(),
        SocketAddr::V6(_) => (std::net::Ipv6Addr::UNSPECIFIED, 0).into(),
    };
    UdpSocket::bind(any)
}

impl Drop for UdpDnsbl {
    fn drop(&mut self) {
        self.stop_join();
    }
}

/// Query IDs only need to be unique per outstanding query on this stub
/// client; a process-wide counter keeps them deterministic (determinism
/// lint: no ambient RNG in dnsbl).
fn next_query_id() -> u16 {
    use std::sync::atomic::AtomicU16;
    static NEXT: AtomicU16 = AtomicU16::new(0x5a5a);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

fn serve(socket: UdpSocket, zone: &str, db: &BlacklistDb, stop: &AtomicBool, stats: &UdpStats) {
    // Reuse the name-level answering logic through a zero-latency server
    // model so UDP and simulation agree byte-for-byte on the bitmaps.
    let model = crate::DnsblServer::new(zone, db.clone(), crate::LatencyModel::new(1.0, 0.1, 0.0));
    let mut buf = [0u8; 1024];
    while !stop.load(Ordering::SeqCst) {
        let (n, peer) = match socket.recv_from(&mut buf) {
            Ok(x) => x,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => break,
        };
        let Ok(query) = Message::decode(&buf[..n]) else {
            stats.malformed.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        let Some(q) = query.questions.first() else {
            stats.malformed.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        let scheme = match q.qtype {
            RecordType::A => QueryScheme::Ipv4,
            RecordType::Aaaa => QueryScheme::PrefixV6,
        };
        let response = match model.answer_wire(&q.name, scheme) {
            WireAnswer::Listed(code) => query.respond(
                Rcode::NoError,
                vec![Answer {
                    name: q.name.clone(),
                    rtype: RecordType::A,
                    ttl: 86_400,
                    rdata: code.answer_addr().octets().to_vec(),
                }],
            ),
            WireAnswer::NotListed => query.respond(Rcode::NoError, vec![]),
            WireAnswer::Bitmap(bytes) => query.respond(
                Rcode::NoError,
                vec![Answer {
                    name: q.name.clone(),
                    rtype: RecordType::Aaaa,
                    ttl: 86_400,
                    rdata: bytes.to_vec(),
                }],
            ),
            WireAnswer::NxDomain => query.respond(Rcode::NxDomain, vec![]),
        };
        stats.answered.fetch_add(1, Ordering::Relaxed);
        let _ = socket.send_to(&response.encode(), peer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spamaware_netaddr::Ipv4;

    const BUDGET: Duration = Duration::from_secs(3);

    fn server() -> UdpDnsbl {
        let db: BlacklistDb = [
            Ipv4::new(203, 0, 113, 7),
            Ipv4::new(203, 0, 113, 77),
            Ipv4::new(203, 0, 113, 200),
        ]
        .into_iter()
        .collect();
        UdpDnsbl::start("127.0.0.1:0".parse().expect("addr"), "bl.example", db)
            .expect("start udp dnsbl")
    }

    #[test]
    fn classic_lookup_over_udp() -> Result<(), Box<dyn std::error::Error>> {
        let s = server();
        let listed = UdpDnsbl::lookup_v4_timeout(
            s.local_addr(),
            "bl.example",
            Ipv4::new(203, 0, 113, 7),
            BUDGET,
        )?;
        assert_eq!(listed, Some(Ipv4::new(127, 0, 0, 2)));
        let clean = UdpDnsbl::lookup_v4_timeout(
            s.local_addr(),
            "bl.example",
            Ipv4::new(203, 0, 113, 8),
            BUDGET,
        )?;
        assert_eq!(clean, None);
        assert!(s.stats().answered.load(Ordering::Relaxed) >= 2);
        s.shutdown();
        Ok(())
    }

    #[test]
    fn bitmap_lookup_over_udp() -> Result<(), Box<dyn std::error::Error>> {
        let s = server();
        let bm = UdpDnsbl::lookup_v6_timeout(
            s.local_addr(),
            "bl.example",
            Ipv4::new(203, 0, 113, 9),
            BUDGET,
        )?;
        assert!(bm.contains(Ipv4::new(203, 0, 113, 7)));
        assert!(bm.contains(Ipv4::new(203, 0, 113, 77)));
        assert!(!bm.contains(Ipv4::new(203, 0, 113, 9)));
        assert_eq!(bm.count(), 2, "only the lower /25");
        s.shutdown();
        Ok(())
    }

    #[test]
    fn a_dnsbl_off_the_loopback_interface_is_reachable() -> Result<(), Box<dyn std::error::Error>> {
        // Connecting a UDP socket looks its route up and sends nothing, and
        // fails as a send would. A TEST-NET-1 address stands for a resolver
        // off the host; the local end of that route is this host's own
        // non-loopback address.
        let off_host: SocketAddr = "192.0.2.1:9".parse()?;
        let probe = UdpSocket::bind(("0.0.0.0", 0))?;
        if probe.connect(off_host).is_err() {
            println!("no IPv4 route off the host; nothing to check");
            return Ok(());
        }
        let host = probe.local_addr()?.ip();
        client_socket(off_host)?.connect(off_host)?;
        let db: BlacklistDb = [Ipv4::new(203, 0, 113, 7)].into_iter().collect();
        let s = UdpDnsbl::start(SocketAddr::new(host, 0), "bl.example", db)?;
        let bm = UdpDnsbl::lookup_v6_timeout(
            s.local_addr(),
            "bl.example",
            Ipv4::new(203, 0, 113, 9),
            BUDGET,
        )?;
        assert!(bm.contains(Ipv4::new(203, 0, 113, 7)));
        assert_eq!(bm.count(), 1);
        s.shutdown();
        Ok(())
    }

    #[test]
    fn blackholed_server_times_out_with_timeout_kind() {
        // A bound socket that never answers: the lookup must fail within
        // the budget and with a kind the caller can classify as a timeout.
        let sink = UdpSocket::bind(("127.0.0.1", 0)).expect("bind sink");
        let addr = sink.local_addr().expect("addr");
        let err = UdpDnsbl::lookup_v6_timeout(
            addr,
            "bl.example",
            Ipv4::new(203, 0, 113, 7),
            Duration::from_millis(30),
        )
        .expect_err("blackholed lookup must fail");
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "unexpected error kind: {err:?}"
        );
    }

    #[test]
    fn malformed_packets_are_counted_not_fatal() -> Result<(), Box<dyn std::error::Error>> {
        let s = server();
        let sock = UdpSocket::bind(("127.0.0.1", 0))?;
        sock.send_to(b"junk", s.local_addr())?;
        // Server keeps answering afterwards.
        let listed = UdpDnsbl::lookup_v4_timeout(
            s.local_addr(),
            "bl.example",
            Ipv4::new(203, 0, 113, 7),
            BUDGET,
        )?;
        assert!(listed.is_some());
        assert!(s.stats().malformed.load(Ordering::Relaxed) >= 1);
        s.shutdown();
        Ok(())
    }
}
