//! The authoritative DNSBL server model.

use crate::{BlacklistDb, LatencyModel, ListingCode};
use rand::Rng;
use spamaware_netaddr::{Ipv4, Prefix25, PrefixBitmap, QueryName, QueryScheme};
use spamaware_sim::Nanos;

/// An authoritative DNSBL server: a zone name, a blacklist database, and a
/// cold-query latency model.
///
/// Supports both wire schemes of the paper:
///
/// * classic per-IP A queries (`w.z.y.x.<zone>` → `127.0.0.x`), and
/// * DNSBLv6 AAAA queries (`{0|1}.z.y.x.<zone>` → a 128-bit /25 bitmap).
///
/// # Example
///
/// ```
/// use spamaware_dnsbl::{BlacklistDb, DnsblServer, LatencyModel};
/// use spamaware_netaddr::Ipv4;
///
/// let bad = Ipv4::new(203, 0, 113, 7);
/// let db: BlacklistDb = [bad].into_iter().collect();
/// let server = DnsblServer::new("bl.example", db, LatencyModel::new(40.0, 0.8, 0.05));
/// let mut rng = spamaware_sim::det_rng(1);
/// let (code, latency) = server.query_v4(bad, &mut rng);
/// assert!(code.is_some());
/// assert!(latency > spamaware_sim::Nanos::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct DnsblServer {
    zone: String,
    db: BlacklistDb,
    latency: LatencyModel,
}

/// A decoded answer to a wire-level DNSBL query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireAnswer {
    /// Classic scheme: listed with the given code.
    Listed(ListingCode),
    /// Classic scheme: empty answer section (not listed).
    NotListed,
    /// DNSBLv6 scheme: the 16-byte AAAA payload carrying the /25 bitmap.
    Bitmap([u8; 16]),
    /// The name did not parse under either scheme (NXDOMAIN).
    NxDomain,
}

impl DnsblServer {
    /// Creates a server for `zone` over `db`.
    ///
    /// # Panics
    ///
    /// Panics if `zone` is empty.
    pub fn new(zone: impl Into<String>, db: BlacklistDb, latency: LatencyModel) -> DnsblServer {
        let zone = zone.into();
        assert!(!zone.is_empty(), "zone must be non-empty");
        DnsblServer { zone, db, latency }
    }

    /// The zone this server is authoritative for.
    pub fn zone(&self) -> &str {
        &self.zone
    }

    /// Classic per-IP query: listing status plus the sampled cold latency.
    pub fn query_v4<R: Rng + ?Sized>(&self, ip: Ipv4, rng: &mut R) -> (Option<ListingCode>, Nanos) {
        (self.db.lookup(ip), self.latency.sample(rng))
    }

    /// DNSBLv6 query: the /25 bitmap plus the sampled cold latency.
    pub fn query_v6<R: Rng + ?Sized>(
        &self,
        prefix: Prefix25,
        rng: &mut R,
    ) -> (PrefixBitmap, Nanos) {
        (self.db.bitmap(prefix), self.latency.sample(rng))
    }

    /// Answers a raw wire query name, dispatching on the scheme implied by
    /// the name's shape. Used by the wire-level tests and the live demo.
    pub fn answer_wire(&self, name: &str, scheme: QueryScheme) -> WireAnswer {
        match scheme {
            QueryScheme::Ipv4 => match QueryName::decode_ipv4(name, &self.zone) {
                Some(ip) => match self.db.lookup(ip) {
                    Some(code) => WireAnswer::Listed(code),
                    None => WireAnswer::NotListed,
                },
                None => WireAnswer::NxDomain,
            },
            QueryScheme::PrefixV6 => match QueryName::decode_prefix_v6(name, &self.zone) {
                Some(p) => WireAnswer::Bitmap(self.db.bitmap(p).to_wire()),
                None => WireAnswer::NxDomain,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spamaware_sim::det_rng;

    fn server() -> DnsblServer {
        let db: BlacklistDb = [
            Ipv4::new(203, 0, 113, 7),
            Ipv4::new(203, 0, 113, 77),
            Ipv4::new(203, 0, 113, 200),
        ]
        .into_iter()
        .collect();
        DnsblServer::new("bl.example", db, LatencyModel::new(40.0, 0.8, 0.05))
    }

    #[test]
    fn v4_queries_report_listing() {
        let s = server();
        let mut rng = det_rng(60);
        let (code, _) = s.query_v4(Ipv4::new(203, 0, 113, 7), &mut rng);
        assert_eq!(code, Some(ListingCode::GENERIC));
        let (code, _) = s.query_v4(Ipv4::new(203, 0, 113, 8), &mut rng);
        assert_eq!(code, None);
    }

    #[test]
    fn v6_bitmap_covers_whole_25() {
        let s = server();
        let mut rng = det_rng(61);
        let p = Ipv4::new(203, 0, 113, 7).prefix25();
        let (bm, _) = s.query_v6(p, &mut rng);
        assert!(bm.contains(Ipv4::new(203, 0, 113, 7)));
        assert!(bm.contains(Ipv4::new(203, 0, 113, 77)));
        assert!(!bm.contains(Ipv4::new(203, 0, 113, 8)));
        assert_eq!(bm.count(), 2); // .200 lives in the upper /25
    }

    #[test]
    fn wire_roundtrip_classic() {
        let s = server();
        let q = QueryName::encode(Ipv4::new(203, 0, 113, 7), QueryScheme::Ipv4, "bl.example");
        assert_eq!(
            s.answer_wire(q.as_str(), QueryScheme::Ipv4),
            WireAnswer::Listed(ListingCode::GENERIC)
        );
        let q = QueryName::encode(Ipv4::new(203, 0, 113, 9), QueryScheme::Ipv4, "bl.example");
        assert_eq!(
            s.answer_wire(q.as_str(), QueryScheme::Ipv4),
            WireAnswer::NotListed
        );
    }

    #[test]
    fn wire_roundtrip_v6_bitmap() {
        let s = server();
        let ip = Ipv4::new(203, 0, 113, 200);
        let q = QueryName::encode(ip, QueryScheme::PrefixV6, "bl.example");
        match s.answer_wire(q.as_str(), QueryScheme::PrefixV6) {
            WireAnswer::Bitmap(bytes) => {
                let bm = PrefixBitmap::from_wire(ip.prefix25(), bytes);
                assert!(bm.contains(ip));
                assert_eq!(bm.count(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn malformed_names_get_nxdomain() {
        let s = server();
        assert_eq!(
            s.answer_wire("garbage.bl.example", QueryScheme::Ipv4),
            WireAnswer::NxDomain
        );
        assert_eq!(
            s.answer_wire("5.1.2.3.other.zone", QueryScheme::PrefixV6),
            WireAnswer::NxDomain
        );
    }

    #[test]
    fn latency_is_sampled_per_query() {
        let s = server();
        let mut rng = det_rng(62);
        let (_, a) = s.query_v4(Ipv4::new(1, 1, 1, 1), &mut rng);
        let (_, b) = s.query_v4(Ipv4::new(1, 1, 1, 1), &mut rng);
        assert_ne!(a, b);
    }
}
