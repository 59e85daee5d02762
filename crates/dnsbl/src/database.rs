//! The blacklist database held by a DNSBL server.

use spamaware_netaddr::{Ipv4, Prefix25, PrefixBitmap};
use std::collections::{HashMap, HashSet};

/// The listing code returned for a blacklisted IP.
///
/// Classic DNSBLs answer with an A record `127.0.0.x` where `x` encodes the
/// kind of spamming activity (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ListingCode(pub u8);

impl ListingCode {
    /// The generic "listed" code `127.0.0.2` used by most lists.
    pub const GENERIC: ListingCode = ListingCode(2);

    /// Renders the A-record answer for this code.
    pub fn answer_addr(self) -> Ipv4 {
        Ipv4::new(127, 0, 0, self.0)
    }
}

/// An in-memory blacklist: the authoritative data behind a DNSBL zone.
///
/// Stores the listed set both as a hash set (per-IP queries) and as /25
/// bitmaps (DNSBLv6 queries), so both schemes answer from the same truth.
///
/// # Example
///
/// ```
/// use spamaware_dnsbl::BlacklistDb;
/// use spamaware_netaddr::Ipv4;
///
/// let bad = Ipv4::new(203, 0, 113, 7);
/// let db: BlacklistDb = [bad].into_iter().collect();
/// assert!(db.lookup(bad).is_some());
/// assert!(db.lookup(Ipv4::new(203, 0, 113, 8)).is_none());
/// assert!(db.bitmap(bad.prefix25()).contains(bad));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BlacklistDb {
    listed: HashSet<Ipv4>,
    bitmaps: HashMap<Prefix25, PrefixBitmap>,
}

impl BlacklistDb {
    /// Creates an empty database.
    pub fn new() -> BlacklistDb {
        BlacklistDb::default()
    }

    /// Adds one IP to the blacklist. Idempotent.
    pub fn insert(&mut self, ip: Ipv4) {
        if self.listed.insert(ip) {
            self.bitmaps
                .entry(ip.prefix25())
                .or_insert_with(|| PrefixBitmap::empty(ip.prefix25()))
                .set(ip);
        }
    }

    /// Whether (and how) an IP is listed.
    pub fn lookup(&self, ip: Ipv4) -> Option<ListingCode> {
        if self.listed.contains(&ip) {
            Some(ListingCode::GENERIC)
        } else {
            None
        }
    }

    /// The /25 bitmap covering `prefix` (all-clear when nothing is listed).
    pub fn bitmap(&self, prefix: Prefix25) -> PrefixBitmap {
        self.bitmaps
            .get(&prefix)
            .copied()
            .unwrap_or_else(|| PrefixBitmap::empty(prefix))
    }

    /// Number of listed IPs.
    pub fn len(&self) -> usize {
        self.listed.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.listed.is_empty()
    }
}

impl FromIterator<Ipv4> for BlacklistDb {
    fn from_iter<I: IntoIterator<Item = Ipv4>>(iter: I) -> BlacklistDb {
        let mut db = BlacklistDb::new();
        for ip in iter {
            db.insert(ip);
        }
        db
    }
}

impl Extend<Ipv4> for BlacklistDb {
    fn extend<I: IntoIterator<Item = Ipv4>>(&mut self, iter: I) {
        for ip in iter {
            self.insert(ip);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut db = BlacklistDb::new();
        let ip = Ipv4::new(1, 2, 3, 4);
        assert!(db.lookup(ip).is_none());
        db.insert(ip);
        assert_eq!(db.lookup(ip), Some(ListingCode::GENERIC));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn insert_is_idempotent() {
        let mut db = BlacklistDb::new();
        let ip = Ipv4::new(1, 2, 3, 4);
        db.insert(ip);
        db.insert(ip);
        assert_eq!(db.len(), 1);
        assert_eq!(db.bitmap(ip.prefix25()).count(), 1);
    }

    #[test]
    fn bitmap_agrees_with_per_ip_truth() {
        let ips = [
            Ipv4::new(9, 9, 9, 1),
            Ipv4::new(9, 9, 9, 100),
            Ipv4::new(9, 9, 9, 200),
        ];
        let db: BlacklistDb = ips.into_iter().collect();
        for p in [ips[0].prefix25(), ips[2].prefix25()] {
            let bm = db.bitmap(p);
            for ip in p.addresses() {
                assert_eq!(bm.contains(ip), db.lookup(ip).is_some(), "{ip}");
            }
        }
    }

    #[test]
    fn unlisted_prefix_gets_empty_bitmap() {
        let db = BlacklistDb::new();
        let p = Ipv4::new(8, 8, 8, 8).prefix25();
        assert!(db.bitmap(p).is_empty());
    }

    #[test]
    fn listing_code_answer_address() {
        assert_eq!(ListingCode::GENERIC.answer_addr(), Ipv4::new(127, 0, 0, 2));
        assert_eq!(ListingCode(9).answer_addr().to_string(), "127.0.0.9");
    }

    #[test]
    fn extend_adds_everything() {
        let mut db = BlacklistDb::new();
        db.extend((1..=5u8).map(|i| Ipv4::new(10, 0, 0, i)));
        assert_eq!(db.len(), 5);
    }
}
