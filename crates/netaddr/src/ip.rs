//! IPv4 addresses and prefix newtypes.

use std::fmt;
use std::str::FromStr;

/// An IPv4 address stored as a big-endian `u32`.
///
/// # Example
///
/// ```
/// use spamaware_netaddr::Ipv4;
/// let ip = Ipv4::new(192, 0, 2, 200);
/// assert_eq!(ip.octets(), [192, 0, 2, 200]);
/// assert_eq!(ip.to_string(), "192.0.2.200");
/// assert!(ip.prefix25().upper_half());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ipv4(u32);

impl Ipv4 {
    /// Builds an address from four octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Ipv4 {
        Ipv4(u32::from_be_bytes([a, b, c, d]))
    }

    /// Builds an address from its big-endian `u32` representation.
    pub const fn from_u32(v: u32) -> Ipv4 {
        Ipv4(v)
    }

    /// The big-endian `u32` representation.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// The four octets, most significant first.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// The /24 prefix containing this address.
    pub const fn prefix24(self) -> Prefix24 {
        Prefix24(self.0 >> 8)
    }

    /// The /25 prefix containing this address.
    pub const fn prefix25(self) -> Prefix25 {
        Prefix25(self.0 >> 7)
    }

    /// The address's index within its /25 (0–127); this is the bit this
    /// address occupies in a [`crate::PrefixBitmap`].
    pub const fn index_in_prefix25(self) -> u8 {
        (self.0 & 0x7f) as u8
    }
}

impl fmt::Display for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl From<[u8; 4]> for Ipv4 {
    fn from(o: [u8; 4]) -> Ipv4 {
        Ipv4::new(o[0], o[1], o[2], o[3])
    }
}

impl From<std::net::Ipv4Addr> for Ipv4 {
    fn from(a: std::net::Ipv4Addr) -> Ipv4 {
        Ipv4::from(a.octets())
    }
}

impl From<Ipv4> for std::net::Ipv4Addr {
    fn from(a: Ipv4) -> std::net::Ipv4Addr {
        let [x, y, z, w] = a.octets();
        std::net::Ipv4Addr::new(x, y, z, w)
    }
}

/// Error returned when parsing an [`Ipv4`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIpError {
    input: String,
}

impl fmt::Display for ParseIpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid IPv4 address syntax: {:?}", self.input)
    }
}

impl std::error::Error for ParseIpError {}

impl FromStr for Ipv4 {
    type Err = ParseIpError;

    fn from_str(s: &str) -> Result<Ipv4, ParseIpError> {
        let err = || ParseIpError {
            input: s.to_owned(),
        };
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for o in &mut octets {
            let part = parts.next().ok_or_else(err)?;
            if part.is_empty() || part.len() > 3 || !part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(err());
            }
            if part.len() > 1 && part.starts_with('0') {
                return Err(err());
            }
            *o = part.parse().map_err(|_| err())?;
        }
        if parts.next().is_some() {
            return Err(err());
        }
        Ok(Ipv4::from(octets))
    }
}

/// A /24 IPv4 prefix (`x.y.z.0/24`), the spatial-locality unit measured in
/// the paper's Figs. 12–13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix24(u32);

impl Prefix24 {
    /// Builds from the top three octets.
    pub const fn new(a: u8, b: u8, c: u8) -> Prefix24 {
        Prefix24(((a as u32) << 16) | ((b as u32) << 8) | c as u32)
    }

    /// The raw 24-bit value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// The `i`-th address in this prefix (0–255).
    pub const fn nth(self, i: u8) -> Ipv4 {
        Ipv4::from_u32((self.0 << 8) | i as u32)
    }

    /// Iterates all 256 addresses in the prefix.
    pub fn addresses(self) -> impl Iterator<Item = Ipv4> {
        (0u16..256).map(move |i| self.nth(i as u8))
    }

    /// The two /25 halves of this /24.
    pub const fn halves(self) -> (Prefix25, Prefix25) {
        (Prefix25(self.0 << 1), Prefix25((self.0 << 1) | 1))
    }
}

impl fmt::Display for Prefix24 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/24", self.nth(0))
    }
}

/// A /25 IPv4 prefix, the aggregation unit of the DNSBLv6 bitmap scheme:
/// one AAAA answer's 128 bits cover exactly one /25.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix25(u32);

impl Prefix25 {
    /// The raw 25-bit value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Whether this is the upper half of its /24 (last octet ≥ 128) — the
    /// paper's `1.z.y.x` query-label case.
    pub const fn upper_half(self) -> bool {
        self.0 & 1 == 1
    }

    /// The /24 containing this /25.
    pub const fn prefix24(self) -> Prefix24 {
        Prefix24(self.0 >> 1)
    }

    /// The `i`-th address in this prefix (0–127).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 128`.
    pub fn nth(self, i: u8) -> Ipv4 {
        assert!(i < 128, "/25 index out of range: {i}");
        Ipv4::from_u32((self.0 << 7) | i as u32)
    }

    /// Iterates all 128 addresses in the prefix.
    pub fn addresses(self) -> impl Iterator<Item = Ipv4> {
        (0u8..128).map(move |i| self.nth(i))
    }
}

impl fmt::Display for Prefix25 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/25", self.nth(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn octet_roundtrip() {
        let ip = Ipv4::new(10, 20, 30, 40);
        assert_eq!(ip.octets(), [10, 20, 30, 40]);
        assert_eq!(Ipv4::from(ip.octets()), ip);
        assert_eq!(Ipv4::from_u32(ip.as_u32()), ip);
    }

    #[test]
    fn display_and_parse_roundtrip() {
        for s in ["0.0.0.0", "255.255.255.255", "192.0.2.1", "8.8.8.8"] {
            let ip: Ipv4 = s.parse().unwrap();
            assert_eq!(ip.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for s in [
            "",
            "1.2.3",
            "1.2.3.4.5",
            "256.1.1.1",
            "1.2.3.x",
            "01.2.3.4",
            "1..2.3",
            " 1.2.3.4",
            "1.2.3.4 ",
        ] {
            assert!(s.parse::<Ipv4>().is_err(), "accepted {s:?}");
        }
    }

    #[test]
    fn parse_error_is_displayable() {
        let e = "nope".parse::<Ipv4>().unwrap_err();
        assert!(e.to_string().contains("invalid IPv4 address syntax"));
    }

    #[test]
    fn std_conversions() {
        let ip = Ipv4::new(1, 2, 3, 4);
        let std_ip: std::net::Ipv4Addr = ip.into();
        assert_eq!(std_ip, std::net::Ipv4Addr::new(1, 2, 3, 4));
        assert_eq!(Ipv4::from(std_ip), ip);
    }

    #[test]
    fn prefix24_contains_its_addresses() {
        let p = Prefix24::new(198, 51, 100);
        assert_eq!(p.nth(0).to_string(), "198.51.100.0");
        assert_eq!(p.nth(255).to_string(), "198.51.100.255");
        for ip in p.addresses() {
            assert_eq!(ip.prefix24(), p);
        }
        assert_eq!(p.addresses().count(), 256);
    }

    #[test]
    fn prefix25_halves_partition_the_24() {
        let p24 = Prefix24::new(198, 51, 100);
        let (lo, hi) = p24.halves();
        assert!(!lo.upper_half());
        assert!(hi.upper_half());
        assert_eq!(lo.prefix24(), p24);
        assert_eq!(hi.prefix24(), p24);
        let ip_low = Ipv4::new(198, 51, 100, 127);
        let ip_high = Ipv4::new(198, 51, 100, 128);
        assert_eq!(ip_low.prefix25(), lo);
        assert_eq!(ip_high.prefix25(), hi);
        assert_eq!(ip_low.index_in_prefix25(), 127);
        assert_eq!(ip_high.index_in_prefix25(), 0);
    }

    #[test]
    fn prefix25_iterates_128_addresses() {
        let p = Ipv4::new(10, 0, 0, 200).prefix25();
        let addrs: Vec<Ipv4> = p.addresses().collect();
        assert_eq!(addrs.len(), 128);
        assert_eq!(addrs[0].to_string(), "10.0.0.128");
        assert_eq!(addrs[127].to_string(), "10.0.0.255");
    }

    #[test]
    #[should_panic(expected = "/25 index out of range")]
    fn prefix25_nth_bounds_checked() {
        Ipv4::new(10, 0, 0, 0).prefix25().nth(128);
    }

    #[test]
    fn prefix_display() {
        assert_eq!(Prefix24::new(10, 1, 2).to_string(), "10.1.2.0/24");
        let (lo, hi) = Prefix24::new(10, 1, 2).halves();
        assert_eq!(lo.to_string(), "10.1.2.0/25");
        assert_eq!(hi.to_string(), "10.1.2.128/25");
    }

    #[test]
    fn ordering_matches_numeric_order() {
        assert!(Ipv4::new(1, 0, 0, 0) < Ipv4::new(2, 0, 0, 0));
        assert!(Prefix24::new(1, 2, 3) < Prefix24::new(1, 2, 4));
    }
}

impl serde::Serialize for Ipv4 {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.collect_str(self)
    }
}

impl<'de> serde::Deserialize<'de> for Ipv4 {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Ipv4, D::Error> {
        let text = <std::borrow::Cow<'_, str>>::deserialize(d)?;
        text.parse().map_err(serde::de::Error::custom)
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;

    #[test]
    fn ipv4_serde_roundtrip_as_dotted_string() {
        let ip = Ipv4::new(203, 0, 113, 7);
        let json = serde_json::to_string(&ip).unwrap();
        assert_eq!(json, "\"203.0.113.7\"");
        let back: Ipv4 = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ip);
    }

    #[test]
    fn ipv4_serde_rejects_garbage() {
        assert!(serde_json::from_str::<Ipv4>("\"not-an-ip\"").is_err());
    }
}
