#![deny(clippy::iter_over_hash_type)] // DESIGN.md §9
//! IPv4 addressing utilities for DNSBL lookups.
//!
//! This crate implements the address-level machinery of the paper's §7:
//!
//! * [`Ipv4`] — a compact IPv4 address newtype.
//! * [`Prefix24`] / [`Prefix25`] — the /24 spatial-locality unit used for
//!   measurement (Figs. 12–13) and the /25 aggregation unit used by the
//!   prefix-based DNSBL scheme.
//! * [`PrefixBitmap`] — the 128-bit blacklist bitmap covering a /25, which
//!   DNSBLv6 encodes as the 128 bits of an IPv6 AAAA answer.
//! * [`QueryName`] — reversed-octet DNSBL query-name encoding for both the
//!   classic IPv4 scheme (`w.z.y.x.bl.example`) and the DNSBLv6 scheme
//!   (`{0|1}.z.y.x.bl.example`).
//!
//! # Example
//!
//! ```
//! use spamaware_netaddr::{Ipv4, QueryName, QueryScheme};
//!
//! let ip: Ipv4 = "203.0.113.77".parse()?;
//! let q = QueryName::encode(ip, QueryScheme::PrefixV6, "bl.example");
//! assert_eq!(q.as_str(), "0.113.0.203.bl.example");
//! # Ok::<(), spamaware_netaddr::ParseIpError>(())
//! ```

mod bitmap;
mod ip;
mod query;

pub use bitmap::PrefixBitmap;
pub use ip::{Ipv4, ParseIpError, Prefix24, Prefix25};
pub use query::{QueryName, QueryScheme};
