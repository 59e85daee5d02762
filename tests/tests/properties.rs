//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;
use spamaware_mfs::{
    DataRef, HardlinkStore, Layout, MailId, MailStore, MboxStore, MemFs, MfsStore,
};
use spamaware_netaddr::{Ipv4, PrefixBitmap, QueryName, QueryScheme};
use spamaware_sim::{LogHistogram, Nanos, Readout};
use spamaware_smtp::{Command, MailAddr, Reply};
use std::collections::HashMap;

// ------------------------------------------------------------- netaddr

proptest! {
    #[test]
    fn ip_display_parse_roundtrip(raw in any::<u32>()) {
        let ip = Ipv4::from_u32(raw);
        let back: Ipv4 = ip.to_string().parse().unwrap();
        prop_assert_eq!(back, ip);
    }

    #[test]
    fn prefix_relations_are_consistent(raw in any::<u32>()) {
        let ip = Ipv4::from_u32(raw);
        prop_assert_eq!(ip.prefix25().prefix24(), ip.prefix24());
        prop_assert_eq!(ip.prefix25().nth(ip.index_in_prefix25()), ip);
        let (lo, hi) = ip.prefix24().halves();
        prop_assert!(ip.prefix25() == lo || ip.prefix25() == hi);
    }

    #[test]
    fn bitmap_matches_reference_set(raw in any::<u32>(), lasts in proptest::collection::btree_set(0u8..128, 0..40)) {
        let prefix = Ipv4::from_u32(raw).prefix25();
        let mut bm = PrefixBitmap::empty(prefix);
        for &i in &lasts {
            bm.set(prefix.nth(i));
        }
        // Wire roundtrip preserves everything.
        let bm = PrefixBitmap::from_wire(prefix, bm.to_wire());
        prop_assert_eq!(bm.count() as usize, lasts.len());
        for i in 0..128u8 {
            prop_assert_eq!(bm.contains(prefix.nth(i)), lasts.contains(&i));
        }
    }

    #[test]
    fn query_name_roundtrips(raw in any::<u32>()) {
        let ip = Ipv4::from_u32(raw);
        let q4 = QueryName::encode(ip, QueryScheme::Ipv4, "bl.example");
        prop_assert_eq!(QueryName::decode_ipv4(q4.as_str(), "bl.example"), Some(ip));
        let q6 = QueryName::encode(ip, QueryScheme::PrefixV6, "bl.example");
        prop_assert_eq!(
            QueryName::decode_prefix_v6(q6.as_str(), "bl.example"),
            Some(ip.prefix25())
        );
    }
}

// ------------------------------------------------------------- smtp

proptest! {
    #[test]
    fn command_display_parse_roundtrip(
        local in "[a-z][a-z0-9]{0,8}",
        domain in "[a-z][a-z0-9]{0,8}\\.(com|org|example)",
    ) {
        let addr: MailAddr = format!("{local}@{domain}").parse().unwrap();
        for cmd in [
            Command::helo(domain.clone()),
            Command::mail_from(Some(addr.clone())),
            Command::mail_from(None),
            Command::rcpt_to(addr),
        ] {
            let line = cmd.to_string();
            prop_assert_eq!(Command::parse(&line).unwrap(), cmd);
        }
    }

    #[test]
    fn parser_never_panics(line in "\\PC{0,200}") {
        let _ = Command::parse(&line);
        let _ = Reply::parse(&line);
        let _ = line.parse::<MailAddr>();
    }
}

// ------------------------------------------------------------- metrics

proptest! {
    /// `LogHistogram` and its serialized `Readout` against an exact
    /// sorted-`Vec` nearest-rank reference. A random word shifted right by
    /// a random amount spreads the samples over every magnitude: zeros,
    /// the exact buckets below 16, and values past 2^40 all turn up.
    #[test]
    fn histogram_quantiles_bracket_samples(
        mut xs in proptest::collection::vec(
            (any::<u64>(), 0u32..64).prop_map(|(word, shift)| word >> shift),
            1..200,
        )
    ) {
        let h = LogHistogram::new();
        for &x in &xs {
            h.record(x);
        }
        let r = Readout::from(&h);
        xs.sort_unstable();
        let n = xs.len() as u64;
        let max = xs[xs.len() - 1];
        prop_assert_eq!((r.count, r.max), (n, max));
        prop_assert_eq!(r.buckets.iter().map(|&(_, c)| c).sum::<u64>(), n);

        let mut prev = 0;
        for p in 0..=100u64 {
            let rank = (n * p).div_ceil(100).max(1);
            let exact = xs[rank as usize - 1];
            let q = r.quantile(p);
            prop_assert_eq!(q, h.quantile(p), "read-out and live histogram at p{}", p);
            prop_assert!(
                exact <= q && q <= exact.saturating_add(exact / 16) && q <= max,
                "p{p}: exact {exact}, got {q}, max {max}"
            );
            prop_assert!(prev <= q, "p{p}: {q} after {prev}");
            prev = q;
        }

        let cdf = r.cdf();
        for w in cdf.windows(2) {
            prop_assert!(w[0].0 < w[1].0 && w[0].1 <= w[1].1, "{:?} then {:?}", w[0], w[1]);
        }
        prop_assert_eq!(cdf.last().copied(), Some((max, 1.0)));
        for &(edge, fraction) in &cdf {
            let at_or_below = xs.partition_point(|&x| x <= edge);
            prop_assert_eq!(fraction, at_or_below as f64 / n as f64, "cdf at {}", edge);
        }

        let probes = cdf
            .iter()
            .flat_map(|&(edge, _)| [edge.saturating_sub(1), edge, edge.saturating_add(1)])
            .chain([0, u64::MAX]);
        for x in probes {
            // One minus the CDF at the first edge >= x: never more than the
            // exact share above x, and equal to it when x is an edge.
            let covering = cdf.iter().find(|&&(edge, _)| edge >= x);
            let got = r.fraction_above(x);
            prop_assert_eq!(got, 1.0 - covering.map_or(1.0, |&(_, f)| f), "fraction above {}", x);
            let exact = (xs.len() - xs.partition_point(|&v| v <= x)) as f64 / n as f64;
            prop_assert!(got <= exact + 1e-12, "fraction above {x}: {got} > exact {exact}");
            if covering.is_none_or(|&(edge, _)| edge == x) {
                prop_assert!((got - exact).abs() < 1e-12, "at edge {x}: {got} vs {exact}");
            }
        }
    }
}

// ------------------------------------------------------------- storage

/// A random delivery/delete workload applied to every layout must leave
/// every mailbox with identical contents (the layouts are interchangeable
/// storage engines).
#[derive(Debug, Clone)]
enum Op {
    Deliver { rcpts: Vec<u8>, body: Vec<u8> },
    Delete { mailbox: u8, nth: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            proptest::collection::btree_set(0u8..6, 1..5),
            proptest::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(rcpts, body)| Op::Deliver {
                rcpts: rcpts.into_iter().collect(),
                body
            }),
        (0u8..6, 0usize..4).prop_map(|(mailbox, nth)| Op::Delete { mailbox, nth }),
    ]
}

fn apply_ops(store: &mut dyn MailStore, ops: &[Op]) -> HashMap<String, Vec<(u64, Vec<u8>)>> {
    let mut next_id = 1u64;
    for op in ops {
        match op {
            Op::Deliver { rcpts, body } => {
                let names: Vec<String> = rcpts.iter().map(|r| format!("mb{r}")).collect();
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                store
                    .deliver(MailId(next_id), &refs, DataRef::Bytes(body))
                    .unwrap();
                next_id += 1;
            }
            Op::Delete { mailbox, nth } => {
                let mb = format!("mb{mailbox}");
                let mails = store.read_mailbox(&mb).unwrap();
                if let Some(m) = mails.get(*nth) {
                    store.delete(&mb, m.id).unwrap();
                }
            }
        }
    }
    (0..6u8)
        .map(|r| {
            let mb = format!("mb{r}");
            let mails = store
                .read_mailbox(&mb)
                .unwrap()
                .into_iter()
                .map(|m| (m.id.as_u64(), m.body))
                .collect();
            (mb, mails)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_layouts_agree_on_mailbox_contents(ops in proptest::collection::vec(op_strategy(), 0..30)) {
        let mut reference = MboxStore::new(MemFs::new());
        let expected = apply_ops(&mut reference, &ops);
        for layout in [Layout::Maildir, Layout::Hardlink, Layout::Mfs] {
            let mut store = layout.build(MemFs::new());
            let got = apply_ops(store.as_mut(), &ops);
            prop_assert_eq!(&got, &expected, "layout {}", layout);
        }
    }

    #[test]
    fn mfs_replay_equals_live_state(ops in proptest::collection::vec(op_strategy(), 0..30)) {
        let mut live = MfsStore::new(MemFs::new());
        let expected = apply_ops(&mut live, &ops);
        let backend = std::mem::replace(live.backend_mut(), MemFs::new());
        let mut recovered = MfsStore::open(backend).unwrap();
        let got: HashMap<String, Vec<(u64, Vec<u8>)>> = (0..6u8)
            .map(|r| {
                let mb = format!("mb{r}");
                let mails = recovered
                    .read_mailbox(&mb)
                    .unwrap()
                    .into_iter()
                    .map(|m| (m.id.as_u64(), m.body))
                    .collect();
                (mb, mails)
            })
            .collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn memfs_hard_links_conserve_bytes(
        bodies in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 1..10)
    ) {
        let mut store = HardlinkStore::new(MemFs::new());
        let mut total = 0u64;
        for (i, body) in bodies.iter().enumerate() {
            store
                .deliver(MailId(i as u64 + 1), &["a", "b", "c"], DataRef::Bytes(body))
                .unwrap();
            total += body.len() as u64;
        }
        // Single-instance storage: bytes on disk equal one copy per mail.
        prop_assert_eq!(store.backend().total_bytes(), total);
    }
}

// ------------------------------------------------------------- dnsbl

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prefix_cache_never_changes_verdicts(
        listed in proptest::collection::btree_set(any::<u32>(), 0..50),
        queries in proptest::collection::vec((any::<u32>(), 0u64..100_000), 1..100)
    ) {
        use spamaware_dnsbl::{BlacklistDb, CacheScheme, CachingResolver, DnsblServer, LatencyModel};
        let db: BlacklistDb = listed.iter().map(|&r| Ipv4::from_u32(r)).collect();
        let server = DnsblServer::new("bl.example", db, LatencyModel::new(40.0, 0.8, 0.0));
        let mut rng = spamaware_sim::det_rng(9);
        let mut sorted = queries.clone();
        sorted.sort_by_key(|&(_, t)| t);
        for scheme in [CacheScheme::PerIp, CacheScheme::PerPrefix] {
            let mut resolver = CachingResolver::new(scheme, Nanos::from_secs(3600));
            for &(raw, t) in &sorted {
                let ip = Ipv4::from_u32(raw);
                let o = resolver.lookup(ip, Nanos::from_millis(t), &server, &mut rng);
                // The cache (either granularity) must agree with ground truth.
                prop_assert_eq!(o.listed, listed.contains(&raw), "{:?} {}", scheme, ip);
            }
        }
    }
}

// ------------------------------------------------------------- smtp FSM

/// Arbitrary command sequences must never panic the session machine and
/// must keep its outcome classification consistent with what happened.
fn arb_command() -> impl Strategy<Value = Command> {
    prop_oneof![
        Just(Command::helo("c.example")),
        Just(Command::Ehlo("c.example".into())),
        Just(Command::mail_from(None)),
        Just(Command::mail_from(Some(
            "s@remote.example".parse().expect("valid")
        ))),
        (0u32..6).prop_map(|i| Command::rcpt_to(
            format!("user{i}@dept.example").parse().expect("valid")
        )),
        (0u32..3).prop_map(|i| Command::rcpt_to(
            format!("ghost{i}@dept.example").parse().expect("valid")
        )),
        Just(Command::Data),
        Just(Command::Rset),
        Just(Command::Noop),
        Just(Command::Vrfy("x".into())),
        Just(Command::Quit),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn session_fsm_total_under_arbitrary_dialogs(
        cmds in proptest::collection::vec(arb_command(), 0..40)
    ) {
        use spamaware_smtp::{ServerSession, SessionConfig, SessionOutcome, SessionPhase};
        let exists = |a: &MailAddr| a.local_part().starts_with("user");
        let mut s = ServerSession::new(SessionConfig::default());
        let mut rejected = 0u64;
        for cmd in cmds {
            if s.phase() == SessionPhase::Data {
                // Complete the transaction the way the engine does.
                let _ = s.finish_data_sized("M", 128);
            }
            let reply = s.handle(cmd, &exists);
            if reply.code() == 550 {
                rejected += 1;
            }
        }
        prop_assert_eq!(s.rejected_rcpts(), rejected);
        let delivered = s.delivered().len();
        for ended_by_client in [true, false] {
            match s.outcome(ended_by_client) {
                SessionOutcome::Delivered => prop_assert!(delivered > 0),
                SessionOutcome::Bounce => {
                    prop_assert!(ended_by_client, "an eviction is never a bounce");
                    prop_assert_eq!(delivered, 0);
                    prop_assert!(rejected > 0);
                }
                SessionOutcome::Unfinished => {
                    prop_assert_eq!(delivered, 0);
                    prop_assert!(!ended_by_client || rejected == 0);
                }
            }
        }
    }
}

// ------------------------------------------------------------- scheduler

proptest! {
    #[test]
    fn scheduler_pops_in_nondecreasing_time_order(
        times in proptest::collection::vec(0u64..1_000_000, 1..100)
    ) {
        use spamaware_sim::Scheduler;
        let mut s: Scheduler<usize> = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule_at(Nanos::from_nanos(t), i);
        }
        let mut last = Nanos::ZERO;
        let mut seen = vec![false; times.len()];
        while let Some((at, idx)) = s.pop() {
            prop_assert!(at >= last);
            prop_assert_eq!(at.as_nanos(), times[idx]);
            seen[idx] = true;
            last = at;
        }
        prop_assert!(seen.iter().all(|&b| b), "every event fired once");
    }

    #[test]
    fn trace_json_roundtrip_random_shapes(
        conns in 1usize..40,
        ratio in 0.0f64..1.0,
    ) {
        use spamaware_trace::{bounce_sweep_trace, Trace};
        let t = bounce_sweep_trace(7, conns, ratio, 50);
        let mut buf = Vec::new();
        t.save_json(&mut buf).expect("save");
        let back = Trace::load_json(buf.as_slice()).expect("load");
        prop_assert_eq!(back.connections, t.connections);
    }
}

// ------------------------------------------------------------- dns wire

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dns_decoder_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        use spamaware_dnsbl::wire::Message;
        let _ = Message::decode(&bytes); // must never panic
    }

    #[test]
    fn dns_message_roundtrip(
        id in any::<u16>(),
        a in 0u8..255, b in 0u8..255, c in 0u8..255, d in 0u8..255,
        ttl in 0u32..1_000_000,
        listed in any::<bool>(),
    ) {
        use spamaware_dnsbl::wire::{Answer, Message, Rcode, RecordType};
        use spamaware_netaddr::{Ipv4, QueryName, QueryScheme};
        let ip = Ipv4::new(a, b, c, d);
        let name = QueryName::encode(ip, QueryScheme::Ipv4, "bl.example");
        let q = Message::query(id, name.as_str(), RecordType::A);
        let answers = if listed {
            vec![Answer {
                name: name.as_str().to_owned(),
                rtype: RecordType::A,
                ttl,
                rdata: vec![127, 0, 0, 2],
            }]
        } else {
            vec![]
        };
        let resp = q.respond(Rcode::NoError, answers);
        let back = Message::decode(&resp.encode()).expect("decode");
        prop_assert_eq!(back, resp);
    }
}

// ------------------------------------------------------------- linebuf

/// Reference line splitter for [`spamaware_core::LineBuffer`]: a line ends
/// at each `\n`, and **all** trailing `\r` bytes are stripped from it (so
/// `"a\r\r\n"` yields `"a"`); bytes after the last `\n` are the remainder.
fn reference_split(bytes: &[u8]) -> (Vec<Vec<u8>>, Vec<u8>) {
    let mut lines = Vec::new();
    let mut rest: &[u8] = bytes;
    while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
        let mut line = rest[..pos].to_vec();
        while line.last() == Some(&b'\r') {
            line.pop();
        }
        lines.push(line);
        rest = &rest[pos + 1..];
    }
    (lines, rest.to_vec())
}

/// Pushes `bytes` in the cycled `chunk_sizes`, popping every complete
/// line after each push the way the driver does.
fn split_in_chunks(
    lb: &mut spamaware_core::LineBuffer,
    bytes: &[u8],
    chunk_sizes: &[usize],
) -> Vec<Vec<u8>> {
    let mut popped = Vec::new();
    let mut offset = 0;
    let mut chunk = chunk_sizes.iter().cycle();
    while offset < bytes.len() {
        let n = (*chunk.next().unwrap()).min(bytes.len() - offset);
        lb.push(&bytes[offset..offset + n]);
        offset += n;
        while let Some(line) = lb.pop_line().expect("no overflow") {
            popped.push(line.to_vec());
        }
    }
    popped
}

/// Maps random bytes onto a stream dense in terminators, so multi-line,
/// `\r`-run, `\r`|`\n`-across-a-push and `\n`-first-in-a-push cases come up
/// often, not once in 128 bytes.
fn terminator_rich(raw: &[u8]) -> Vec<u8> {
    raw.iter()
        .map(|&b| match b % 8 {
            0 => b'\n',
            1 => b'\r',
            _ => b,
        })
        .collect()
}

proptest! {
    /// Any two chunkings of one byte stream — byte-at-a-time included —
    /// yield the reference splitter's lines and leave its remainder.
    /// Total input stays far below MAX_LINE, so overflow is impossible
    /// here; it has its own unit + fault tests.
    #[test]
    fn line_buffer_matches_reference_splitter_under_any_chunking(
        raw in proptest::collection::vec(any::<u8>(), 0..600),
        chunks_a in proptest::collection::vec(1usize..40, 1..20),
        chunks_b in proptest::collection::vec(1usize..4, 1..5),
    ) {
        let bytes = terminator_rich(&raw);
        let (want_lines, want_rest) = reference_split(&bytes);
        for chunk_sizes in [&chunks_a, &chunks_b] {
            let mut lb = spamaware_core::LineBuffer::new();
            prop_assert_eq!(&split_in_chunks(&mut lb, &bytes, chunk_sizes), &want_lines);
            prop_assert_eq!(&lb.into_remaining(), &want_rest);
        }
    }

    /// The §5.2 fixed-size argument: however much pipelined input passes
    /// through, the buffer's allocation never exceeds one maximal partial
    /// line plus one read. (Capacity only grows, so its final value is
    /// its maximum.)
    #[test]
    fn line_buffer_capacity_is_bounded_by_a_line_plus_a_read(
        line_lens in proptest::collection::vec(0usize..=spamaware_core::MAX_LINE, 1..60),
        reads in proptest::collection::vec(1usize..=4096, 1..12),
    ) {
        let mut bytes = Vec::new();
        for (i, len) in line_lens.iter().enumerate() {
            bytes.extend(std::iter::repeat_n(b'a' + (i % 26) as u8, *len));
            bytes.push(b'\n');
        }
        let mut lb = spamaware_core::LineBuffer::new();
        let popped = split_in_chunks(&mut lb, &bytes, &reads);
        prop_assert_eq!(popped.len(), line_lens.len());
        let biggest_read = *reads.iter().max().unwrap();
        prop_assert!(lb.into_remaining().capacity() <= spamaware_core::MAX_LINE + biggest_read);
    }

    /// `into_remaining` is exactly the unconsumed suffix, in the
    /// allocation the buffer was built over — what the master→worker
    /// `leftover` hand-off and the line pool both rely on.
    #[test]
    fn line_buffer_remainder_is_the_unconsumed_suffix_in_place(
        raw in proptest::collection::vec(any::<u8>(), 0..600),
        pops in 0usize..12,
    ) {
        let bytes = terminator_rich(&raw);
        let pooled = Vec::with_capacity(4096);
        let allocation = pooled.as_ptr();
        let mut lb = spamaware_core::LineBuffer::from_remaining(pooled);
        lb.push(&bytes);
        let mut consumed = 0;
        for _ in 0..pops {
            if lb.pop_line().expect("no overflow").is_none() {
                break;
            }
            consumed += 1 + bytes[consumed..].iter().position(|&b| b == b'\n').unwrap();
        }
        let rest = lb.into_remaining();
        prop_assert_eq!(&rest[..], &bytes[consumed..]);
        prop_assert_eq!(rest.as_ptr(), allocation);
        prop_assert_eq!(rest.capacity(), 4096);
    }

    #[test]
    fn line_buffer_overflow_only_without_newline(pad in 0usize..64) {
        // MAX_LINE + pad + 1 bytes with no terminator must overflow ...
        let mut lb = spamaware_core::LineBuffer::new();
        lb.push(&vec![b'x'; spamaware_core::MAX_LINE + pad + 1]);
        prop_assert!(lb.pop_line().is_err());
        // ... while the same payload terminated by `\n` pops cleanly.
        let mut lb = spamaware_core::LineBuffer::new();
        let mut payload = vec![b'x'; spamaware_core::MAX_LINE + pad + 1];
        payload.push(b'\n');
        lb.push(&payload);
        prop_assert_eq!(
            lb.pop_line().expect("newline present").expect("one line").len(),
            spamaware_core::MAX_LINE + pad + 1
        );
    }
}
