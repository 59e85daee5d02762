//! Property tests pinning [`TimerWheel`] to a brute-force scan.
//!
//! The model keeps armed timers in a plain id → deadline map and answers
//! every question by scanning all of them: the earliest deadline is the
//! minimum, and an advance collects and sorts every due timer by
//! `(deadline, id)`. Any op sequence — schedule (including re-arm and past
//! deadlines), cancel, and monotonic advance by small and huge steps —
//! must produce byte-identical firings, the same `next_deadline`, and the
//! same armed count. The timers may differ from the scan only in *cost*,
//! never in observable behavior.

use proptest::prelude::*;
use spamaware_core::reactor::wheel::TimerWheel;
use std::collections::BTreeMap;

const MS: u64 = 1_000_000;

/// One scripted operation against both implementations.
#[derive(Debug, Clone)]
enum Op {
    /// Arm (or re-arm) `id` at `now + offset - past_slack` — `past_slack`
    /// occasionally pushes the deadline before "now" to exercise the
    /// fire-immediately clamp.
    Schedule {
        id: u64,
        offset: u64,
        past: bool,
    },
    Cancel {
        id: u64,
    },
    Advance {
        dt: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Offsets span milliseconds to seconds and, via the occasional
        // huge offset, hours.
        (0u64..12, 0u64..5_000 * MS, 0u64..8).prop_map(|(id, offset, kind)| Op::Schedule {
            id,
            offset: if kind == 0 { offset * 4_000 } else { offset },
            past: kind == 1,
        }),
        (0u64..12).prop_map(|id| Op::Cancel { id }),
        // Jumps from sub-millisecond to minutes.
        (0u64..4, 0u64..3_000 * MS).prop_map(|(kind, dt)| Op::Advance {
            dt: if kind == 0 { dt * 200 } else { dt },
        }),
    ]
}

/// The reference: armed map fired strictly by `(deadline, id)`.
#[derive(Default)]
struct ModelWheel {
    active: BTreeMap<u64, u64>,
}

impl ModelWheel {
    fn schedule(&mut self, id: u64, deadline_ns: u64) {
        self.active.insert(id, deadline_ns);
    }

    fn cancel(&mut self, id: u64) {
        self.active.remove(&id);
    }

    fn next_deadline(&self) -> Option<u64> {
        self.active.values().copied().min()
    }

    fn advance(&mut self, now_ns: u64) -> Vec<(u64, u64)> {
        let mut due: Vec<(u64, u64)> = self
            .active
            .iter()
            .filter(|&(_, &dl)| dl <= now_ns)
            .map(|(&id, &dl)| (dl, id))
            .collect();
        due.sort_unstable();
        self.active.retain(|_, &mut dl| dl > now_ns);
        due
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn wheel_matches_btreemap_reference(
        start_ns in 0u64..1 << 62,
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        // Arbitrary epoch: the wheel must not care where "now" starts.
        let mut now = start_ns;
        let mut wheel = TimerWheel::new(now);
        let mut model = ModelWheel::default();
        let mut fired = Vec::new();
        for op in &ops {
            match *op {
                Op::Schedule { id, offset, past } => {
                    let deadline = if past {
                        now.saturating_sub(offset)
                    } else {
                        now.saturating_add(offset)
                    };
                    wheel.schedule(id, deadline);
                    model.schedule(id, deadline);
                    if past {
                        // A deadline at or before now fires on the next
                        // advance — even one that does not move time.
                        fired.clear();
                        wheel.advance(now, &mut fired);
                        prop_assert_eq!(&fired, &model.advance(now), "past-deadline fire at t={}", now);
                    }
                }
                Op::Cancel { id } => {
                    wheel.cancel(id);
                    model.cancel(id);
                }
                Op::Advance { dt } => {
                    now += dt;
                    fired.clear();
                    wheel.advance(now, &mut fired);
                    prop_assert_eq!(&fired, &model.advance(now), "advance to t={}", now);
                }
            }
            prop_assert_eq!(wheel.next_deadline(), model.next_deadline());
            prop_assert_eq!(wheel.len(), model.active.len());
            prop_assert_eq!(wheel.is_empty(), model.active.is_empty());
        }
        // Drain everything: no timer may be lost or duplicated.
        now += 100_000_000 * MS;
        fired.clear();
        wheel.advance(now, &mut fired);
        prop_assert_eq!(&fired, &model.advance(now), "final drain");
        prop_assert!(wheel.is_empty());
    }
}

/// One lifecycle operation of an owner `token` that holds three timer
/// ids, `(token << 2) | {IDLE, SESSION, STALL}`, re-armed and cancelled
/// on different rhythms: dense interleaving of neighbouring ids.
#[derive(Debug, Clone)]
enum ConnOp {
    /// A new connection: arms all three kinds at once (idle short,
    /// session long, and — if the greeting stalls — a stall deadline).
    Accept {
        token: u64,
        stall: bool,
    },
    /// Client activity: re-arms only the idle deadline.
    Activity {
        token: u64,
        idle_offset: u64,
    },
    /// Queued output made progress: re-arms only the stall deadline.
    Progress {
        token: u64,
        stall_offset: u64,
    },
    /// The queue drained: cancels only the stall deadline, leaving the
    /// connection's other two timers armed.
    Drain {
        token: u64,
    },
    /// The connection leaves (eviction or hand-off): cancels all three.
    Detach {
        token: u64,
    },
    Advance {
        dt: u64,
    },
}

const IDLE: u64 = 0;
const SESSION: u64 = 1;
const STALL: u64 = 2;

fn conn_op_strategy() -> impl Strategy<Value = ConnOp> {
    prop_oneof![
        (0u64..10, any::<bool>()).prop_map(|(token, stall)| ConnOp::Accept { token, stall }),
        (0u64..10, 1u64..5_000 * MS)
            .prop_map(|(token, idle_offset)| ConnOp::Activity { token, idle_offset }),
        (0u64..10, 1u64..5_000 * MS).prop_map(|(token, stall_offset)| ConnOp::Progress {
            token,
            stall_offset
        }),
        (0u64..10).prop_map(|token| ConnOp::Drain { token }),
        (0u64..10).prop_map(|token| ConnOp::Detach { token }),
        (0u64..2_000 * MS).prop_map(|dt| ConnOp::Advance { dt }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Three interleaved deadline kinds per owner — one re-armed on
    /// every activity, one fixed, and one that progress re-arms and a
    /// drain cancels — never interfere through the shared set: each
    /// packed id fires and cancels independently, exactly like the
    /// reference model.
    #[test]
    fn packed_per_connection_timer_kinds_stay_independent(
        start_ns in 0u64..1 << 62,
        ops in proptest::collection::vec(conn_op_strategy(), 1..150),
    ) {
        let mut now = start_ns;
        let mut wheel = TimerWheel::new(now);
        let mut model = ModelWheel::default();
        let mut fired = Vec::new();
        let idle_ns = 5_000 * MS;
        let session_ns = 30_000 * MS;
        let stall_ns = 10_000 * MS;
        let both = |wheel: &mut TimerWheel, model: &mut ModelWheel, id: u64, dl: u64| {
            wheel.schedule(id, dl);
            model.schedule(id, dl);
        };
        for op in &ops {
            match *op {
                ConnOp::Accept { token, stall } => {
                    both(&mut wheel, &mut model, (token << 2) | IDLE, now + idle_ns);
                    both(&mut wheel, &mut model, (token << 2) | SESSION, now + session_ns);
                    if stall {
                        both(&mut wheel, &mut model, (token << 2) | STALL, now + stall_ns);
                    }
                }
                ConnOp::Activity { token, idle_offset } => {
                    both(&mut wheel, &mut model, (token << 2) | IDLE, now + idle_offset);
                }
                ConnOp::Progress { token, stall_offset } => {
                    both(&mut wheel, &mut model, (token << 2) | STALL, now + stall_offset);
                }
                ConnOp::Drain { token } => {
                    wheel.cancel((token << 2) | STALL);
                    model.cancel((token << 2) | STALL);
                }
                ConnOp::Detach { token } => {
                    for kind in [IDLE, SESSION, STALL] {
                        wheel.cancel((token << 2) | kind);
                        model.cancel((token << 2) | kind);
                    }
                }
                ConnOp::Advance { dt } => {
                    now += dt;
                    fired.clear();
                    wheel.advance(now, &mut fired);
                    prop_assert_eq!(&fired, &model.advance(now), "advance to t={}", now);
                }
            }
            prop_assert_eq!(wheel.next_deadline(), model.next_deadline());
            prop_assert_eq!(wheel.len(), model.active.len());
        }
        // A cancelled stall deadline must never resurface, however far
        // time jumps.
        now += 100_000_000 * MS;
        fired.clear();
        wheel.advance(now, &mut fired);
        prop_assert_eq!(&fired, &model.advance(now), "final drain");
        prop_assert!(wheel.is_empty());
    }
}
