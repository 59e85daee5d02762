#!/bin/sh
# Pre-PR gate: run the full local verification pipeline.
#
#   scripts/check.sh [--crash] [--chaos] [--flood] [--stall]
#
# Every stage must pass before a change is proposed. The stages are
# ordered cheapest-first so failures surface quickly:
#
#   0. scripts/nontest.awk     — scripts/loc.sh's non-test counter
#                                counts a fixture right: a test module
#                                mid-file, code after it, and a one-line
#                                #[cfg(test)] item
#   1. cargo fmt --check       — formatting is canonical
#   2. cargo clippy            — workspace lints over every target (tests
#                                and benches too), warnings are
#                                errors. Every static rule lives here, and
#                                a sanctioned site carries an #[expect]
#                                with a written reason:
#                                - blocking: crates/core/clippy.toml
#                                  refuses any call that can park a
#                                  thread, crates/mfs/clippy.toml refuses
#                                  them outright, since that crate runs
#                                  under store partitions (DESIGN.md §14.2);
#                                - determinism: crates/clippy.toml refuses
#                                  the wall clock, the environment,
#                                  ambient entropy and hash-order
#                                  iteration in every crate without a
#                                  config of its own (for loops:
#                                  iter_over_hash_type, denied at their
#                                  roots); the core and mfs files refuse
#                                  the first three (DESIGN.md §9);
#                                - panic-safety: unwrap/expect/panic/
#                                  unreachable denied at the six server
#                                  crate roots, allowed in tests by the
#                                  same clippy.toml files (DESIGN.md §9);
#                                - unsafe: undocumented_unsafe_blocks in
#                                  Cargo.toml's [workspace.lints.clippy]
#                                  and at vendor/rawpoll's root (§9)
#   3. cargo doc               — rustdoc over every workspace crate with
#                                warnings as errors, so a doc link to an
#                                item that was deleted, made private or
#                                became ambiguous fails here
#   4. cargo test              — unit, integration, property and doc tests;
#                                among them the debug-build assertion that
#                                no thread holds two store partitions, the
#                                one-hold-per-mail count of a mailbox scan,
#                                the one-deadline-per-connection count of
#                                the session engine's timer set, and the
#                                metric inventory against DESIGN.md §14.3
#   5. figures check results   — every experiment is re-run in release at
#                                the recorded scale (and the four
#                                full_key rows at --full) and compared
#                                byte for byte with results/; a file
#                                that differs is named with its first
#                                differing line. No tolerance: output is
#                                a function of the flags alone, so a
#                                moved digit is a changed model (or a
#                                changed libm), and `figures record
#                                results` is the deliberate way to
#                                accept it (results/README.md). ≈ 40 s.
#   6. cargo test benchmark/   — the standalone benchmark package (its own
#                                workspace, so stages 2 and 3 never see
#                                it) still builds against this tree's
#                                API, and its suite boots the real TCP
#                                server pair on all four workloads and
#                                verifies every acked mail is in the
#                                spool exactly once; --locked, so a
#                                dependency-edge change fails here instead
#                                of rewriting the frozen benchmark/Cargo.lock
#   7. cargo tree              — spamaware-core, the live server, does not
#                                depend on spamaware-server, the simulator
#                                (its normal dependencies, not its tests')
#
# With --crash, a further stage runs the deep crash-point sweep: every
# (write, byte) cut of an extended MFS workload is injected, the store is
# rebooted from the surviving bytes, and recovery + mfsck must restore a
# prefix of the acknowledged operations (DESIGN.md §12).
#
# With --chaos, the overload chaos suite runs with its deep sweep
# included: a 2x-capacity concurrent flood against a blackholed DNSBL,
# where every shed client retries until its mail is acked and the
# admission cap, breaker fail-open, and zero-acked-loss invariants are
# asserted end to end (DESIGN.md §13).
#
# With --flood, the 10k-connection pre-trust flood runs: two child
# processes park 10,000 silent real-TCP connections on the master's
# epoll set while delivery probes assert goodput through the standing
# flood (DESIGN.md §15). Needs a ~10k fd budget in each child.
#
# With --stall, the write-stall chaos suite runs with its 100-peer storm
# included: 100 real-TCP peers blast amplifier commands without ever
# reading a reply (clamped receive buffers, so their windows truly
# close) while a POP3 client freezes mid-RETR; every stalled peer must
# be evicted and delivery probes must keep flowing at full goodput
# through the storm (DESIGN.md §15.4).
#
# Not a stage, but part of every PR: scripts/loc.sh [REV] is the one way
# to count the tree's Rust (tracked *.rs lines per crate and top-level
# directory, src/ and tests apart, the src lines outside #[cfg(test)]
# items, plus the total). Run it bare on the change and with the
# parent's revision, and quote both (ROADMAP aim 2).

set -eu

crash=0
chaos=0
flood=0
stall=0
for arg in "$@"; do
    case "$arg" in
        --crash) crash=1 ;;
        --chaos) chaos=1 ;;
        --flood) flood=1 ;;
        --stall) stall=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

cd "$(dirname "$0")/.."

echo "==> scripts/nontest.awk counts a fixture"
# 11 lines: the module (lines 2-7) and `struct Row;` (line 10) are test.
counted=$(awk -f scripts/nontest.awk <<'EOF'
fn before() {}
#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    #[test]
    fn t() { let (s, c) = ("}", '{'); } // }
}
fn after() {
}
#[cfg(test)] struct Row;
fn last() {}
EOF
)
if [ "$counted" != "11 4" ]; then
    echo "scripts/nontest.awk counted \"$counted\" (lines, non-test), want \"11 4\"" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test"
cargo test --quiet

echo "==> figures check results"
cargo run --release --quiet -p spamaware-bench -- check results

echo "==> cargo test --manifest-path benchmark/Cargo.toml --locked"
cargo test --quiet --manifest-path benchmark/Cargo.toml --offline --locked

echo "==> spamaware-core does not depend on spamaware-server"
core_deps=$(cargo tree -p spamaware-core -e normal --prefix none --offline)
if printf '%s\n' "$core_deps" | grep -q '^spamaware-server '; then
    echo "spamaware-core depends on spamaware-server (the DES)" >&2
    exit 1
fi

if [ "$crash" = 1 ]; then
    echo "==> crash-point deep sweep"
    cargo test --quiet --release -p spamaware-mfs --test crash_sweep -- --include-ignored
fi

if [ "$chaos" = 1 ]; then
    echo "==> overload chaos deep sweep"
    cargo test --quiet --release -p integration-tests --test overload_chaos -- --include-ignored
fi

if [ "$flood" = 1 ]; then
    echo "==> 10k pre-trust flood"
    cargo test --quiet --release -p integration-tests --test pretrust_flood -- --include-ignored
fi

if [ "$stall" = 1 ]; then
    echo "==> 100-peer write-stall storm"
    cargo test --quiet --release -p integration-tests --test write_stall -- --include-ignored
fi

echo "all checks passed"
