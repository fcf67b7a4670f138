#!/usr/bin/env bash
# Tier-1 verification gate for the TPS reproduction.
#
# Runs the checks CI and reviewers rely on: builds and tests, the
# determinism, oracle, resume and chaos gates, the benchmark package, the
# figure gate, then clippy, rustdoc, tps-lint and rustfmt. The build
# denies missing docs in every library crate; clippy carries the
# fault path's unwrap/expect/panic ban (crate and module attributes) and
# the wall-clock and entropy bans (clippy.toml); tps-lint keeps the rules
# that need the workspace's own vocabulary. Fully offline: the workspace
# vendors a shim crate for its only external dev-dependency (see
# crates/proptest-shim), so no registry access is needed or attempted.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1: facade + integration)"
cargo test -q

echo "==> cargo test --workspace -q (all crates)"
cargo test --workspace -q

echo "==> matrix determinism gate (parallel JSON == serial JSON)"
cargo test -q --test matrix_determinism
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
./target/release/tps_run --bench gups --all --scale test --seed 7 \
    --threads 1 --json "$tmpdir/serial.json" >/dev/null
./target/release/tps_run --bench gups --all --scale test --seed 7 \
    --threads 4 --json "$tmpdir/parallel.json" >/dev/null
cmp "$tmpdir/serial.json" "$tmpdir/parallel.json" \
    || { echo "verify: tps_run --threads changed the report bytes" >&2; exit 1; }

echo "==> multi-tenant determinism gate (tenants 1 vs 8, threads 1 vs 4)"
for tenants in 1 8; do
    ./target/release/tps_run --bench gups --mech tps --mech thp --scale test \
        --seed 7 --tenants "$tenants" --threads 1 \
        --json "$tmpdir/tenants-$tenants-serial.json" >/dev/null
    ./target/release/tps_run --bench gups --mech tps --mech thp --scale test \
        --seed 7 --tenants "$tenants" --threads 4 \
        --json "$tmpdir/tenants-$tenants-parallel.json" >/dev/null
    cmp "$tmpdir/tenants-$tenants-serial.json" "$tmpdir/tenants-$tenants-parallel.json" \
        || { echo "verify: --tenants $tenants report bytes changed with --threads" >&2; exit 1; }
done
cmp -s "$tmpdir/tenants-1-serial.json" "$tmpdir/tenants-8-serial.json" \
    && { echo "verify: tenants=8 report is identical to tenants=1 (axis inert?)" >&2; exit 1; }

echo "==> graph500 part-count gate (one core vs every core: same report bytes)"
# Graph500::new builds its CSR in std::thread::available_parallelism()
# parts, and that is 1 under `taskset -c 0`, so this compares a one-part
# build with a many-part build end to end (on a multi-core host).
command -v taskset >/dev/null 2>&1 \
    || { echo "verify: taskset not found; the graph500 part-count gate needs it" >&2; exit 1; }
taskset -c 0 ./target/release/tps_run --bench graph500 --all --scale test --seed 7 \
    --threads 1 --json "$tmpdir/graph500-one-core.json" >/dev/null
./target/release/tps_run --bench graph500 --all --scale test --seed 7 \
    --threads 1 --json "$tmpdir/graph500-all-cores.json" >/dev/null
cmp "$tmpdir/graph500-one-core.json" "$tmpdir/graph500-all-cores.json" \
    || { echo "verify: graph500 report bytes changed with the core count" >&2; exit 1; }

echo "==> translation oracle gate (64-tenant xsbench TPS and THP: --verify == plain)"
# --verify checks every translation against the page table (TLB hits and
# walks alike) and fails the cell on a disagreement, so a wrong frame from
# the any-size STLB (TPS) or the dual STLB (THP), which serve nearly every
# access of these cells, cannot hide behind totals: the verified report
# must equal the plain one byte for byte.
for mode in plain verify; do
    flag=(); [ "$mode" = verify ] && flag=(--verify)
    ./target/release/tps_run --bench xsbench --mech tps --mech thp --scale test --seed 7 \
        --tenants 64 --threads 1 "${flag[@]}" --json "$tmpdir/oracle-$mode.json" >/dev/null
done
cmp "$tmpdir/oracle-plain.json" "$tmpdir/oracle-verify.json" \
    || { echo "verify: --verify changed the 64-tenant report (wrong translation?)" >&2; exit 1; }

echo "==> retry determinism gate (faults + retries, threads 1 vs 4)"
# Cells may exhaust their retry budget under injected faults; exit 3
# (structured cell failure, full JSON still written) is part of the
# contract being gated — only other codes are verify failures.
set +e
./target/release/tps_run --bench gups --all --scale test --seed 7 \
    --fault-rate 0.02 --fault-seed 7 --retries 2 \
    --threads 1 --json "$tmpdir/retry-serial.json" >/dev/null 2>&1
serial_rc=$?
./target/release/tps_run --bench gups --all --scale test --seed 7 \
    --fault-rate 0.02 --fault-seed 7 --retries 2 \
    --threads 4 --json "$tmpdir/retry-parallel.json" >/dev/null 2>&1
parallel_rc=$?
set -e
for rc in "$serial_rc" "$parallel_rc"; do
    [ "$rc" -eq 0 ] || [ "$rc" -eq 3 ] \
        || { echo "verify: faulted run exited $rc (want 0 or 3)" >&2; exit 1; }
done
[ "$serial_rc" -eq "$parallel_rc" ] \
    || { echo "verify: exit code differs across thread counts ($serial_rc vs $parallel_rc)" >&2; exit 1; }
cmp "$tmpdir/retry-serial.json" "$tmpdir/retry-parallel.json" \
    || { echo "verify: faulted retried runs diverged across thread counts" >&2; exit 1; }

echo "==> checkpoint/resume gate (kill mid-flight, resume, cmp)"
./target/release/tps_run --bench gups --all --scale test --seed 7 \
    --threads 1 --json "$tmpdir/full.json" >/dev/null
# Crash simulation: journal the same matrix and halt (exit 5) after the
# second cell reaches the journal.
set +e
./target/release/tps_run --bench gups --all --scale test --seed 7 \
    --threads 1 --checkpoint "$tmpdir/run.ckpt" --halt-after 2 >/dev/null
halt=$?
set -e
[ "$halt" -eq 5 ] \
    || { echo "verify: --halt-after exited $halt, expected 5" >&2; exit 1; }
./target/release/tps_run --bench gups --all --scale test --seed 7 \
    --threads 1 --resume "$tmpdir/run.ckpt" --json "$tmpdir/resumed.json" >/dev/null
cmp "$tmpdir/full.json" "$tmpdir/resumed.json" \
    || { echo "verify: resumed run differs from the uninterrupted run" >&2; exit 1; }
# Same crash/resume contract with per-tenant stats in the journal.
./target/release/tps_run --bench gups --all --scale test --seed 7 \
    --tenants 8 --threads 1 --json "$tmpdir/t8-full.json" >/dev/null
set +e
./target/release/tps_run --bench gups --all --scale test --seed 7 \
    --tenants 8 --threads 1 --checkpoint "$tmpdir/t8.ckpt" --halt-after 2 >/dev/null
halt=$?
set -e
[ "$halt" -eq 5 ] \
    || { echo "verify: tenants=8 --halt-after exited $halt, expected 5" >&2; exit 1; }
./target/release/tps_run --bench gups --all --scale test --seed 7 \
    --tenants 8 --threads 4 --resume "$tmpdir/t8.ckpt" --json "$tmpdir/t8-resumed.json" >/dev/null
cmp "$tmpdir/t8-full.json" "$tmpdir/t8-resumed.json" \
    || { echo "verify: tenants=8 resumed run differs from the uninterrupted run" >&2; exit 1; }

echo "==> artifact chaos gate (pinned seeds: kill / corrupt / storm)"
# Release build of the tps-check chaos campaign: ~240 deterministic
# schedules driving whole matrix runs through FaultyIo (randomized
# byte-offset kills, single-byte journal corruptions, I/O storms) and
# asserting resume is byte-identical, corruption is always detected, and
# salvage recovers. Seconds in release; the same test also runs (slower)
# under `cargo test --workspace` above.
cargo test --release -q -p tps-check --test chaos

echo "==> sharing gate (fork / CoW / mprotect / merge / munmap campaign)"
# Release build of the sharing campaign: 96 seeded schedules over THP
# 2 MB pages and TPS tailored pages under both CoW policies, audited after
# every operation (frame-share conservation, isolation, shootdowns) and
# torn down to an empty machine. About 3 s in release; the same test
# also runs (about 30 s) under `cargo test --workspace` above.
cargo test --release -q -p tps-check --test sharing

echo "==> tenant containment gate (chaos campaign + capped-tenant determinism)"
# Release build of the multi-tenant containment campaign: 240 seeded
# schedules mixing hogs, cap overrunners and malformed event streams
# under injected allocation faults, asserting zero panics, buddy
# conservation after every kill, exact per-tenant→rollup sums and
# byte-identical kill sequences. Also runs (slower) under
# `cargo test --workspace` above.
cargo test --release -q -p tps-check --test containment
# A matrix with one capped tenant must record the kill in the report and
# stay byte-identical across thread counts.
for threads in 1 4; do
    ./target/release/tps_run --bench gups --mech tps --mech thp --scale test \
        --seed 7 --tenants 8 --tenant-cap 3:4194304 --on-oom kill-victim \
        --threads "$threads" --json "$tmpdir/cap-t$threads.json" >/dev/null
done
cmp "$tmpdir/cap-t1.json" "$tmpdir/cap-t4.json" \
    || { echo "verify: capped-tenant report bytes changed with --threads" >&2; exit 1; }
grep -q '"outcome": "killed"' "$tmpdir/cap-t1.json" \
    || { echo "verify: capped-tenant run recorded no kill (cap inert?)" >&2; exit 1; }
grep -q '"cause": "cap-exceeded"' "$tmpdir/cap-t1.json" \
    || { echo "verify: kill cause is not cap-exceeded" >&2; exit 1; }
# The same capped matrix killed mid-flight must resume to the same bytes,
# carrying the Killed outcomes through the journal.
set +e
./target/release/tps_run --bench gups --mech tps --mech thp --scale test \
    --seed 7 --tenants 8 --tenant-cap 3:4194304 --on-oom kill-victim \
    --threads 1 --checkpoint "$tmpdir/cap.ckpt" --halt-after 1 >/dev/null
halt=$?
set -e
[ "$halt" -eq 5 ] \
    || { echo "verify: capped --halt-after exited $halt, expected 5" >&2; exit 1; }
./target/release/tps_run --bench gups --mech tps --mech thp --scale test \
    --seed 7 --tenants 8 --tenant-cap 3:4194304 --on-oom kill-victim \
    --threads 4 --resume "$tmpdir/cap.ckpt" --json "$tmpdir/cap-resumed.json" >/dev/null
cmp "$tmpdir/cap-t1.json" "$tmpdir/cap-resumed.json" \
    || { echo "verify: capped-tenant resume differs from the uninterrupted run" >&2; exit 1; }

echo "==> benchmark package gate (tps-perf unit tests + golden digests)"
# crates/tps-bench/perf is its own Cargo workspace, so `--workspace`
# above never builds it; these steps keep it compiling against the
# simulator crates. Its tests include traced counters == Machine::run.
cargo test --release -q --manifest-path crates/tps-bench/perf/Cargo.toml
# Report CRC32s and per-cell counters at seed 7 must match the committed
# digests byte for byte.
cargo run --release -q --manifest-path crates/tps-bench/perf/Cargo.toml -- golden \
    | diff - crates/tps-bench/perf/golden-seed-7.txt \
    || { echo "verify: tps-perf golden digests differ from golden-seed-7.txt" >&2; exit 1; }

echo "==> figure gate (every figure/table harness at test scale == figures-test.txt)"
# All 15 harnesses under crates/tps-bench/benches print deterministic
# tables (no timings), so their test-scale output is pinned byte for byte.
TPS_SCALE=test cargo bench -q -p tps-bench --bench '*' \
    | diff - crates/tps-bench/figures-test.txt \
    || { echo "verify: figure output differs from crates/tps-bench/figures-test.txt" >&2; exit 1; }
# A typo'd scale must be rejected, not silently run at the default.
if TPS_SCALE=smal cargo bench -q -p tps-bench --bench fig08_mpki >/dev/null 2>&1; then
    echo "verify: TPS_SCALE=smal was accepted" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# --all-targets lints tests, examples and benches too, not just the
# library and binary targets. Beyond clippy's defaults this enforces
# tps-os, tps-mem, tps-pt and tps-sim's machine.rs denying
# unwrap/expect/panic!/unreachable!/todo!/unimplemented! outside tests,
# and clippy.toml's disallowed wall-clock, environment, thread-identity
# and RandomState calls.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --workspace (RUSTDOCFLAGS=-D warnings)"
# Broken or private intra-doc links fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> tps-lint --workspace (workspace invariants: any finding fails)"
cargo run -q --release -p tps-lint -- --workspace

echo "==> tps-lint --workspace --format json (machine-readable gate)"
cargo run -q --release -p tps-lint -- --workspace --format json > "$tmpdir/lint.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$tmpdir/lint.json" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("diagnostics", "total", "failed"):
    assert key in doc, f"lint JSON is missing {key!r}"
assert isinstance(doc["diagnostics"], list), "diagnostics must be a list"
assert doc["total"] == len(doc["diagnostics"]), "total disagrees with the list"
assert doc["failed"] is False, "lint JSON reports failed=true"
PYEOF
else
    # Fallback without python3: structural greps.
    grep -q '"failed": false' "$tmpdir/lint.json" \
        || { echo "verify: lint JSON reports failure or is malformed" >&2; exit 1; }
    grep -q '"total":' "$tmpdir/lint.json" \
        || { echo "verify: lint JSON is missing the total count" >&2; exit 1; }
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "verify: all gates passed"
