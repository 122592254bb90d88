# unikraft-rs — tier-1 verification and common developer targets.
#
# `make verify` is the one-command tier-1 check (build + tests for the
# root crate, as the ROADMAP specifies); `make verify-workspace` sweeps
# every crate in the workspace, which is what CI should run.

CARGO ?= cargo

.PHONY: verify verify-trace-off verify-fault-matrix verify-churn verify-sanitize verify-workspace lint test bench bench-event bench-smoke bench-json examples clean

## Tier-1: release build + root-crate tests (ROADMAP's check).
verify:
	$(CARGO) build --release
	$(CARGO) test -q

## The compile-out guarantee: build and test the datapath with
## tracing (and the uktrace/ukstats default features) off. The
## `trace_noop` cfg test asserts the no-op ring is zero-sized and that
## the echo scenario records nothing — i.e. the tracepoints added no
## code to `pump` and friends.
verify-trace-off:
	$(CARGO) test -q -p uknetstack --no-default-features
	$(CARGO) test -q -p ukstats --no-default-features
	$(CARGO) test -q -p uktrace --no-default-features

## The loss-tolerance property in both feature modes: the
## fault-schedule proptest (arbitrary drop × dup × reorder × corrupt ×
## burst schedules, TSO and GRO on or off, must deliver byte-identical
## TCP streams in both directions through the SACK + RACK-TLP
## recovery engine), the SACK conformance proptests (receiver block
## generation vs an RFC 2018 reference, sender scoreboard vs a naive
## bitmap) and the wire-level recovery suite run with the
## observability features on (default) and compiled out — the recovery
## machinery must not depend on stats/tracing being present.
verify-fault-matrix:
	$(CARGO) test -q -p uknetstack --test proptests any_fault_schedule
	$(CARGO) test -q -p uknetstack --test proptests sack_
	$(CARGO) test -q -p uknetstack --test tcp_recovery
	$(CARGO) test -q -p uknetstack --no-default-features --test proptests any_fault_schedule
	$(CARGO) test -q -p uknetstack --no-default-features --test proptests sack_
	$(CARGO) test -q -p uknetstack --no-default-features --test tcp_recovery

## The connection-lifecycle properties in both feature modes: the
## wire-level lifecycle suite (SYN-flood survival and reclamation,
## handshake-timeout reaping, TIME_WAIT 2MSL + port recycling,
## keepalive dead-peer teardown, RST discipline, churn leak-checks)
## and the timer-wheel-vs-reference proptest run with the
## observability features on (default) and compiled out — the control
## plane must not depend on stats/tracing being present.
verify-churn:
	$(CARGO) test -q -p uknetstack --test tcp_lifecycle
	$(CARGO) test -q -p uknetstack --test proptests timer_wheel_matches
	$(CARGO) test -q -p uknetstack --no-default-features --test tcp_lifecycle
	$(CARGO) test -q -p uknetstack --no-default-features --test proptests timer_wheel_matches

## Repo-native invariant linter (crates/ukcheck): no-alloc hot path,
## panic-free datapath, SAFETY-commented unsafe, atomic-ordering
## policy. Exits non-zero on any unescaped violation; every escape
## must carry a written justification (see crates/ukcheck/README.md).
lint:
	$(CARGO) run -q --release -p ukcheck -- --root $(CURDIR)

## The dynamic counterpart of `lint`: the pool suites with the
## `netbuf-sanitizer` feature on, so double-recycle, cross-pool
## give-back, use-after-recycle and end-of-test leaks panic at the
## faulting site instead of surfacing as downstream corruption. The
## zero_alloc guard runs sanitized too — poisoning is a byte fill and
## provenance is `&'static Location`, so even the sanitized pool must
## circulate without touching the heap.
verify-sanitize:
	$(CARGO) test -q -p uknetdev --features netbuf-sanitizer
	$(CARGO) test -q -p uknetstack --features netbuf-sanitizer --lib
	$(CARGO) test -q -p uknetstack --features netbuf-sanitizer --test zero_alloc
	$(CARGO) test -q -p uknetstack --features netbuf-sanitizer --test tcp_recovery

## The full sweep: every workspace crate's unit, integration and prop
## tests, the static invariant lint, the sanitized pool suites, plus
## bench/example compilation and the netpath smoke bench (which
## asserts 0.000 allocs/frame on the pooled datapath).
verify-workspace:
	$(CARGO) build --release --workspace --benches --examples
	$(CARGO) test -q --workspace
	$(MAKE) lint
	$(MAKE) verify-sanitize
	$(MAKE) verify-trace-off
	$(MAKE) verify-fault-matrix
	$(MAKE) verify-churn
	$(MAKE) bench-smoke

test:
	$(CARGO) test -q --workspace

## All criterion benches (smoke harness — prints ns/iter).
bench:
	$(CARGO) bench

## Just the ukevent readiness benches.
bench-event:
	$(CARGO) bench -p ukbench --bench event

## Cheap datapath smoke: runs the netpath bench in test mode (the
## offline criterion stand-in keeps runs short) and prints the
## allocs-per-frame figures — RTT matrix plus the bulk-transfer
## matrix, whose pooled cells (including the 1 MB TSO transfers) are
## asserted at 0.000 allocs/frame.
bench-smoke:
	$(CARGO) bench -p ukbench --bench netpath -- --test

## Machine-readable perf trajectory: runs the netpath ablation
## matrices — the PR 3 RTT cells (per-frame vs burst, checksum offload
## on/off, pooled vs heap), the PR 4 bulk-throughput grid
## (4KB/64KB/1MB × tso × rx_csum, bytes/s, allocs/frame), the PR 5
## receive-path grid (64KB/1MB per-MSS ingest × gro on/off ×
## netbuf-recv vs copy-recv, receiver-side bytes/s, allocs/frame), and
## the PR 7 goodput-vs-loss grid (1MB per-MSS transfers × drop rate
## {0, 1/64, 1/16, 1/8} × congestion control on/off, goodput with
## recovery overhead included plus retransmit/RTO counts), and the
## PR 8 connection-scale grid (1K/10K/100K established-idle
## connections: establishment rate, resident bytes/conn, echo hot
## path at scale, plus connect/close churn rate and accept rate under
## a 10×-backlog SYN flood), and the recovery grid (1MB per-MSS
## transfers on the SACK + RACK-TLP engine × wire {lossless, 1/8 drop,
## reorder, drop+reorder, burst drop}, goodput plus scoreboard/RACK/TLP
## counters, gated: ≥ 32% of lossless at 1/8 drop, reorder-only cells
## see zero false fast-retransmits and zero retransmits, the
## burst-drop cell drives SACK hole retransmissions, the lossless cell
## stays 0.000 allocs/frame) — and writes them to BENCH_PR$(PR).json,
## so each change records its own file: `make bench-json PR=<N>`
## writes BENCH_PR<N>.json, and the target fails when PR is unset.
## Since PR 6 each cell also embeds the ukstats counter deltas
## measured inside its timed window and the document ends with a full
## registry snapshot; the human tables are suppressed (leveled logging
## drops to Warn in --json mode).
bench-json:
	@test -n "$(PR)" || { echo "bench-json: set PR to the change's number: make bench-json PR=<N>" >&2; exit 1; }
	$(CARGO) bench -p ukbench --bench netpath -- --test --json $(CURDIR)/BENCH_PR$(PR).json

examples:
	$(CARGO) build --release --examples

clean:
	$(CARGO) clean
