GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race race-stress lint alloc-gate restart-check chaos trace-export fuzz vet examples lines clean

all: build vet lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The protocol harness is goroutine-heavy; the race matrix is a tier-1
# gate, not an optional extra.
race:
	$(GO) test -race ./...

# Kill/Recover interleavings are decided by scheduling luck: one pass of
# the race matrix meets a given window about once in hundreds of runs.
# This target looks for that class on purpose — the concurrent
# kill/recover tests fifty times over, on both transports, and the
# traced chaos schedule whose trace checker catches a kill landing inside
# a checkpoint. TestMasterRecoveryResync is there for the recovered
# master's resync floors: its roll-forward reorders AnySource deliveries.
# TestReorderedReplayKeepsFloors forces that reorder where a delta would
# lose an element, and TestRestartAfterReorderedReplayKeepsFloors restarts
# after it; TestDeterministicReplayResendsDeltas has a named-source
# replay resend its floor-free deltas to a second victim.
# TestKilledChannelEndsKeepTheBase kills a ring rank with relative
# piggybacks in flight to it and between two of its sends, and
# TestRestartResendsRelativePiggybacks restarts with relative
# piggybacks in the logs: each first delivery reads its own element
# against a base a checkpoint restored or a replay regenerated.
# TestCountersExactAtQuiescence holds the app goroutine's batched
# counters exact at every publication point, across a kill;
# TestNonBlockingSendWaitsAtFullLink kills a sender parked in Send at a
# full link and recovers it;
# TestBufferedSendOwnsTheFrame races the fabric's lock-free inline
# admission against Kill/Stall/Revive/Unstall.
# TestDeliveredPayloadOwnership races ingest against a lent payload and
# the pool's reuse of a recycled envelope against a kill and its resends.
RACE_STRESS = 'TestDeliveredPayloadOwnership|TestConcurrentKillRecover|TestNonBlockingSendWaitsAtFullLink|TestKillRace|TestKillPeerDuringCollect|TestKillRecovererMidRecovery|TestMasterRecoveryResync|TestCountersExactAtQuiescence|TestRecoverAwaitsDownHolder|TestRestartWithoutCheckpointRollsBack|TestDeterministicReplayResendsDeltas|TestReorderedReplayKeepsFloors|TestRestartAfterReorderedReplayKeepsFloors|TestKilledChannelEndsKeepTheBase|TestRestartResendsRelativePiggybacks'
race-stress:
	$(GO) test -race -count=50 -run $(RACE_STRESS) ./internal/harness/
	WINDAR_TRANSPORT=tcp $(GO) test -race -count=50 -run $(RACE_STRESS) ./internal/harness/
	$(GO) test -race -count=50 -run 'TestBufferedSendOwnsTheFrame' ./internal/transport/
	$(GO) test -race -count=50 -run TestLineageAcrossRecovery ./internal/chaos/

vet:
	$(GO) vet ./...

# Formatting, then protocol-aware static analysis (cmd/windar-lint): any
# file gofmt -l lists fails the target, then every analyzer
# (windar-lint -list) runs. Exit 1 on any finding.
lint:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/windar-lint ./...

# Hot-path allocation gate: measure allocs/op on the probed hot paths and
# fail on any regression against the committed BENCH_alloc.json. Re-run
# `go run ./cmd/windar-bench -fig alloc` to re-baseline after a
# deliberate change.
alloc-gate:
	$(GO) run ./cmd/windar-bench -fig alloc -alloc-check

# Process-level durability acceptance: build windar-run, SIGKILL it
# mid-run over the disk backend, re-exec with -resume, and require the
# byte-identical fault-free final state with clean trace validation.
restart-check:
	$(GO) build -o out/windar-run ./cmd/windar-run
	$(GO) run ./cmd/windar-chaos -restart-bin out/windar-run

# Deterministic fault-schedule soak: fixed seed matrix on both
# transports with the byte-for-byte replay check; a failure prints the
# reproducing seed and command.
chaos:
	$(GO) run ./cmd/windar-chaos -seeds 1,2,3,4,5 -transports mem,tcp -stalls -replay -v

# Causal-trace acceptance: run a traced chaos schedule with the flight
# recorder armed, reconstruct the cross-rank lineage DAG from the
# exported trace, validate it against every lineage and trace invariant,
# and render both export formats.
trace-export:
	rm -rf out/trace && mkdir -p out/trace
	$(GO) run ./cmd/windar-chaos -seeds 7 -transports mem,tcp -tracing \
		-trace-dir out/trace -flight-dir out/trace -v
	$(GO) run ./cmd/windar-trace -in out/trace/trace-seed7-mem.jsonl -check -summary
	$(GO) run ./cmd/windar-trace -in out/trace/trace-seed7-tcp.jsonl -check
	$(GO) run ./cmd/windar-trace -in out/trace/trace-seed7-mem.jsonl \
		-format chrome -out out/trace/trace.chrome.json
	$(GO) run ./cmd/windar-trace -in out/trace/trace-seed7-mem.jsonl \
		-format otlp -out out/trace/trace.otlp.json

# Embedder-facing smoke: vet the examples and the gateway demo, run every
# library example end to end (masterworker and stencil exit non-zero on
# a recovery mismatch), and run the gateway's scatter-gather with an
# injected worker failure (short mode: in-process, no listener). These
# are the packages the pubapi analyzer holds to the public windar
# surface — this target proves they actually work as embeddings.
examples:
	$(GO) vet ./examples/... ./cmd/windar-gateway/
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/interceptor
	$(GO) run ./examples/tracing
	$(GO) run ./examples/masterworker
	$(GO) run ./examples/stencil
	$(GO) run ./examples/protocols
	$(GO) run ./cmd/windar-gateway -demo -workers 2
	$(GO) run ./cmd/windar-gateway -demo -workers 2 -transport tcp

# Wire-format, WAL-segment, checkpoint-blob, control-message, TDI-piggyback, PWD-protocol and trace-import fuzzers. `go test -fuzz` accepts exactly one
# target per invocation, so each runs separately; FUZZTIME bounds each
# target. A trace-import input costs ~0.3 ms, so minimizing each new
# corpus entry of that fuzzer is capped at 2s instead of the default 60s,
# which would otherwise eat the whole budget.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzFrameStream$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzReadVec$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzReadVecDelta$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzVecDeltaRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzVecPairs$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZTIME) ./internal/stable
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime $(FUZZTIME) ./internal/ckpt
	$(GO) test -run '^$$' -fuzz '^FuzzControlDecode$$' -fuzztime $(FUZZTIME) ./internal/harness
	$(GO) test -run '^$$' -fuzz '^FuzzTDIPiggyback$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzPWDDecode$$' -fuzztime $(FUZZTIME) ./internal/determinant
	$(GO) test -run '^$$' -fuzz '^FuzzImportValidate$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/trace

# The size every change reports: lines of non-test Go outside bench/,
# testdata excluded.
lines:
	@find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l

clean:
	$(GO) clean ./...
