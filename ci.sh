#!/bin/sh
# ci.sh — the repository's verification gauntlet: static analysis, build,
# race-enabled tests, and a short fuzz smoke over the four hostile-input
# parsers (the binary model loader, the WAV chunk walker, the TCP wire and
# the THFC feature-cache reader).
set -eux

# go vet's asmdecl pass also checks internal/deploy/walk_amd64.s and
# requant_amd64.s, internal/dsp/fft_amd64.s and internal/cpuid/cpuid_amd64.s
# against their Go declarations: argument frame offsets, sizes and the frame
# size.
go vet ./...
# Portable-path build check: a non-amd64 build compiles the Go row walk, the
# Go requant loop and the assembly stubs (walk_other.go), so none of them
# can break unnoticed.
GOARCH=arm64 go vet ./internal/deploy
# Formatting gate: every tracked Go file must already be gofmt-clean.
UNFORMATTED="$(gofmt -l $(git ls-files '*.go'))"
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt would reformat:"
    echo "$UNFORMATTED"
    exit 1
fi
go build ./...
# The -race pass also drives the InferBatch worker pool and its pooled
# arenas, and the scalar oracle running beside an engine's first compile
# (TestInferBatchConcurrent, TestInferBatchLaneMatchesPerFrame,
# TestInferBatchLaneConcurrent, TestOracleConcurrentWithCompile in
# internal/deploy).
go test -race ./...

# Engine benchmark smoke: one iteration of each packed-engine benchmark, so
# a broken hot path fails CI even when nobody reads BENCH_engine.json, and of
# the paper-shape row benchmarks (row walks and requant rows on both kernels,
# the ds1.dw depthwise layer over its plane and its hop bands).
go test -run='^$' -bench='Engine' -benchtime=1x .
go test -run='^$' -bench='BenchmarkRowWalk|BenchmarkRequantRow|BenchmarkDepthwiseLayer' -benchtime=1x ./internal/deploy

# Disabled-telemetry overhead gate: the single-frame inference hot path must
# stay allocation-free when no observer is attached — the telemetry
# subsystem's "near-zero cost when off" contract.
BENCH_OUT="$(go test -run='^$' -bench='^BenchmarkEngineInfer$' -benchmem -benchtime=100x .)"
echo "$BENCH_OUT"
echo "$BENCH_OUT" | grep 'BenchmarkEngineInfer' | grep -q ' 0 allocs/op'

# Integer-path gauntlet.
# (1) 0-alloc gate for the word-packed paths: both activation policies and
#     the float32 reference simulation must run without allocating.
BENCH_INT="$(go test -run='^$' -bench='^BenchmarkEngineInfer(Mixed|Int8|Float)$' -benchmem -benchtime=100x .)"
echo "$BENCH_INT"
[ "$(echo "$BENCH_INT" | grep -c ' 0 allocs/op')" -eq 3 ]
# (2) Bit-exactness smoke: Infer must agree byte-for-byte with the
#     FakeQuant-equivalent float simulation and the int64 scalar oracle on a
#     synthetic paper-shape engine under both policies and on random small
#     engines, at least a third of which must give varying oracle scores (a
#     parity check over constant scores passes a conv chain that computes
#     nothing), and the column-lane
#     row kernels (both ternary row walks — AVX2 where the host runs it, and
#     the portable Go walk — the walk-then-requant conv rows, a short plane
#     buffer panicking, depthwise edge-shifted word loads) must match their
#     scalar oracles property-wise, as must the requant rows (the AVX2
#     kernels, the Go loop at each of its three clamp shapes and their
#     dispatch against a per-element Apply over every shift 1–62), the fused
#     R = 1 depthwise kernel (against dwGatherTap's tap sums and the scalar
#     Apply chain, over whole planes and hop bands, both policies, with a
#     saturated multiplier falling back to the scalar walk) and both
#     depthwise paths against the dense forwardRef at dense and padded
#     strides, and an observer attached to a batch must change no result.
go test -count=1 -short \
    -run='TestInferIntMatchesFloatSimulation|TestInferIntMatchesNaiveRandomized|TestInferIntZeroAllocs|TestEngineSparseMatchesNaiveRandomized|TestFloatSimulationRandomized' \
    ./internal/deploy
go test -count=1 \
    -run='TestGatherRowProperty|TestRowWalksMatchOracle|TestRowWalkShortPlanesPanics|TestConvRowsMatchOracle|TestRequantRowsMatchOracle|TestDWColMatchesScalar|TestDWTapWord|TestSparseConvMatchesNaive|TestBatchLanePathWithTelemetry' \
    ./internal/deploy
# (3) The portable row kernels end to end: the whole package under -tags
#     purego, where every row takes the Go walk and the Go requant loop, so
#     each parity and 0-alloc gate in it also holds on hosts without AVX2
#     and off amd64.
go test -count=1 -tags purego ./internal/deploy
# (4) Serialization round-trip matrix: a PolicyInt8 engine written as .thnt
#     v1, v2 and v3 must read back and score identically (v3 additionally
#     preserving the policy byte and calibration table).
go test -count=1 -run='TestWriteToVersionMatrix|TestV1ArtifactsStillReadable' ./internal/deploy

# Batch gauntlet (InferBatch: every frame through Infer's pipeline).
# (1) 0-alloc gate for the batch path: both activation policies with a
#     reused result slice must run without allocating.
BENCH_BATCH="$(go test -run='^$' -bench='^BenchmarkEngineInferBatch(Mixed|Int8)$' -benchmem -benchtime=10x .)"
echo "$BENCH_BATCH"
[ "$(echo "$BENCH_BATCH" | grep -c ' 0 allocs/op')" -eq 2 ]
# (2) Batch exactness/alloc/concurrency properties without the race
#     detector (the alloc-count gate skips under -race, where sync.Pool
#     drops items by design).
go test -count=1 -short \
    -run='TestInferBatchMatchesInfer|TestInferBatchLaneMatchesPerFrame|TestInferBatchZeroAllocs|TestInferBatchConcurrent|TestInferBatchLaneConcurrent' \
    ./internal/deploy
# (3) Mixed single-frame/batch concurrency under the race detector: one
#     goroutine hammering the resident-arena Infer path while three more
#     drive InferBatch on the same engine — the contract the serving daemon
#     leans on.
go test -race -count=1 -run='TestMixedSingleBatchConcurrent' ./internal/deploy
# (4) Multi-core batch smoke: the worker-scaling sweep (counts above the
#     host's CPUs are skipped) must clear the kws-bench gates — single-frame
#     int8 at least 2.5x faster than the float baseline (paired median),
#     batch ns/frame at workers=1 within 1.5x of single-frame (batch runs
#     the same per-frame pipeline, so this bounds its dispatch overhead),
#     1000 frames of batch output matching the scalar NaiveInt oracle under
#     both policies, the same oracle holding with a telemetry observer
#     attached, 1000 consecutive hops of InferHop matching full-window
#     Infer byte-for-byte, the incremental streaming pipeline (featurise +
#     infer per hop) at least 2x faster than full-window recompute (paired
#     median), and every single-frame, batch, hop and streaming-pipeline
#     row, StreamHopFull included, at 0 allocs/op — kws-bench exits nonzero
#     on any failure.
BDIR="$(mktemp -d)"
go build -o "$BDIR/kws-bench" ./cmd/kws-bench
"$BDIR/kws-bench" -workers 1,2,4 -reps 3 -o "$BDIR/bench-engine.json"
grep -q '"batch_parity_1000_frames": true' "$BDIR/bench-engine.json"
grep -q '"telemetry_parity_1000_frames": true' "$BDIR/bench-engine.json"
grep -q '"hop_parity_1000_hops": true' "$BDIR/bench-engine.json"
rm -rf "$BDIR"

# Incremental-hop gauntlet (temporal caching across overlapping windows).
# (1) 0-alloc gate for the per-hop entry point: a warm hop under each
#     policy (mixed, int8) must run without allocating — the steady-state
#     contract the streaming pipeline leans on.
BENCH_HOP="$(go test -run='^$' -bench='^BenchmarkEngineInferHop(Mixed|Int8)$' -benchmem -benchtime=100x .)"
echo "$BENCH_HOP"
[ "$(echo "$BENCH_HOP" | grep -c ' 0 allocs/op')" -eq 2 ]
# (2) Bit-exactness smoke: InferHop must agree byte-for-byte with the
#     full-window path across shifts, invalidations, ragged arrivals, and
#     both activation policies, in its scores and in every cached image of
#     its hop arena (one image per conv, which is the cache, plus the band
#     im2col and the scatter row the frame arena's two ping-pong planes do
#     without).
go test -count=1 -run='TestInferHop' ./internal/deploy
# (3) Gap/reset parity under the race detector: an incremental detector
#     interleaving gap concealment and resets must stay event-identical to
#     a full-window detector while another goroutine polls its stats, the
#     hop snap rule must hold at every sample rate, the cache ledger must
#     account every hop as a hit, miss, or invalidation, and the full-window
#     detector's in-place ring featurisation must match MFCC.Compute over
#     the unrolled window bit for bit.
go test -race -count=1 \
    -run='TestIncrementalGapResetParity|TestIncrementalCacheAccounting|TestIncrementalHopSnapping|TestFullWindowFeaturesMatchCompute' \
    ./internal/stream
#     A warm detector over the packed engine allocates nothing per steady
#     hop on either pipeline (the alloc count is meaningless under -race).
go test -count=1 -run='TestDetectorSteadyHopZeroAllocs' ./internal/stream
# (4) End-to-end incremental serving: a session opened under
#     Config.Incremental must deliver exactly the events of a standalone
#     incremental detector fed the same chunks and gap.
go test -count=1 -run='TestIncrementalServing' ./internal/serve
# (5) Lane timeouts under the race detector: hops that give up on a lane
#     still holding their frame must leave it a session-owned copy, never
#     the detector's feature buffer, which the next hop overwrites.
go test -race -count=1 -run='TestLaneTimeoutOrphansWindow' ./internal/serve

# DSP frontend gauntlet (one MFCC kernel for batch and streaming).
# (1) The whole package under the race detector, then the table memo's
#     concurrency test ten times over: goroutines building extractors and
#     frontends at once over a fresh configuration must match a serial run.
go test -race -count=1 ./internal/dsp
go test -race -count=10 -run='TestConcurrentConstructionMatchesSerial' ./internal/dsp
# (2) Allocation gates: batch MFCC.Compute allocates only its result
#     (at most 2 allocations per call), ring featurisation in place and a
#     steady-state streaming push allocate nothing.
go test -count=1 -run='TestMFCCComputeAllocs|TestComputeRingMatchesCompute|TestFrontendZeroAllocs' ./internal/dsp
# (3) The portable FFT loops end to end: dsp and stream under -tags purego,
#     where every transform takes the Go stages and split pass (the AVX2
#     kernels' oracle), and the non-amd64 build of dsp (fft_other.go) next to
#     deploy's.
go test -count=1 -tags purego ./internal/dsp ./internal/stream
GOARCH=arm64 go vet ./internal/dsp ./internal/cpuid
# (4) The AVX2 FFT kernels against the Go loops, bit for bit, built for
#     GOAMD64=v3: the Go oracle must match even where the compiler may use
#     v3 instructions (it emits no FMA for dsp today), and a frame-stage
#     benchmark smoke runs every stage on the kernels once.
GOAMD64=v3 go test -count=1 -run='TestFFTKernelsMatchGo' ./internal/dsp
go test -run='^$' -bench='BenchmarkFrameStages' -benchtime=1x ./internal/dsp

# Observability gauntlet (unit layer).
# (1) Prometheus text-exposition golden file: the rendered /metrics?format=prom
#     output for a deterministic registry must match testdata byte-for-byte
#     (regenerate with `go test ./internal/telemetry -run Golden -update`).
go test -count=1 -run='TestWritePrometheusGolden|TestWritePrometheusFormat' ./internal/telemetry
# (2) Flight-recorder and hop-trace concurrency properties under the race
#     detector: concurrent writers vs dumpers, wraparound ordering, torn-entry
#     invariants, and the histogram snapshot-consistency hammer.
go test -race -count=1 \
    -run='TestFlightRecorder|TestTraceStore|TestHistogramSnapshotConsistency' \
    ./internal/telemetry
# (3) Hot-path cost gates: recording a flight event and opening/committing a
#     hop trace must both run allocation-free — the flight recorder sits on
#     the session close/breaker/shed paths and the tracer on every chunk.
BENCH_OBS="$(go test -run='^$' -bench='^Benchmark(FlightRecord|TraceBeginCommit)$' -benchmem -benchtime=100x ./internal/telemetry)"
echo "$BENCH_OBS"
[ "$(echo "$BENCH_OBS" | grep -c ' 0 allocs/op')" -eq 2 ]

# Telemetry-server smoke: a live kws-stream must answer /healthz with an ok
# status and expose non-empty stream counters on /metrics while it holds.
TDIR="$(mktemp -d)"
go build -o "$TDIR/kws-stream" ./cmd/kws-stream
"$TDIR/kws-stream" -samples 4 -epochs 1 -script '_,yes,_' \
    -telemetry-addr 127.0.0.1:18173 -hold 20s &
STREAM_PID=$!
HEALTH=""
for _ in $(seq 1 120); do
    if HEALTH="$(curl -sf http://127.0.0.1:18173/healthz)"; then break; fi
    sleep 0.5
done
echo "$HEALTH" | grep -q '"status": "ok"'
# The stream may still be mid-flight at the first scrape: poll until the
# hop counter moves, then assert on a final snapshot.
for _ in $(seq 1 60); do
    curl -sf http://127.0.0.1:18173/metrics > "$TDIR/metrics.txt" || true
    if grep -q '^stream\.hops [1-9]' "$TDIR/metrics.txt"; then break; fi
    sleep 0.5
done
grep -q '^stream\.hops [1-9]' "$TDIR/metrics.txt"
grep -q '^stream\.samples [1-9]' "$TDIR/metrics.txt"
curl -sf http://127.0.0.1:18173/debug/vars > /dev/null
kill "$STREAM_PID" 2>/dev/null || true
wait "$STREAM_PID" 2>/dev/null || true
rm -rf "$TDIR"

# Parallel-training smoke under the race detector: one epoch of the data-
# parallel trainer (-workers 2) driven twice through the same feature cache,
# proving both the cold write and the warm reload paths end to end.
CACHE="$(mktemp -d)/feat.thfc"
go run -race ./cmd/kws-train -model st-hybrid -samples 4 -width 0.1 \
    -epochs 1 -workers 2 -cache "$CACHE"
test -f "$CACHE"
go run -race ./cmd/kws-train -model st-hybrid -samples 4 -width 0.1 \
    -epochs 1 -workers 2 -cache "$CACHE"
rm -rf "$(dirname "$CACHE")"

# Serving gauntlet: boot the multi-session daemon under the race detector,
# wait for /healthz, then drive 100 wire sessions — ~30% of them through the
# fault injector (NaN bursts, truncation, drops, reorders, stalls, aborts).
# The drive exits nonzero if any clean session is lost or any session fails
# to sustain, so fault leakage across sessions fails CI here. Afterwards the
# daemon must still report healthy, and SIGTERM must drain to exit 0 within
# its budget (a leaked session exits 1 and fails the `wait`).
SDIR="$(mktemp -d)"
go build -race -o "$SDIR/kws-serve" ./cmd/kws-serve
"$SDIR/kws-serve" -addr 127.0.0.1:19470 -telemetry-addr 127.0.0.1:19471 \
    -idle-timeout 10s -read-timeout 5s -drain-timeout 15s &
SERVE_PID=$!
for _ in $(seq 1 120); do
    if curl -sf http://127.0.0.1:19471/healthz > /dev/null; then break; fi
    sleep 0.5
done
curl -sf http://127.0.0.1:19471/healthz | grep -q '"status": "ok"'
"$SDIR/kws-serve" -drive 127.0.0.1:19470 -sessions 100 -fault-frac 0.3 \
    -seconds 1 -o "$SDIR/drive.json"
grep -q '"clean_sessions_lost": 0' "$SDIR/drive.json"
curl -sf http://127.0.0.1:19471/healthz | grep -q '"status": "ok"'
curl -sf http://127.0.0.1:19471/metrics > "$SDIR/serve-metrics.txt"
grep -q '^serve\.sessions\.opened [1-9]' "$SDIR/serve-metrics.txt"
grep -q '^serve\.chunks [1-9]' "$SDIR/serve-metrics.txt"
# Observability endpoints on the live daemon: Prometheus exposition must
# carry the serve counters and the hop-latency histogram, /slo must report
# all three objectives with the budget intact after a clean drive, and the
# flight recorder must hold session open/close events from the drive.
curl -sf 'http://127.0.0.1:19471/metrics?format=prom' > "$SDIR/serve-prom.txt"
grep -q '^serve_sessions_opened_total [1-9]' "$SDIR/serve-prom.txt"
grep -q '^serve_hop_e2e_ns_bucket' "$SDIR/serve-prom.txt"
grep -q '^serve_sessions_closed_client_close_total [1-9]' "$SDIR/serve-prom.txt"
curl -sf http://127.0.0.1:19471/slo > "$SDIR/serve-slo.txt"
grep -q '"name": "hop-p99"' "$SDIR/serve-slo.txt"
grep -q '"name": "clean-close"' "$SDIR/serve-slo.txt"
grep -q '"name": "event-delivery"' "$SDIR/serve-slo.txt"
curl -sf http://127.0.0.1:19471/debug/flight > "$SDIR/serve-flight.json"
grep -q '"kind": "session.open"' "$SDIR/serve-flight.json"
grep -q '"kind": "session.close"' "$SDIR/serve-flight.json"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
rm -rf "$SDIR"

# Fuzz smoke: 10 s per hostile-input parser. Seeds alone run in `go test`;
# this exercises the mutation engine against fresh corpus entries.
go test -run='^$' -fuzz=FuzzReadEngine -fuzztime=10s ./internal/deploy
go test -run='^$' -fuzz=FuzzReadWAV -fuzztime=10s ./internal/audio
go test -run='^$' -fuzz=FuzzTCPWire -fuzztime=10s ./internal/serve
go test -run='^$' -fuzz=FuzzLoadCache -fuzztime=10s ./internal/speechcmd
