package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/deploy"
	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// serveReport is the BENCH_serve.json schema: the serving daemon's core
// driven in-process by the load generator at four-digit session counts,
// with fault injection on a quarter of the sessions.
type serveReport struct {
	Schema     string `json:"schema"`
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`

	Seed          int64   `json:"seed"`
	Density       float64 `json:"density"`
	Lanes         int     `json:"lanes"`
	LaneBatch     int     `json:"lane_batch"`
	FaultFraction float64 `json:"fault_fraction"`
	SecondsPerSes float64 `json:"audio_seconds_per_session"`

	Load serve.LoadReport `json:"load"`

	// PeakConcurrent is the high-water mark of simultaneously open
	// sessions, sampled from the live gauge while the load ran.
	PeakConcurrent int64 `json:"peak_concurrent_sessions"`

	// Hop latency across every session, from the shared registry: the time
	// from a detector hop starting to its posterior landing, inference
	// lane wait included.
	Hops     int64 `json:"hops"`
	HopP50Ns int64 `json:"hop_p50_ns"`
	HopP95Ns int64 `json:"hop_p95_ns"`
	HopP99Ns int64 `json:"hop_p99_ns"`

	// HopE2EP99Ns is the end-to-end hop pipeline latency (ingress → lane →
	// infer → done) from the tracing layer attached to the main run.
	HopE2EP99Ns int64 `json:"hop_e2e_p99_ns"`

	// Absorbed counts every fault the server ate without letting it out of
	// its session, by kind.
	Absorbed map[string]int64 `json:"absorbed"`

	// FlightEvents is how many structured events the flight recorder logged
	// over the run (admissions, trips, quarantines, sheds, drain phases).
	FlightEvents uint64 `json:"flight_events"`

	DrainSessions  int   `json:"drain_sessions"`
	DrainForced    int   `json:"drain_forced"`
	DrainLeaked    int   `json:"drain_leaked"`
	DrainElapsedMs int64 `json:"drain_elapsed_ms"`

	// TelemetryOverhead compares a fully observed serving run (registry +
	// flight recorder + hop tracing + engine telemetry) against a detached
	// run of the same load. The gate: attached throughput within 10% of
	// detached.
	TelemetryOverhead overheadReport `json:"telemetry_overhead"`

	// Incremental reruns a fault-injected load with Config.Incremental —
	// per-session engine hop caches instead of the shared lanes — and
	// reports the hop-cache hit rate alongside throughput.
	Incremental incrementalReport `json:"incremental"`

	Note string `json:"note,omitempty"`
}

// overheadReport is the telemetry-overhead row: detached vs attached
// throughput on an identical clean load, best of two runs each.
type overheadReport struct {
	Sessions              int     `json:"sessions"`
	DetachedSamplesPerSec float64 `json:"detached_samples_per_sec"`
	AttachedSamplesPerSec float64 `json:"attached_samples_per_sec"`
	// OverheadFrac = 1 - attached/detached, clamped at 0.
	OverheadFrac float64 `json:"overhead_frac"`
	// LaneBatches counts the InferBatch calls the serve lanes coalesced in
	// the attached run.
	LaneBatches int64 `json:"lane_batches"`
	// Pass gates the row: overhead <= 10%.
	Pass bool `json:"pass"`
}

// incrementalReport is the temporal-cache serving row: the same load
// generator with Config.Incremental on, so each session hops through its own
// engine hop cache. Gaps from the fault injector's dropped chunks invalidate
// caches mid-stream, so the hit rate below is a faulted-load figure, not a
// best case. Pass requires no clean session lost and a majority hit rate.
type incrementalReport struct {
	Sessions              int     `json:"sessions"`
	FaultFraction         float64 `json:"fault_fraction"`
	SamplesPerSec         float64 `json:"samples_per_sec"`
	CleanSessionsLost     int     `json:"clean_sessions_lost"`
	HopCacheHits          int64   `json:"hop_cache_hits"`
	HopCacheMisses        int64   `json:"hop_cache_misses"`
	HopCacheInvalidations int64   `json:"hop_cache_invalidations"`
	HitRate               float64 `json:"hit_rate"`
	HopP50Ns              int64   `json:"hop_p50_ns"`
	HopP99Ns              int64   `json:"hop_p99_ns"`
	Pass                  bool    `json:"pass"`
}

// benchIncremental drives a fault-injected load through the incremental
// serving pipeline and reads the cache ledger off the run's registry.
func benchIncremental(seed int64, density float64, sessions int, faultFrac float64) incrementalReport {
	reg := telemetry.NewRegistry()
	eng := deploy.SyntheticEngine(seed, density)
	srv, err := serve.New(serve.Config{
		Engine:          eng,
		SampleRate:      4000,
		Incremental:     true,
		MaxSessions:     sessions + 64,
		IdleTimeout:     60 * time.Second,
		ClassifyTimeout: 30 * time.Second,
		Registry:        reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "kws-bench:", err)
		os.Exit(1)
	}
	load := serve.RunLoad(serve.DirectTarget{Srv: srv}, serve.LoadConfig{
		Sessions:      sessions,
		FaultFraction: faultFrac,
		Seconds:       2,
		ChunkMs:       250,
		Seed:          seed + 3,
		PushRetries:   400,
		RetryEvery:    5 * time.Millisecond,
		WaitClose:     120 * time.Second,
		Fault: faultinject.StreamConfig{
			PNaNBurst: 0.1, PClip: 0.05, PTruncate: 0.05, PDropChunk: 0.05,
			PSwap: 0.05, PStall: 0.02, PAbort: 0.02,
			StallMin: time.Millisecond, StallMax: 10 * time.Millisecond,
		},
	})
	dctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	srv.Drain(dctx)
	cancel()

	hop := reg.LatencyHistogram("stream.hop.ns").Snapshot(false)
	rep := incrementalReport{
		Sessions:              sessions,
		FaultFraction:         faultFrac,
		SamplesPerSec:         load.SamplesPerSec,
		CleanSessionsLost:     load.CleanSessionsLost,
		HopCacheHits:          reg.Counter("stream.hop.cache.hits").Value(),
		HopCacheMisses:        reg.Counter("stream.hop.cache.misses").Value(),
		HopCacheInvalidations: reg.Counter("stream.hop.cache.invalidations").Value(),
		HopP50Ns:              hop.P50,
		HopP99Ns:              hop.P99,
	}
	if total := rep.HopCacheHits + rep.HopCacheMisses; total > 0 {
		rep.HitRate = float64(rep.HopCacheHits) / float64(total)
	}
	rep.Pass = rep.CleanSessionsLost == 0 && rep.HitRate >= 0.5
	return rep
}

// benchServe drives the serving core with cfgSessions concurrent sessions
// in-process (no TCP, so the numbers isolate the serving machinery) and
// writes BENCH_serve.json. The run fails loudly if any clean session is
// lost or fewer sessions are sustained than the thousand-session headline.
func benchServe(out string, seed int64, density float64, sessions int, faultFrac float64) {
	reg := telemetry.NewRegistry()
	eng := deploy.SyntheticEngine(seed, density)
	lanes := runtime.NumCPU() / 2
	if lanes < 1 {
		lanes = 1
	}
	const laneBatch = 16
	flight := telemetry.NewFlightRecorder(1 << 14)
	traces := telemetry.NewTraceStore(1 << 12)
	srv, err := serve.New(serve.Config{
		Engine:          eng,
		SampleRate:      4000,
		MaxSessions:     sessions + 64,
		IdleTimeout:     60 * time.Second,
		ClassifyTimeout: 30 * time.Second,
		Lanes:           lanes,
		LaneBatch:       laneBatch,
		Registry:        reg,
		Flight:          flight,
		Traces:          traces,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "kws-bench:", err)
		os.Exit(1)
	}

	// Sample the live session gauge for the peak-concurrency headline.
	quit := make(chan struct{})
	sampled := make(chan int64)
	go func() {
		g := reg.Gauge("serve.sessions.active")
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		var peak int64
		for {
			select {
			case <-t.C:
				if v := g.Value(); v > peak {
					peak = v
				}
			case <-quit:
				sampled <- peak
				return
			}
		}
	}()

	const secondsPer = 1.5
	load := serve.RunLoad(serve.DirectTarget{Srv: srv}, serve.LoadConfig{
		Sessions:      sessions,
		FaultFraction: faultFrac,
		Seconds:       secondsPer,
		ChunkMs:       250,
		Seed:          seed + 1,
		PushRetries:   400,
		RetryEvery:    5 * time.Millisecond,
		WaitClose:     120 * time.Second,
		Fault: faultinject.StreamConfig{
			PNaNBurst: 0.1, PClip: 0.05, PTruncate: 0.05, PDropChunk: 0.05,
			PSwap: 0.05, PStall: 0.02, PAbort: 0.02,
			StallMin: time.Millisecond, StallMax: 10 * time.Millisecond,
		},
	})
	close(quit)
	peak := <-sampled

	dctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	st := srv.Drain(dctx)
	cancel()

	hop := reg.LatencyHistogram("stream.hop.ns").Snapshot(false)
	hopE2E := reg.LatencyHistogram("serve.hop.e2e.ns").Snapshot(false)
	rep := serveReport{
		Schema:         "kws-serve-bench/v4",
		Generated:      time.Now().UTC().Format(time.RFC3339),
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		Seed:           seed,
		Density:        density,
		Lanes:          lanes,
		LaneBatch:      laneBatch,
		FaultFraction:  faultFrac,
		SecondsPerSes:  secondsPer,
		Load:           load,
		PeakConcurrent: peak,
		Hops:           reg.Counter("stream.hops").Value(),
		HopP50Ns:       hop.P50,
		HopP95Ns:       hop.P95,
		HopP99Ns:       hop.P99,
		HopE2EP99Ns:    hopE2E.P99,
		FlightEvents:   flight.Total(),
		Absorbed: map[string]int64{
			"scrubbed_samples":   reg.Counter("stream.faults.scrubbed").Value(),
			"clipped_samples":    reg.Counter("stream.faults.clipped").Value(),
			"concealed_samples":  reg.Counter("stream.faults.concealed").Value(),
			"bad_posteriors":     reg.Counter("stream.faults.bad_posteriors").Value(),
			"watchdog_resets":    reg.Counter("stream.faults.watchdog_resets").Value(),
			"fault_score":        reg.Counter("serve.faults.absorbed").Value(),
			"panics_recovered":   reg.Counter("serve.faults.panics_recovered").Value(),
			"breaker_trips":      reg.Counter("serve.breaker.trips").Value(),
			"quarantined":        reg.Counter("serve.sessions.quarantined").Value(),
			"backpressure_drops": reg.Counter("serve.chunks.backpressure_rejected").Value(),
		},
		DrainSessions:  st.Sessions,
		DrainForced:    st.Forced,
		DrainLeaked:    st.Leaked,
		DrainElapsedMs: st.Elapsed.Milliseconds(),
	}
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.NumCPU = runtime.NumCPU()
	if rep.NumCPU == 1 {
		rep.Note = "single-CPU host: all sessions timeslice one core, so hop latency reflects queueing, not engine speed"
	}
	rep.TelemetryOverhead = benchTelemetryOverhead(seed, density)
	rep.Incremental = benchIncremental(seed, density, 200, faultFrac)

	if load.CleanSessionsLost > 0 {
		fmt.Fprintf(os.Stderr, "kws-bench: REGRESSION: %d clean sessions lost under fault load\n", load.CleanSessionsLost)
	}
	if load.SessionsSustained < 1000 && sessions >= 1000 {
		fmt.Fprintf(os.Stderr, "kws-bench: REGRESSION: only %d/%d sessions sustained (headline: >=1000)\n",
			load.SessionsSustained, sessions)
	}
	if !rep.TelemetryOverhead.Pass {
		fmt.Fprintf(os.Stderr, "kws-bench: REGRESSION: telemetry overhead %.1f%% (gate 10%%)\n",
			rep.TelemetryOverhead.OverheadFrac*100)
	}
	if !rep.Incremental.Pass {
		fmt.Fprintf(os.Stderr, "kws-bench: REGRESSION: incremental serving hit rate %.0f%% (gate 50%%), clean lost %d\n",
			rep.Incremental.HitRate*100, rep.Incremental.CleanSessionsLost)
	}

	writeReport(rep, out)
	fmt.Printf("kws-bench: serve %d sessions (%d faulty, peak %d concurrent), %d sustained, %d clean lost, hop p50 %.2fms p99 %.2fms, telemetry overhead %.1f%%, incremental hit rate %.0f%%, drain %dms -> %s\n",
		load.Sessions, load.FaultySessions, rep.PeakConcurrent, load.SessionsSustained,
		load.CleanSessionsLost, float64(rep.HopP50Ns)/1e6, float64(rep.HopP99Ns)/1e6,
		rep.TelemetryOverhead.OverheadFrac*100, rep.Incremental.HitRate*100, rep.DrainElapsedMs, out)
}

// overheadSessions sizes the detached/attached comparison runs: enough load
// to coalesce real lane batches, short enough to run twice per mode.
const overheadSessions = 200

// benchTelemetryOverhead measures what the full observability stack costs:
// an identical clean load is slammed through the serving core detached (no
// registry, no flight recorder, no tracing) and attached (all of it, plus
// engine telemetry), best of two runs each, and the throughput delta is the
// overhead.
func benchTelemetryOverhead(seed int64, density float64) overheadReport {
	best := func(attached bool) (sps float64, batches int64) {
		for i := 0; i < 2; i++ {
			s, b := overheadRun(seed+int64(i), density, attached)
			if s > sps {
				sps, batches = s, b
			}
		}
		return
	}
	detached, _ := best(false)
	attached, laneBatches := best(true)

	rep := overheadReport{
		Sessions:              overheadSessions,
		DetachedSamplesPerSec: detached,
		AttachedSamplesPerSec: attached,
		LaneBatches:           laneBatches,
	}
	if detached > 0 && attached < detached {
		rep.OverheadFrac = 1 - attached/detached
	}
	rep.Pass = rep.OverheadFrac <= 0.10
	return rep
}

// overheadRun drives one clean in-process load and reports its sustained
// sample throughput. Attached runs carry the registry, flight recorder, hop
// tracing, and engine telemetry; detached runs none of it.
func overheadRun(seed int64, density float64, attached bool) (samplesPerSec float64, laneBatches int64) {
	eng := deploy.SyntheticEngine(seed, density)
	lanes := runtime.NumCPU() / 2
	if lanes < 1 {
		lanes = 1
	}
	cfg := serve.Config{
		Engine:          eng,
		SampleRate:      4000,
		MaxSessions:     overheadSessions + 64,
		IdleTimeout:     60 * time.Second,
		ClassifyTimeout: 30 * time.Second,
		Lanes:           lanes,
		LaneBatch:       16,
	}
	var reg *telemetry.Registry
	if attached {
		reg = telemetry.NewRegistry()
		eng.EnableTelemetry(reg, nil)
		cfg.Registry = reg
		cfg.Flight = telemetry.NewFlightRecorder(1 << 13)
		cfg.Traces = telemetry.NewTraceStore(1 << 12)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kws-bench:", err)
		os.Exit(1)
	}
	load := serve.RunLoad(serve.DirectTarget{Srv: srv}, serve.LoadConfig{
		Sessions:    overheadSessions,
		Seconds:     1,
		ChunkMs:     250,
		Seed:        seed + 2,
		PushRetries: 400,
		RetryEvery:  5 * time.Millisecond,
		WaitClose:   60 * time.Second,
	})
	dctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	srv.Drain(dctx)
	cancel()
	if attached {
		laneBatches = reg.Histogram("serve.lane.batch_frames", nil).Snapshot(false).Count
	}
	return load.SamplesPerSec, laneBatches
}
