package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/deploy"
	"repro/internal/dsp"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

const (
	serveRate      = 4000
	serveSessions  = 128
	serveClips     = 16
	chunkSamples   = serveRate / 4 // 250 ms: every chunk after the first second completes one hop
	chunkPeriod    = int64(250 * time.Millisecond)
	serveSetupReps = 31
	setupPause     = 50 * time.Millisecond
	warmChunks     = 8 // each session's first 2 s are excluded from the metrics
	firstHopChunk  = 3 // the chunk that completes a session's first second
	drainTimeout   = 10 * time.Second
)

// serveDetector fires on every hop: the best class of any posterior clears
// a near-zero threshold, one-window smoothing and a 1 ms refractory period
// never hold an event back. Each hop's completion is then visible from
// outside the server as exactly one OnEvent call.
func serveDetector() stream.Config {
	c := stream.DefaultConfig(serveRate)
	c.Threshold = 1e-6
	c.RefractoryMs = 1
	c.SmoothWin = 1
	return c
}

// newServer builds a serve.Server in kws-serve's default shape: shared lanes
// (NumCPU/2 lanes × 16 frames), a registry, a 4096-event flight recorder and
// a hop-trace store (4096 traces unless the caller sizes its own).
func newServer(e *deploy.Engine, traces *telemetry.TraceStore) (*serve.Server, *telemetry.Registry, error) {
	if traces == nil {
		traces = telemetry.NewTraceStore(4096)
	}
	reg := telemetry.NewRegistry()
	srv, err := serve.New(serve.Config{
		Engine:     e,
		Detector:   serveDetector(),
		SampleRate: serveRate,
		LaneBatch:  16,
		Registry:   reg,
		Flight:     telemetry.NewFlightRecorder(4096),
		Traces:     traces,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("starting the server: %w", err)
	}
	return srv, reg, nil
}

// chunkOf is chunk k of session i. Sessions play the shared utterance pool
// at different rotations, so sessions i and i+serveClips hear the same audio.
func chunkOf(tp *tape, i, k int) []float64 {
	clip := tp.pool[(i+k/4)%len(tp.pool)]
	q := k % 4
	return clip[q*chunkSamples : (q+1)*chunkSamples]
}

// sessRec is the harness's record of one session. OnEvent runs on the
// session's pump goroutine and writes only this session's slots; got
// publishes them to the harness.
type sessRec struct {
	sess *serve.Session
	got  atomic.Int64
	bad  atomic.Int64 // events at no hop boundary, or a second event for one hop
	evAt []int64      // OnEvent time per hop (harness clock), 0 until delivered
	evs  []stream.Event
}

func (s *sessRec) onEvent(ev stream.Event) {
	t := nowNs()
	j := ev.Sample/chunkSamples - (firstHopChunk + 1)
	if ev.Sample%chunkSamples == 0 && j >= 0 && j < len(s.evAt) && s.evAt[j] == 0 {
		s.evAt[j] = t
		s.evs[j] = ev
	} else {
		s.bad.Add(1)
	}
	s.got.Add(1)
}

// coldServeSetup decodes and validates the engine, starts the server, opens
// every session and streams the first second of session 0 until its first
// hop's event arrives. Open times are appended to opens.
func coldServeSetup(art []byte, tp *tape, opens *[]int64) (int64, error) {
	t0 := nowNs()
	e, err := decodeEngine(art)
	if err != nil {
		return 0, err
	}
	srv, _, err := newServer(e, nil)
	if err != nil {
		return 0, err
	}
	got := make(chan struct{}, 1)
	sessions := make([]*serve.Session, serveSessions)
	for i := range sessions {
		var onEvent func(stream.Event)
		if i == 0 {
			onEvent = func(stream.Event) {
				select {
				case got <- struct{}{}:
				default:
				}
			}
		}
		o0 := nowNs()
		s, err := srv.Open(serve.OpenOptions{OnEvent: onEvent})
		*opens = append(*opens, nowNs()-o0)
		if err != nil {
			return 0, fmt.Errorf("set-up: opening session %d: %w", i, err)
		}
		sessions[i] = s
	}
	for k := 0; k <= firstHopChunk; k++ {
		if err := sessions[0].Push(chunkOf(tp, 0, k)); err != nil {
			return 0, fmt.Errorf("set-up: pushing the first second: %w", err)
		}
	}
	var setup int64
	select {
	case <-got:
		setup = nowNs() - t0
	case <-time.After(drainTimeout):
		err = errors.New("set-up: no event for the first hop")
	}
	for _, s := range sessions {
		s.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if ds := srv.Drain(ctx); ds.Forced+ds.Leaked > 0 {
		return 0, fmt.Errorf("set-up: drain forced %d and leaked %d sessions", ds.Forced, ds.Leaked)
	}
	return setup, err
}

// engineLoad times decode, validation and the first lane-path inference of
// one window on a fresh engine.
func engineLoad(art []byte, window []float32) (int64, error) {
	t0 := nowNs()
	e, err := decodeEngine(art)
	if err != nil {
		return 0, err
	}
	res := e.InferBatchCapped([][]float32{window}, 1)
	d := nowNs() - t0
	if res[0].Err != nil {
		return 0, fmt.Errorf("first inference: %w", res[0].Err)
	}
	return d, nil
}

// runServe streams serveSessions clean sessions into one in-process server,
// open loop at real time: one generator goroutine sends each session a
// 250 ms chunk every 250 ms, with session phases staggered across the chunk
// period, whether or not the server keeps up.
func runServe(o opts) (*result, error) {
	const S = serveSessions
	art, err := engineArtifact()
	if err != nil {
		return nil, err
	}
	tp := newTape(serveRate, serveClips, o.seed)

	// Cold set-ups cannot interleave with the open-loop run without
	// disturbing it, so they run first, paced apart to sample more than one
	// moment of host conditions.
	var setups, opens, loads []int64
	window := dsp.NewMFCC(dsp.DefaultMFCCConfig(serveRate)).Compute(tp.pool[0]).Data
	for r := 0; r < serveSetupReps; r++ {
		runtime.GC()
		time.Sleep(setupPause)
		s, err := coldServeSetup(art, tp, &opens)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		l, err := engineLoad(art, window)
		if err != nil {
			return nil, err
		}
		loads = append(loads, l)
	}

	// Everything the harness keeps is allocated before the heap baseline;
	// a traced run sizes the trace store to hold every hop.
	C := warmChunks + 4*o.seconds
	hops := C - firstHopChunk
	recs := make([]sessRec, S)
	for i := range recs {
		recs[i].evAt = make([]int64, hops)
		recs[i].evs = make([]stream.Event, hops)
	}
	late := make([]int64, C*S)
	pushDur := make([]int64, C*S)
	var traces *telemetry.TraceStore
	if o.trace {
		traces = telemetry.NewTraceStore(S*hops + 1024)
	}
	base := liveHeap()

	e, err := decodeEngine(art)
	if err != nil {
		return nil, err
	}
	srv, reg, err := newServer(e, traces)
	if err != nil {
		return nil, err
	}
	for i := range recs {
		s, err := srv.Open(serve.OpenOptions{ID: "s" + strconv.Itoa(i), OnEvent: recs[i].onEvent})
		if err != nil {
			return nil, fmt.Errorf("opening session %d: %w", i, err)
		}
		recs[i].sess = s
	}

	start := nowNs() + int64(100*time.Millisecond)
	due := func(i, k int) int64 { return start + int64(i)*chunkPeriod/S + int64(k+1)*chunkPeriod }
	delivered := func() int64 {
		var n int64
		for i := range recs {
			n += recs[i].got.Load()
		}
		return n
	}
	var refused, bpRejects, outstandingMax int64
	var cpu0 int64
	var ms0, ms1 runtime.MemStats
	for k := 0; k < C; k++ {
		if k == warmChunks {
			cpu0 = cpuNs()
			runtime.ReadMemStats(&ms0)
		}
		for i := range recs {
			d := due(i, k)
			if w := d - nowNs(); w > 0 {
				time.Sleep(time.Duration(w))
			}
			t0 := nowNs()
			err := recs[i].sess.PushAt(chunkOf(tp, i, k), epoch.Add(time.Duration(d)))
			late[k*S+i] = t0 - d
			if o.trace && i%2 == 0 {
				pushDur[k*S+i] = nowNs() - t0
			}
			if err != nil {
				refused++
				var bp *serve.BackpressureError
				if errors.As(err, &bp) {
					bpRejects++
				}
			}
		}
		// Backlog: hops pushed but not yet answered, sampled after each
		// round over the run's second half.
		if k >= C/2 {
			if n := int64(S*(k-firstHopChunk+1)) - delivered(); n > outstandingMax {
				outstandingMax = n
			}
		}
	}
	want := int64(S * hops)
	for deadline := nowNs() + int64(drainTimeout); delivered() < want && nowNs() < deadline; {
		time.Sleep(time.Millisecond)
	}
	cpu := cpuNs() - cpu0
	runtime.ReadMemStats(&ms1)
	heap := liveHeap() - base
	flightEvents := srv.Flight().Total()
	batch := reg.Histogram("serve.lane.batch_frames", nil)
	var badPosteriors int64
	for i := range recs {
		badPosteriors += recs[i].sess.Stats().Detector.BadPosteriors
	}

	r := &result{Correct: true, Attempted: want}
	r.check(delivered() == want, "%d events delivered before drain, want %d", delivered(), want)
	r.check(outstandingMax <= S, "backlog grew: %d hops outstanding in the second half", outstandingMax)
	r.check(refused == 0, "%d chunks refused", refused)
	r.check(badPosteriors == 0, "%d bad posteriors", badPosteriors)

	for i := range recs {
		recs[i].sess.Close()
	}
	for i := range recs {
		select {
		case <-recs[i].sess.Done():
		case <-time.After(drainTimeout):
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	ds := srv.Drain(ctx)
	cancel()
	r.check(ds.Forced+ds.Leaked == 0, "drain forced %d and leaked %d sessions", ds.Forced, ds.Leaked)
	r.Failed = checkSessions(r, e, tp, recs, hops)

	// Metrics over the timed window: chunk rounds warmChunks..C-1.
	var lat, lateW, latEven, latOdd, pushEven []int64
	for i := range recs {
		for k := warmChunks; k < C; k++ {
			lateW = append(lateW, late[k*S+i])
			at := recs[i].evAt[k-firstHopChunk]
			if at == 0 {
				continue
			}
			l := at - due(i, k)
			lat = append(lat, l)
			if i%2 == 0 {
				latEven = append(latEven, l)
				pushEven = append(pushEven, pushDur[k*S+i])
			} else {
				latOdd = append(latOdd, l)
			}
		}
	}
	windowHops := int64((C - warmChunks) * S)
	if !o.trace {
		// Unlike the stream-* workloads, hop time and CPU are whole-window
		// figures here (see NOTES.md); set-up is the fastest cold set-up.
		r.set("hop_ms_p50", median(lat)/1e6, "ms")
		r.set("cpu_ms_per_audio_s", float64(cpu)/1e6/(float64(windowHops)*float64(chunkPeriod)/1e9), "ms")
		r.set("heap_mb", float64(heap)/1e6, "MB")
		r.set("setup_s", quantile(setups, 0)/1e9, "s")
		fmt.Fprintf(os.Stderr, "%d hops: median %.4g ms; %d set-ups: fastest %.4g ms, median %.4g ms\n",
			len(lat), median(lat)/1e6, len(setups), quantile(setups, 0)/1e6, median(setups)/1e6)
		return r, nil
	}

	replay := newDSPReplay(tp, false, chunkSamples, 256)
	replay.block(256)
	r.set("dsp.frames_per_hop", float64(replay.frames)/float64(replay.nHops), "count")
	r.set("dsp.us_per_frame", median(replay.dur)/(float64(replay.frames)/float64(replay.nHops))/1e3, "us")
	r.set("dsp.allocs_per_hop", float64(replay.mallocs)/float64(replay.nHops), "count")
	r.set("deploy.load_ms", median(loads)/1e6, "ms")
	if batch.Count() > 0 {
		r.set("deploy.lane_batch_mean", float64(batch.Sum())/float64(batch.Count()), "count")
	}
	r.set("serve.open_us_p50", median(opens)/1e3, "us")
	r.set("serve.push_us_p50", median(pushEven)/1e3, "us")
	r.set("serve.backpressure_rejects", float64(bpRejects), "count")
	r.set("serve.outstanding_max", float64(outstandingMax), "count")
	r.set("serve.heap_kb_per_session", float64(heap)/1e3/S, "KB")
	r.set("serve.alloc_kb_per_hop", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e3/float64(windowHops), "KB")
	r.set("serve.hop_ms_p99", quantile(lat, 0.99)/1e6, "ms")
	r.set("serve.gen_late_ms_p99", quantile(lateW, 0.99)/1e6, "ms")
	r.set("telemetry.flight_events", float64(flightEvents), "count")
	r.set("trace.overhead_pct", pct(median(latEven), median(latOdd)), "%")

	spans, stages, err := harvestTraces(traces, recs, due, C)
	if err != nil {
		return nil, err
	}
	r.set("serve.queue_ms_p50", stages[stQueue]/1e6, "ms")
	r.set("serve.detect_ms_p50", stages[stDetect]/1e6, "ms")
	r.set("serve.lane_wait_ms_p50", stages[stLaneWait]/1e6, "ms")
	r.set("deploy.lane_infer_ms_p50", stages[stInfer]/1e6, "ms")
	r.set("serve.reply_ms_p50", stages[stReply]/1e6, "ms")
	var ledger float64
	for _, v := range stages {
		ledger += v
	}
	untraced := median(latOdd)
	closure := pct(ledger, untraced)
	r.set("ledger.closure_pct", closure, "%")
	fmt.Fprintf(os.Stderr, "serve-lanes ledger (median µs per hop):")
	for s, v := range stages {
		fmt.Fprintf(os.Stderr, " %s %.1f", stageNames[s], v/1e3)
	}
	fmt.Fprintf(os.Stderr, " = %.1f vs untraced hop %.1f (%+.1f%%, tolerance ±%d%%)\n",
		ledger/1e3, untraced/1e3, closure, ledgerTolerancePct)
	r.check(closure >= -ledgerTolerancePct && closure <= ledgerTolerancePct,
		"ledger closes at %+.1f%%, outside ±%d%%", closure, ledgerTolerancePct)
	for i := 0; i < len(recs); i += 2 {
		for k := warmChunks; k < C; k++ {
			spans = append(spans, span{Name: "serve.push", Parent: "serve.hop",
				Hop: int64(i*C + k), Start: due(i, k) + late[k*S+i], Dur: pushDur[k*S+i]})
		}
	}
	if err := writeSpans("serve-lanes", o.seed, spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return r, nil
}

// Ledger stages of a serve-lanes hop, from the chunk's due time to its
// OnEvent call; their durations sum to the hop's latency exactly.
const (
	stQueue    = iota // ingress (= due) → pump dequeue: generator lateness, Push, queue wait
	stDetect          // dequeue → classify: sanitise, ring, full-window MFCC
	stSubmit          // classify → lane submit
	stLaneWait        // lane submit → lane collect
	stInfer           // lane collect → batched inference done
	stReply           // inference done → reply received on the pump
	stDeliver         // reply → OnEvent: posteriors, smoothing, event delivery
	numStages
)

var stageNames = [numStages]string{
	"serve.queue", "serve.detect", "serve.lane_submit", "serve.lane_wait",
	"deploy.lane_infer", "serve.reply", "serve.deliver",
}

// harvestTraces reads every committed hop trace back from the store by ID,
// matches it to the harness's hop by session and ingress stamp, and returns
// one span per ledger stage of each timed hop plus each stage's median.
func harvestTraces(ts *telemetry.TraceStore, recs []sessRec, due func(i, k int) int64, C int) ([]span, [numStages]float64, error) {
	var med [numStages]float64
	off := ts.At(epoch) // the harness clock's zero in the store's timebase
	hops := C - firstHopChunk
	var samples [numStages][]int64
	var spans []span
	for id := uint64(1); id <= uint64(len(recs)*hops)+64; id++ {
		tr, ok := ts.Get(id)
		if !ok {
			continue
		}
		i, err := strconv.Atoi(tr.Session[1:])
		if err != nil || i < 0 || i >= len(recs) {
			return nil, med, fmt.Errorf("trace %d names unknown session %q", id, tr.Session)
		}
		ingress := tr.Stamp[telemetry.HopIngress] - off
		k := int((ingress - due(i, 0)) / chunkPeriod)
		if k < 0 || k >= C || due(i, k) != ingress {
			return nil, med, fmt.Errorf("trace %d: ingress stamp matches no chunk of session %d", id, i)
		}
		at := recs[i].evAt[k-firstHopChunk]
		if k < warmChunks || at == 0 {
			continue
		}
		edges := [numStages + 1]int64{
			tr.Stamp[telemetry.HopIngress], tr.Stamp[telemetry.HopDequeue],
			tr.Stamp[telemetry.HopClassify], tr.Stamp[telemetry.HopLaneSubmit],
			tr.Stamp[telemetry.HopLaneCollect], tr.Stamp[telemetry.HopInferDone],
			tr.Stamp[telemetry.HopReply], at + off,
		}
		hop := int64(i*C + k)
		spans = append(spans, span{Name: "serve.hop", Hop: hop, Start: ingress, Dur: at - ingress})
		for s := 0; s < numStages; s++ {
			d := edges[s+1] - edges[s]
			samples[s] = append(samples[s], d)
			spans = append(spans, span{Name: stageNames[s], Parent: "serve.hop", Hop: hop, Start: edges[s] - off, Dur: d})
		}
	}
	if len(samples[0]) == 0 {
		return nil, med, errors.New("no hop trace of the timed window was found")
	}
	for s := range samples {
		med[s] = median(samples[s])
	}
	return spans, med, nil
}

// checkSessions compares every session's events with a standalone
// stream.Detector fed the same audio under the same config, and returns the
// number of hops that failed: no event, an event that differs, or any hop
// of a session that closed for a reason other than client-close.
func checkSessions(r *result, e *deploy.Engine, tp *tape, recs []sessRec, hops int) int64 {
	var failed int64
	for g := 0; g < len(tp.pool) && g < len(recs); g++ {
		want := make([]stream.Event, 0, hops)
		det := stream.NewDetector(serveDetector(), stream.NewEngineClassifier(e), 0, 1)
		for k := 0; k < hops+firstHopChunk; k++ {
			want = append(want, det.Push(chunkOf(tp, g, k))...)
		}
		if len(want) != hops {
			r.check(false, "standalone detector fired %d events over %d hops", len(want), hops)
			return int64(len(recs) * hops)
		}
		for i := g; i < len(recs); i += len(tp.pool) {
			rec := &recs[i]
			if reason := rec.sess.Reason(); reason != serve.ReasonClientClose {
				r.check(false, "session %d closed with %q", i, reason)
				failed += int64(hops)
				continue
			}
			if n := rec.bad.Load(); n > 0 {
				r.check(false, "session %d: %d events at no expected hop", i, n)
			}
			for j := 0; j < hops; j++ {
				if rec.evAt[j] == 0 || rec.evs[j] != want[j] {
					failed++
				}
			}
		}
	}
	r.check(failed == 0, "%d hops without the standalone detector's event", failed)
	return failed
}
