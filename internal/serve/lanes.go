package serve

import (
	"sync"
	"time"

	"repro/internal/deploy"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// inferReq is one frame waiting for a shared lane. reply has capacity 1 and
// is written exactly once, so a requester that gave up (lane timeout) never
// blocks the lane — its late reply just gets collected. x is the frame and
// dst the requester-owned score buffer the lane copies results into; a
// requester that times out must abandon both (see laneClassifier), because
// the lane may still be about to read the one and write the other.
//
// tr is the chunk's hop trace, carried across the goroutine boundary a
// Tracer span cannot cross: the channel send hands write ownership of the
// stamp array to the lane, the reply hands it back. Like dst, a timed-out
// requester must orphan tr — the lane may stamp it late.
type inferReq struct {
	x     []float32
	dst   []int32
	tr    *telemetry.HopTrace
	reply chan laneResp
}

type laneResp struct {
	scores []int32
	err    error
}

// lanes multiplexes every session's hops onto a few collector goroutines,
// each coalescing concurrently pending frames into one
// Engine.InferBatchInto call, which runs on the lane's own goroutine over
// an arena from the engine's pool. This keeps goroutine fan-out onto the
// engine bounded regardless of session count: N sessions share `count`
// lanes, and the lanes are the only parallelism the engine sees.
type lanes struct {
	eng   *deploy.Engine
	ch    chan inferReq
	quit  chan struct{}
	batch int
	obs   *obsSet
	trs   *telemetry.TraceStore // hop-trace clock for lane-side stamps

	wg       sync.WaitGroup
	stopOnce sync.Once
}

// newLanes starts count lanes of up to batch frames each, fed by one
// request queue four full batches per lane deep, so a burst of hops queues
// behind busy lanes instead of waiting out the submit timeout.
func newLanes(eng *deploy.Engine, count, batch int, obs *obsSet) *lanes {
	l := &lanes{
		eng:   eng,
		ch:    make(chan inferReq, count*batch*4),
		quit:  make(chan struct{}),
		batch: batch,
		obs:   obs,
	}
	l.wg.Add(count)
	for i := 0; i < count; i++ {
		go l.run()
	}
	return l
}

// run is one lane: block for a frame, opportunistically coalesce whatever
// else is already queued (up to the batch cap), infer, reply. The lane owns
// a result slice reused across calls (Engine.InferBatchInto), so the
// engine's batch path runs without per-call allocation; each requester's
// scores are copied into its own dst buffer before the reply, because the
// shared result slots are overwritten by the next batch.
func (l *lanes) run() {
	defer l.wg.Done()
	reqs := make([]inferReq, 0, l.batch)
	xs := make([][]float32, 0, l.batch)
	var res []deploy.BatchResult
	for {
		reqs, xs = reqs[:0], xs[:0]
		select {
		case <-l.quit:
			return
		case r := <-l.ch:
			reqs = append(reqs, r)
			xs = append(xs, r.x)
		}
	fill:
		for len(reqs) < l.batch {
			select {
			case r := <-l.ch:
				reqs = append(reqs, r)
				xs = append(xs, r.x)
			default:
				break fill
			}
		}
		l.obs.laneDepth.Set(int64(len(l.ch)))
		l.obs.laneBatch.Observe(int64(len(reqs)))
		if l.trs != nil {
			now := l.trs.Now()
			for _, r := range reqs {
				if r.tr != nil {
					r.tr.Stamp[telemetry.HopLaneCollect] = now
				}
			}
		}

		res = l.eng.InferBatchInto(res, xs)
		var inferDone int64
		if l.trs != nil {
			inferDone = l.trs.Now()
		}
		for i, r := range reqs {
			if r.tr != nil {
				r.tr.Stamp[telemetry.HopInferDone] = inferDone
			}
			r.reply <- laneResp{scores: append(r.dst[:0], res[i].Scores...), err: res[i].Err}
		}
	}
}

// stop shuts the lanes down once every pump has exited. The request channel
// is never closed — a straggling sender on a closed channel would panic —
// the collectors just stop draining it.
func (l *lanes) stop() {
	l.stopOnce.Do(func() { close(l.quit) })
	l.wg.Wait()
}

// infer submits one frame and waits for its scores, which are copied into
// dst (grown as needed; the filled slice is returned). The timeout bounds
// the submit and the reply wait separately (worst case 2×timeout end to
// end). ErrLaneTimeout means the lanes are saturated (or stopped); the
// caller treats it as one discarded hop, not a session failure — but after
// a timeout the caller must stop using dst, since the lane may write it
// late.
func (l *lanes) infer(x []float32, dst []int32, tr *telemetry.HopTrace, timeout time.Duration) ([]int32, error) {
	req := inferReq{x: x, dst: dst, tr: tr, reply: make(chan laneResp, 1)}
	if tr != nil {
		tr.Stamp[telemetry.HopLaneSubmit] = l.trs.Now()
	}

	select {
	case l.ch <- req: // fast path: queue has room right now
	default:
		t := time.NewTimer(timeout)
		select {
		case l.ch <- req:
			t.Stop()
		case <-t.C:
			return nil, ErrLaneTimeout
		}
	}

	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case resp := <-req.reply:
		if tr != nil {
			tr.Stamp[telemetry.HopReply] = l.trs.Now()
		}
		return resp.scores, resp.err
	case <-t.C:
		return nil, ErrLaneTimeout
	}
}

// laneClassifier adapts the shared lanes to stream.Classifier for one
// session. It is only called from that session's pump goroutine, so the
// probs/scores scratch needs no locking. A lane error returns nil
// probabilities — the detector counts the hop as a bad posterior and its
// breaker logic takes it from there.
//
// It also owns the session's hop-trace lifecycle: one HopTrace per detector
// hop, anchored at the chunk's socket ingress, stamped through the lane
// (see inferReq.tr), committed on hop completion, with the end-to-end
// latency observed into serve.hop.e2e.ns carrying the trace ID as an
// exemplar — so the slowest histogram buckets link to concrete traces.
type laneClassifier struct {
	lanes   *lanes
	srv     *Server
	sessID  string
	wScale  float64
	classes int
	timeout time.Duration
	obs     *obsSet
	probs   []float32
	window  []float32 // session-owned copy of the frame a lane reads; abandoned on timeout
	scores  []int32   // session-owned lane result buffer; abandoned on timeout

	hop       *telemetry.HopTrace // reused across hops; orphaned on lane timeout
	hopOpen   bool
	ingressNs int64 // current chunk's stamps, in the trace store's timebase
	dequeueNs int64
}

func (c *laneClassifier) Classify(features []float32) []float32 {
	c.beginHop()
	// The detector overwrites features on its next hop, and a lane may
	// still be reading a timed-out request's frame then, so the lane reads
	// a session-owned copy.
	c.window = append(c.window[:0], features...)
	t0 := time.Now()
	scores, err := c.lanes.infer(c.window, c.scores, c.hopTrace(), c.timeout)
	c.obs.laneWait.ObserveSince(t0)
	if err != nil {
		if err == ErrLaneTimeout {
			// The lane may still hold our buffers, read the frame late and
			// write the scores late; orphan both so the stale accesses
			// touch memory no future hop uses. The hop trace travelled
			// with the request, so it is orphaned the same way — never
			// committed, reallocated next hop.
			c.window, c.scores = nil, nil
			c.abandonHop()
			c.obs.laneStalls.Inc()
			c.srv.flight.Record(telemetry.FlightLaneStall, c.sessID, 0,
				c.timeout.Nanoseconds(), 0, "lane-timeout")
		}
		return nil
	}
	c.scores = scores
	c.probs = stream.ScoresToProbs(scores, c.wScale, c.probs)
	return c.probs
}

func (c *laneClassifier) NumClasses() int { return c.classes }

// tracing reports whether hop tracing is active for this session.
func (c *laneClassifier) tracing() bool {
	return c != nil && c.srv != nil && c.srv.traces != nil
}

// hopTrace returns the open hop's trace, or nil when tracing is off.
func (c *laneClassifier) hopTrace() *telemetry.HopTrace {
	if !c.hopOpen {
		return nil
	}
	return c.hop
}

// beginChunk anchors the chunk's hop traces: ingress is when the audio was
// read off the socket, dequeue is now (the pump picked it up). Called from
// Session.process; nil-safe for sessions with a custom classifier.
func (c *laneClassifier) beginChunk(ingress time.Time) {
	if !c.tracing() {
		return
	}
	c.closeHop()
	ts := c.srv.traces
	if ingress.IsZero() {
		c.ingressNs = ts.Now()
	} else {
		c.ingressNs = ts.At(ingress)
	}
	c.dequeueNs = ts.Now()
}

// beginHop opens a fresh trace for one detector hop, closing the previous
// hop of the same chunk if one is still open.
func (c *laneClassifier) beginHop() {
	if !c.tracing() {
		return
	}
	c.closeHop()
	if c.hop == nil { // first hop, or the previous trace was orphaned
		c.hop = new(telemetry.HopTrace)
	}
	ts := c.srv.traces
	ts.Begin(c.hop, c.sessID)
	c.hop.Stamp[telemetry.HopIngress] = c.ingressNs
	c.hop.Stamp[telemetry.HopDequeue] = c.dequeueNs
	c.hop.Stamp[telemetry.HopClassify] = ts.Now()
	c.hopOpen = true
}

// closeHop commits the open hop (if any) and feeds its end-to-end latency —
// last stamp minus socket ingress — into the e2e histogram with the trace
// ID as exemplar.
func (c *laneClassifier) closeHop() {
	if !c.hopOpen {
		return
	}
	c.hopOpen = false
	tr := c.hop
	ts := c.srv.traces
	if tr.Stamp[telemetry.HopDone] == 0 {
		tr.Stamp[telemetry.HopDone] = ts.Now()
	}
	ts.Commit(tr)
	var last int64
	for _, v := range tr.Stamp {
		if v > last {
			last = v
		}
	}
	c.obs.hopE2E.ObserveTrace(last-tr.Stamp[telemetry.HopIngress], tr.ID)
}

// abandonHop orphans the current trace after a lane timeout: the lane may
// stamp it late, so it is never committed and never reused.
func (c *laneClassifier) abandonHop() {
	c.hopOpen = false
	c.hop = nil
}

// finishChunk closes the chunk's last hop, stamping event emission first if
// the chunk produced delivered events. Called from Session.process;
// nil-safe for sessions with a custom classifier.
func (c *laneClassifier) finishChunk(emitted bool) {
	if c == nil || !c.hopOpen {
		return
	}
	ts := c.srv.traces
	if emitted {
		c.hop.Stamp[telemetry.HopEventEmit] = ts.Now()
	}
	c.hop.Stamp[telemetry.HopDone] = ts.Now()
	c.closeHop()
}
