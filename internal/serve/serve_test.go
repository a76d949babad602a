package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/faultinject"
	"repro/internal/speechcmd"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// faultConfigForTest is an aggressive but fast fault schedule: every fault
// kind enabled, stalls kept short so tests stay quick.
func faultConfigForTest() faultinject.StreamConfig {
	return faultinject.StreamConfig{
		PNaNBurst: 0.2, PClip: 0.1, PTruncate: 0.1, PDropChunk: 0.1,
		PSwap: 0.1, PStall: 0.1, PAbort: 0.03,
		StallMin: time.Millisecond, StallMax: 5 * time.Millisecond,
	}
}

// testConfig returns a serving config sized for fast tests: a paper-shape
// synthetic engine, short timeouts, a hair-trigger breaker.
func testConfig(t testing.TB) Config {
	t.Helper()
	return Config{
		Engine:          deploy.SyntheticEngine(1, 0.35),
		SampleRate:      4000,
		IdleTimeout:     400 * time.Millisecond,
		ClassifyTimeout: 5 * time.Second,
		RetryAfter:      10 * time.Millisecond,
		Lanes:           2,
		Breaker: BreakerConfig{
			TripThreshold: 3,
			Decay:         1,
			Cooldown:      50 * time.Millisecond,
			MaxTrips:      2,
		},
		Registry: telemetry.NewRegistry(),
	}
}

func mustServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	return srv
}

// synthSeconds renders n seconds of keyword audio, deterministic per seed.
func synthSeconds(seed int64, seconds float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	cfg := speechcmd.DefaultConfig()
	total := int(seconds * float64(cfg.SampleRate))
	var wave []float64
	for len(wave) < total {
		w := speechcmd.TargetWords[rng.Intn(len(speechcmd.TargetWords))]
		wave = append(wave, speechcmd.SynthesizeUtterance(w, cfg, rng)...)
	}
	return wave[:total]
}

// pushAll feeds wave in hop-sized chunks with a bounded backpressure retry
// loop and reports whether every sample was accepted.
func pushAll(sess *Session, wave []float64, chunkSize int) bool {
	for off := 0; off < len(wave); off += chunkSize {
		end := off + chunkSize
		if end > len(wave) {
			end = len(wave)
		}
		c := append([]float64(nil), wave[off:end]...)
		ok := false
		for attempt := 0; attempt < 500; attempt++ {
			err := sess.Push(c)
			if err == nil {
				ok = true
				break
			}
			var bp *BackpressureError
			if !errors.As(err, &bp) {
				return false
			}
			time.Sleep(time.Millisecond)
		}
		if !ok {
			return false
		}
	}
	return true
}

// panicClassifier blows up on every hop — the hostile tenant.
type panicClassifier struct{ classes int }

func (p panicClassifier) Classify([]float32) []float32 { panic("hostile classifier") }
func (p panicClassifier) NumClasses() int              { return p.classes }

// confidentClassifier always bets everything on class 0, so detection
// events fire deterministically.
type confidentClassifier struct{ classes int }

func (c confidentClassifier) Classify([]float32) []float32 {
	probs := make([]float32, c.classes)
	probs[0] = 1
	return probs
}
func (c confidentClassifier) NumClasses() int { return c.classes }

// blockingClassifier parks every hop on a channel until released.
type blockingClassifier struct {
	classes int
	release chan struct{}
}

func (b *blockingClassifier) Classify([]float32) []float32 {
	<-b.release
	return make([]float32, b.classes)
}
func (b *blockingClassifier) NumClasses() int { return b.classes }

// TestSessionFaultIsolation is the PR's headline guarantee, run under -race
// by ci.sh: one session's faults — a classifier that panics every hop, a
// client that stalls mid-stream, audio that is pure NaN — must not fail,
// stall, or corrupt any clean session sharing the same engine and lanes.
func TestSessionFaultIsolation(t *testing.T) {
	cfg := testConfig(t)
	srv := mustServer(t, cfg)
	classes := int(cfg.Engine.Tree.NumClasses)
	const chunkSize = 1000 // one detector hop at 4 kHz

	var wg sync.WaitGroup

	// Hostile tenant 1: panics on every hop. The breaker must trip it into
	// quarantine and, at MaxTrips, close it with ReasonQuarantine.
	hostile, err := srv.Open(OpenOptions{
		ID:         "hostile",
		Classifier: panicClassifier{classes},
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		wave := synthSeconds(7, 12)
		for off := 0; off+chunkSize <= len(wave); off += chunkSize {
			if hostile.Reason() != "" {
				return
			}
			err := hostile.Push(append([]float64(nil), wave[off:off+chunkSize]...))
			if err == ErrSessionClosed {
				return
			}
			time.Sleep(5 * time.Millisecond) // let quarantine cooldowns elapse
		}
	}()

	// Hostile tenant 2: stalls after one chunk. The idle reaper must take
	// its slot back.
	staller, err := srv.Open(OpenOptions{ID: "staller"})
	if err != nil {
		t.Fatal(err)
	}
	if err := staller.Push(synthSeconds(8, 0.25)); err != nil {
		t.Fatal(err)
	}

	// Hostile tenant 3: its event callback panics. The pump must recover,
	// count the panic, and still run the session to a clean close — a
	// broken subscriber is not a broken session.
	cbBomb, err := srv.Open(OpenOptions{
		ID:         "callback-bomb",
		Classifier: confidentClassifier{classes},
		OnEvent:    func(stream.Event) { panic("hostile event subscriber") },
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if !pushAll(cbBomb, synthSeconds(12, 2), chunkSize) {
			t.Error("callback-bomb session lost its slot")
			return
		}
		cbBomb.Close()
	}()

	// Hostile tenant 4: nothing but NaN audio, through the real lanes. The
	// detector sanitises it; the session must close cleanly.
	nanSess, err := srv.Open(OpenOptions{ID: "nan"})
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		bad := make([]float64, chunkSize)
		for i := range bad {
			bad[i] = math.NaN()
		}
		for k := 0; k < 8; k++ {
			if !pushAll(nanSess, bad, chunkSize) {
				t.Error("nan session lost its slot")
				return
			}
		}
		nanSess.Close()
	}()

	// Clean tenants: real audio through the real lanes, all sharing the
	// engine with the hostiles above.
	const nClean = 4
	clean := make([]*Session, nClean)
	for i := 0; i < nClean; i++ {
		s, err := srv.Open(OpenOptions{ID: fmt.Sprintf("clean-%d", i), Priority: 1})
		if err != nil {
			t.Fatal(err)
		}
		clean[i] = s
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			if !pushAll(s, synthSeconds(int64(100+i), 2), chunkSize) {
				t.Errorf("clean-%d could not push all audio", i)
			}
			s.Close()
		}(i, s)
	}

	wg.Wait()

	waitReason := func(s *Session, want CloseReason) {
		t.Helper()
		select {
		case <-s.Done():
		case <-time.After(15 * time.Second):
			t.Fatalf("session %s never closed (want %s)", s.ID(), want)
		}
		if got := s.Reason(); got != want {
			t.Fatalf("session %s closed %q, want %q", s.ID(), got, want)
		}
	}

	waitReason(hostile, ReasonQuarantine)
	if st := hostile.Stats(); st.BreakerTrips != int64(cfg.Breaker.MaxTrips) {
		t.Fatalf("hostile breaker trips = %d, want %d", st.BreakerTrips, cfg.Breaker.MaxTrips)
	}
	waitReason(staller, ReasonIdle)
	waitReason(nanSess, ReasonClientClose)
	waitReason(cbBomb, ReasonClientClose)
	if st := cbBomb.Stats(); st.Panics == 0 || st.Events == 0 {
		t.Fatalf("callback-bomb: expected recovered panics and counted events, got %+v", st)
	}

	for i, s := range clean {
		waitReason(s, ReasonClientClose)
		st := s.Stats()
		if st.Chunks != 8 {
			t.Fatalf("clean-%d processed %d chunks, want 8", i, st.Chunks)
		}
		if st.Detector.BadPosteriors != 0 || st.Panics != 0 {
			t.Fatalf("clean-%d absorbed faults that are not its own: %+v", i, st)
		}
	}

	// The server itself is unharmed: fresh sessions still work end to end.
	after, err := srv.Open(OpenOptions{ID: "after"})
	if err != nil {
		t.Fatalf("server rejects sessions after hostile tenants: %v", err)
	}
	if !pushAll(after, synthSeconds(9, 1.25), chunkSize) {
		t.Fatal("post-fault session could not push")
	}
	after.Close()
	waitReason(after, ReasonClientClose)

	if srv.obs.panics.Value() == 0 || srv.obs.trips.Value() == 0 {
		t.Fatal("absorbed faults were not counted in telemetry")
	}
}

// TestAdmissionControl: the session cap and the drain gate both reject with
// a retry hint instead of queueing or blocking.
func TestAdmissionControl(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxSessions = 2
	srv := mustServer(t, cfg)

	a, err := srv.Open(OpenOptions{ID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Open(OpenOptions{ID: "b"}); err != nil {
		t.Fatal(err)
	}

	_, err = srv.Open(OpenOptions{ID: "c"})
	var rej *RejectedError
	if !errors.As(err, &rej) || rej.RetryAfter <= 0 {
		t.Fatalf("over-cap open: got %v, want RejectedError with retry hint", err)
	}
	if _, err := srv.Open(OpenOptions{ID: "a"}); err == nil {
		t.Fatal("duplicate id admitted")
	}

	// Free a slot; admission recovers.
	a.Close()
	<-a.Done()
	if _, err := srv.Open(OpenOptions{ID: "c"}); err != nil {
		t.Fatalf("open after a slot freed: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Drain(ctx)
	if _, err := srv.Open(OpenOptions{ID: "late"}); !errors.As(err, &rej) {
		t.Fatalf("open while drained: got %v, want RejectedError", err)
	}
	if srv.Health() == nil {
		t.Fatal("draining server reports healthy")
	}
}

// TestBackpressure: a slow session fills its bounded queue; Push returns
// BackpressureError immediately instead of blocking, and the drops are
// counted.
func TestBackpressure(t *testing.T) {
	cfg := testConfig(t)
	cfg.ChunkQueue = 1
	srv := mustServer(t, cfg)

	bc := &blockingClassifier{classes: int(cfg.Engine.Tree.NumClasses), release: make(chan struct{})}
	sess, err := srv.Open(OpenOptions{ID: "slow", Classifier: bc})
	if err != nil {
		t.Fatal(err)
	}

	// First hop parks the pump in the classifier; the queue then fills.
	chunk := synthSeconds(3, 1.25) // window + one hop: guarantees a classify
	if err := sess.Push(chunk); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	sawBackpressure := false
	for time.Now().Before(deadline) {
		err := sess.Push(make([]float64, 100))
		var bp *BackpressureError
		if errors.As(err, &bp) {
			if bp.RetryAfter <= 0 {
				t.Fatal("backpressure without a retry hint")
			}
			sawBackpressure = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sawBackpressure {
		t.Fatal("bounded queue never pushed back")
	}
	if sess.Stats().BackpressureDrops == 0 {
		t.Fatal("backpressure not counted")
	}

	close(bc.release) // unpark; cleanup's Drain finishes the session
}

// TestGracefulDrain: chunks accepted before the drain are still processed,
// every session closes with ReasonDrain, and new opens are rejected.
func TestGracefulDrain(t *testing.T) {
	cfg := testConfig(t)
	srv := mustServer(t, cfg)

	var sessions []*Session
	for i := 0; i < 3; i++ {
		s, err := srv.Open(OpenOptions{ID: fmt.Sprintf("d%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		// A full window plus one hop, already queued when the drain starts.
		if err := s.Push(synthSeconds(int64(i), 1.25)); err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st := srv.Drain(ctx)
	if st.Sessions != 3 || st.Graceful != 3 || st.Forced != 0 || st.Leaked != 0 {
		t.Fatalf("drain stats %+v, want 3 graceful", st)
	}
	for _, s := range sessions {
		if r := s.Reason(); r != ReasonDrain {
			t.Fatalf("session %s closed %q, want %q", s.ID(), r, ReasonDrain)
		}
		if s.Stats().Chunks != 1 {
			t.Fatalf("session %s: queued chunk was not processed before close", s.ID())
		}
	}
	if srv.SessionCount() != 0 {
		t.Fatal("sessions survived the drain")
	}
}

// TestDrainForced: a session wedged inside a hostile classifier cannot hold
// the drain past its deadline; it is counted as forced, not waited on
// forever.
func TestDrainForced(t *testing.T) {
	cfg := testConfig(t)
	srv := mustServer(t, cfg)

	bc := &blockingClassifier{classes: int(cfg.Engine.Tree.NumClasses), release: make(chan struct{})}
	sess, err := srv.Open(OpenOptions{ID: "wedged", Classifier: bc})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Push(synthSeconds(5, 1.25)); err != nil {
		t.Fatal(err)
	}
	// Unpark the classifier shortly after the drain deadline fires.
	go func() {
		time.Sleep(300 * time.Millisecond)
		close(bc.release)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	st := srv.Drain(ctx)
	if st.Forced != 1 || st.Leaked != 0 {
		t.Fatalf("drain stats %+v, want 1 forced, 0 leaked", st)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("forced drain took unreasonably long")
	}
	if r := sess.Reason(); r != ReasonForced && r != ReasonDrain {
		t.Fatalf("wedged session closed %q", r)
	}
}

// TestLoadShedding: under memory pressure the maintenance loop evicts the
// lowest-priority, least-recently-active session first, one per tick.
func TestLoadShedding(t *testing.T) {
	cfg := testConfig(t)
	cfg.SoftMemLimit = 1 // any heap at all counts as pressure
	cfg.MaintInterval = 20 * time.Millisecond
	srv := mustServer(t, cfg)

	low, err := srv.Open(OpenOptions{ID: "low", Priority: 0})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) // order lastActive below
	mid, err := srv.Open(OpenOptions{ID: "mid", Priority: 1})
	if err != nil {
		t.Fatal(err)
	}
	high, err := srv.Open(OpenOptions{ID: "high", Priority: 2})
	if err != nil {
		t.Fatal(err)
	}

	wait := func(s *Session) CloseReason {
		select {
		case <-s.Done():
			return s.Reason()
		case <-time.After(5 * time.Second):
			t.Fatalf("session %s was never shed", s.ID())
			return ""
		}
	}
	if r := wait(low); r != ReasonShed {
		t.Fatalf("low closed %q, want %q", r, ReasonShed)
	}
	// Priority strictly orders the victims.
	select {
	case <-high.Done():
		t.Fatal("high-priority session shed before lower priorities")
	default:
	}
	if r := wait(mid); r != ReasonShed {
		t.Fatalf("mid closed %q, want %q", r, ReasonShed)
	}
	wait(high)
	if got := srv.obs.shed.Value(); got != 3 {
		t.Fatalf("shed counter = %d, want 3", got)
	}
}

// TestLanesMatchEngine: scores coming back through the shared lanes are
// exactly what a direct engine call produces, for every frame.
func TestLanesMatchEngine(t *testing.T) {
	eng := deploy.SyntheticEngine(2, 0.35)
	obs := newObsSet(nil)
	l := newLanes(eng, 2, 4, &obs)
	defer l.stop()

	dim := 49 * 10
	rng := rand.New(rand.NewSource(4))
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		x := make([]float32, dim)
		for j := range x {
			x[j] = float32(rng.NormFloat64())
		}
		want := eng.InferBatch([][]float32{x})[0]
		if want.Err != nil {
			t.Fatal(want.Err)
		}
		wg.Add(1)
		go func(x []float32, want []int32) {
			defer wg.Done()
			got, err := l.infer(x, nil, nil, 5*time.Second)
			if err != nil {
				t.Errorf("lane infer: %v", err)
				return
			}
			for k := range want {
				if got[k] != want[k] {
					t.Errorf("lane scores diverge from direct inference at class %d", k)
					return
				}
			}
		}(x, want.Scores)
	}
	wg.Wait()

	// A malformed frame errors through the lane without breaking it.
	if _, err := l.infer(make([]float32, 7), nil, nil, 5*time.Second); err == nil {
		t.Fatal("short frame produced no error")
	}
	if _, err := l.infer(make([]float32, dim), nil, nil, 5*time.Second); err != nil {
		t.Fatalf("lane broken after malformed frame: %v", err)
	}
}

// TestLaneTimeoutOrphansWindow: with a ClassifyTimeout far below one
// inference, every hop gives up on its lane while the lane still holds the
// request. The lane must read a session-owned copy of the frame, which the
// session then abandons — never the detector's feature buffer, which the
// next hop overwrites in place — so under -race (ci.sh) a lane reading the
// detector's buffer is a reported data race. The session survives every
// timeout as a discarded hop.
func TestLaneTimeoutOrphansWindow(t *testing.T) {
	cfg := testConfig(t)
	cfg.ClassifyTimeout = time.Nanosecond
	cfg.Lanes = 1
	cfg.Breaker.TripThreshold = 1 << 20 // count every timeout, trip never
	srv := mustServer(t, cfg)
	sess, err := srv.Open(OpenOptions{ID: "timeouts"})
	if err != nil {
		t.Fatal(err)
	}
	if !pushAll(sess, synthSeconds(7, 10), cfg.SampleRate/8) {
		t.Fatal("session refused audio")
	}
	sess.Close()
	<-sess.Done()
	st := sess.Stats()
	stalls := srv.obs.laneStalls.Value()
	if stalls < 20 || st.Detector.BadPosteriors != stalls {
		t.Fatalf("%d lane timeouts, %d discarded hops: want ≥ 20 timeouts, each a discarded hop", stalls, st.Detector.BadPosteriors)
	}
	if r := sess.Reason(); r != ReasonClientClose {
		t.Fatalf("session closed with %q, want %q", r, ReasonClientClose)
	}
}

// TestRunLoadDirect: the load generator end to end against an in-process
// server — a third of sessions heavily faulted, zero clean sessions lost.
func TestRunLoadDirect(t *testing.T) {
	cfg := testConfig(t)
	cfg.IdleTimeout = 5 * time.Second
	srv := mustServer(t, cfg)

	rep := RunLoad(DirectTarget{srv}, LoadConfig{
		Sessions:      21,
		FaultFraction: 0.34,
		Seconds:       1.25,
		ChunkMs:       250,
		Seed:          11,
		Fault:         faultConfigForTest(),
	})
	if rep.CleanSessionsLost != 0 {
		t.Fatalf("clean sessions lost: %d (report %+v)", rep.CleanSessionsLost, rep)
	}
	if rep.SessionsSustained != rep.Sessions {
		t.Fatalf("sustained %d of %d sessions: %+v", rep.SessionsSustained, rep.Sessions, rep)
	}
	if rep.FaultySessions == 0 || rep.Injected.Chunks == 0 {
		t.Fatalf("fault injection never ran: %+v", rep)
	}
	if rep.SamplesPushed == 0 || rep.ChunksPushed == 0 {
		t.Fatalf("no audio flowed: %+v", rep)
	}
}

// TestDoneAfterOnClose pins Session.Done's contract: it closes only after
// OnClose has returned, so a caller woken by Done (the load generator
// reading the close reason, the TCP front flushing its bye line) sees
// everything the callback did, however slow the callback is.
func TestDoneAfterOnClose(t *testing.T) {
	srv := mustServer(t, testConfig(t))
	var reason atomic.Value
	sess, err := srv.Open(OpenOptions{
		ID: "slow-close",
		OnClose: func(r CloseReason) {
			time.Sleep(20 * time.Millisecond)
			reason.Store(r)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
	select {
	case <-sess.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("session never finished")
	}
	if r, _ := reason.Load().(CloseReason); r != ReasonClientClose {
		t.Fatalf("after Done, OnClose had recorded %q, want %q", r, ReasonClientClose)
	}
}
