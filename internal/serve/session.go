package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stream"
	"repro/internal/telemetry"
)

// chunk is one unit of session input: either samples or a gap (dropped
// audio the detector should conceal). ingress is when the chunk entered the
// process (e.g. read off the TCP socket), anchoring the hop trace's first
// stage; the zero value means "stamp at enqueue".
type chunk struct {
	samples []float64
	gap     int
	ingress time.Time
}

// Session states, in sess.state.
const (
	stateActive int32 = iota
	stateQuarantined
	stateClosed
)

// SessionStats is a point-in-time snapshot of one session.
type SessionStats struct {
	ID                string
	Priority          int
	Chunks, Samples   int64
	Events            int64
	Faults            int64 // cumulative breaker fault score observed
	Panics            int64 // classifier/callback panics recovered
	BackpressureDrops int64 // Push rejections for a full queue
	QuarantineDrops   int64 // chunks discarded while quarantined or terminating
	BreakerTrips      int64
	Detector          stream.Stats
	HopCache          stream.HopCacheStats // incremental-mode cache ledger (zeros otherwise)
}

// Session is one client's stream. Push/PushGap/Close/Terminate are safe to
// call from any goroutine; all detector work happens on the session's own
// pump goroutine, so a fault in this session's audio or classifier can only
// ever take down this session.
type Session struct {
	id       string
	priority int
	srv      *Server
	det      *stream.Detector
	cls      *laneClassifier          // nil when OpenOptions injected a custom classifier
	hopCls   *stream.EngineClassifier // incremental mode: session-owned hop cache, nil otherwise
	onEvent  func(stream.Event)
	onClose  func(CloseReason)

	in   chan chunk
	done chan struct{}

	mu           sync.Mutex // guards intakeClosed, discard, reason
	intakeClosed bool
	discard      bool
	reason       CloseReason

	state      atomic.Int32
	lastActive atomic.Int64 // UnixNano of the last processed chunk
	opened     time.Time

	br breaker

	chunks, samples atomic.Int64
	events          atomic.Int64
	faults          atomic.Int64
	panics          atomic.Int64
	bpDrops         atomic.Int64
	qDrops          atomic.Int64
	trips           atomic.Int64
}

// ID returns the session's identifier.
func (s *Session) ID() string { return s.id }

// Done is closed once the session has fully stopped (after OnClose ran).
func (s *Session) Done() <-chan struct{} { return s.done }

// Reason returns why the session closed ("" while still open).
func (s *Session) Reason() CloseReason {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reason
}

// Stats snapshots the session's counters.
func (s *Session) Stats() SessionStats {
	return SessionStats{
		ID:                s.id,
		Priority:          s.priority,
		Chunks:            s.chunks.Load(),
		Samples:           s.samples.Load(),
		Events:            s.events.Load(),
		Faults:            s.faults.Load(),
		Panics:            s.panics.Load(),
		BackpressureDrops: s.bpDrops.Load(),
		QuarantineDrops:   s.qDrops.Load(),
		BreakerTrips:      s.trips.Load(),
		Detector:          s.det.Stats(),
		HopCache:          s.det.HopCacheStats(),
	}
}

// Push hands one chunk of audio to the session. It never blocks: a full
// queue returns *BackpressureError (chunk NOT accepted — retry after the
// hint or drop it and report the gap with PushGap), a closed session
// returns ErrSessionClosed. Push takes ownership of samples; the caller
// must not reuse the slice.
func (s *Session) Push(samples []float64) error {
	return s.enqueue(chunk{samples: samples})
}

// PushAt is Push with an explicit ingress timestamp — the moment the audio
// entered the process (e.g. was read off the socket) — so hop traces and the
// end-to-end latency SLO measure from true ingress rather than from
// enqueue.
func (s *Session) PushAt(samples []float64, ingress time.Time) error {
	return s.enqueue(chunk{samples: samples, ingress: ingress})
}

// PushGap reports n samples of dropped audio; the detector conceals them.
func (s *Session) PushGap(n int) error {
	if n <= 0 {
		return nil
	}
	return s.enqueue(chunk{gap: n})
}

func (s *Session) enqueue(c chunk) error {
	if s.srv.traces != nil && c.ingress.IsZero() {
		c.ingress = time.Now()
	}
	// The lock orders the closed-check against closeIntake: after
	// closeIntake returns, no new send can start, so closing s.in is safe.
	s.mu.Lock()
	if s.intakeClosed {
		s.mu.Unlock()
		return ErrSessionClosed
	}
	select {
	case s.in <- c:
		s.mu.Unlock()
		return nil
	default:
		s.mu.Unlock()
		s.bpDrops.Add(1)
		s.srv.obs.bpDrops.Inc()
		s.srv.flight.Record(telemetry.FlightBackpressure, s.id, 0, int64(len(s.in)), 0, "queue-full")
		return &BackpressureError{RetryAfter: s.srv.cfg.RetryAfter}
	}
}

// Close ends the session cleanly: queued chunks are still processed, then
// the pump stops and OnClose(ReasonClientClose) runs.
func (s *Session) Close() {
	s.closeIntake(ReasonClientClose, false)
}

// Terminate ends the session abruptly with the given reason; queued chunks
// are discarded.
func (s *Session) Terminate(reason CloseReason) {
	s.terminate(reason)
}

func (s *Session) terminate(reason CloseReason) {
	s.closeIntake(reason, true)
}

// closeIntake closes the session's input exactly once; the first reason
// wins. discard makes the pump drop (and count) the chunks still queued
// instead of processing them. The pump itself exits when the channel
// drains — its single exit point.
func (s *Session) closeIntake(reason CloseReason, discard bool) {
	s.mu.Lock()
	if s.intakeClosed {
		s.mu.Unlock()
		return
	}
	s.intakeClosed = true
	s.discard = discard
	s.reason = reason
	close(s.in)
	s.mu.Unlock()
}

// intakeOpen reports whether the session still accepts input (used by the
// shedder to skip sessions already on their way out).
func (s *Session) intakeOpen() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.intakeClosed
}

func (s *Session) discarding() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.discard
}

// pump is the session's only worker goroutine: it serialises all detector
// access, enforces the idle timeout, and survives anything process() throws
// at it. Its single exit path is the intake channel closing, so chunks
// already accepted are always drained (processed, or counted as discarded).
func (s *Session) pump() {
	defer s.srv.pumps.Done()
	defer s.finish()

	idle := time.NewTimer(s.srv.cfg.IdleTimeout)
	defer idle.Stop()
	force := s.srv.forceCh // nilled after firing so the select won't spin

	for {
		select {
		case c, ok := <-s.in:
			if !ok {
				return
			}
			if s.discarding() {
				// Terminating with discard (abort, forced drain): queued
				// chunks are abandoned, counted apart from quarantine drops.
				s.qDrops.Add(1)
				s.srv.obs.discards.Inc()
				continue
			}
			s.process(c)
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
			idle.Reset(s.srv.cfg.IdleTimeout)
		case <-idle.C:
			// A silent client loses its slot; chunks racing in after the
			// timer fired still drain below.
			s.closeIntake(ReasonIdle, false)
			idle.Reset(time.Hour) // the loop only ends via channel close
		case <-force:
			// Drain deadline expired: abandon queued work and stop.
			s.closeIntake(ReasonForced, true)
			s.mu.Lock()
			s.discard = true // force discard even if intake closed earlier
			s.mu.Unlock()
			force = nil
		}
	}
}

// process runs one chunk through the detector with full fault containment:
// panics are recovered and scored, detector fault counters feed the circuit
// breaker, and a tripped breaker quarantines or closes the session.
func (s *Session) process(c chunk) {
	s.lastActive.Store(time.Now().UnixNano())

	if s.state.Load() == stateQuarantined {
		if time.Now().Before(s.br.until) {
			// Cooling down: the chunk is dropped and counted, the client
			// keeps its slot.
			s.qDrops.Add(1)
			s.srv.obs.qDrops.Inc()
			return
		}
		// Half-open: give the session another chance.
		s.state.Store(stateActive)
	}

	s.chunks.Add(1)
	s.srv.obs.chunks.Inc()
	if c.gap == 0 {
		n := int64(len(c.samples))
		s.samples.Add(n)
		s.srv.obs.samples.Add(n)
	}

	// Hop tracing: the lane classifier opens one trace per detector hop;
	// beginChunk anchors them all at this chunk's socket ingress time.
	s.cls.beginChunk(c.ingress)

	before := s.det.Stats()
	events, panicked := s.runDetector(c)

	// Fault score for the breaker: discarded posteriors (classifier panics
	// inside the detector, wrong shapes, non-finite outputs) plus a heavy
	// penalty for panics that escaped the detector. Watchdog resets and
	// sample scrubbing are deliberately NOT scored — they are the detector
	// doing its job on recoverable input, and synthetic engines saturate
	// posteriors often enough that scoring them would quarantine clean
	// sessions.
	after := s.det.Stats()
	score := int(after.BadPosteriors - before.BadPosteriors)
	if panicked {
		score += 4
		s.panics.Add(1)
		s.srv.obs.panics.Inc()
	}
	if score > 0 {
		s.faults.Add(int64(score))
		s.srv.obs.faults.Add(int64(score))
	}
	if s.br.observe(score) {
		s.trips.Add(1)
		s.srv.obs.trips.Inc()
		s.srv.flight.Record(telemetry.FlightBreakerTrip, s.id, 0, int64(s.br.trips), int64(score), "")
		if s.br.trips >= s.srv.cfg.Breaker.MaxTrips {
			s.srv.obs.quarantined.Inc()
			// Record the trigger first, then freeze the incident buffer, so
			// the quarantine event and everything leading up to it survive
			// ring wraparound together.
			s.srv.flight.Record(telemetry.FlightQuarantine, s.id, 0, int64(s.br.trips), int64(score), "breaker-exhausted")
			s.srv.flight.SnapshotIncident(telemetry.FlightQuarantine, s.id)
			s.srv.log.Warn("session closed: breaker exhausted",
				"id", s.id, "trips", s.br.trips)
			s.cls.finishChunk(false)
			s.closeIntake(ReasonQuarantine, true)
			return
		}
		s.state.Store(stateQuarantined)
		s.srv.log.Warn("session quarantined", "id", s.id,
			"trip", s.br.trips, "cooldown_ms", s.srv.cfg.Breaker.Cooldown.Milliseconds())
		s.cls.finishChunk(false)
		return
	}

	for _, ev := range events {
		s.events.Add(1)
		s.srv.obs.events.Inc()
		s.deliver(ev)
	}
	s.cls.finishChunk(len(events) > 0)
}

// runDetector pushes one chunk through the detector, converting any panic —
// a hostile classifier, a corrupted callback chain — into a counted fault.
func (s *Session) runDetector(c chunk) (events []stream.Event, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			events = nil
			s.srv.log.Error("detector panic recovered", "id", s.id, "panic", r)
		}
	}()
	if c.gap > 0 {
		return s.det.ConcealGap(c.gap), false
	}
	return s.det.Push(c.samples), false
}

// deliver invokes the event callback with panic containment: a broken
// subscriber costs its own session a fault score, nothing more.
func (s *Session) deliver(ev stream.Event) {
	if s.onEvent == nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.srv.obs.panics.Inc()
			s.srv.obs.eventFail.Inc()
			s.srv.log.Error("event callback panic recovered", "id", s.id, "panic", r)
		}
	}()
	s.onEvent(ev)
}

// finish runs exactly once, on the pump goroutine, after the intake has
// drained: it deregisters the session, fires OnClose, and then signals
// Done, so a caller woken by Done sees everything OnClose did.
func (s *Session) finish() {
	s.state.Store(stateClosed)
	if s.hopCls != nil {
		// Return the incremental hop state to the engine's pool; the pump is
		// the only goroutine that ever touched it.
		s.hopCls.Close()
	}
	s.mu.Lock()
	if !s.intakeClosed { // pump died without a close (recovered panic path)
		s.intakeClosed = true
		s.reason = ReasonProtocol
	}
	reason := s.reason
	s.mu.Unlock()

	s.srv.remove(s, reason)
	if s.onClose != nil {
		func() {
			defer func() {
				if r := recover(); r != nil {
					s.srv.log.Error("close callback panic recovered", "id", s.id, "panic", r)
				}
			}()
			s.onClose(reason)
		}()
	}
	close(s.done)
}

// breaker is a per-session circuit breaker over chunk fault scores. It is
// only touched from the session's pump goroutine, so it needs no locking.
type breaker struct {
	cfg   BreakerConfig
	score int
	trips int
	until time.Time // quarantine end of the current trip
}

// observe folds one chunk's fault score in and reports whether the breaker
// tripped on this chunk.
func (b *breaker) observe(faultScore int) bool {
	if faultScore <= 0 {
		b.score -= b.cfg.Decay
		if b.score < 0 {
			b.score = 0
		}
		return false
	}
	b.score += faultScore
	if b.score < b.cfg.TripThreshold {
		return false
	}
	b.score = 0
	b.trips++
	b.until = time.Now().Add(b.cfg.Cooldown)
	return true
}
