// Package serve is the multi-session serving daemon core: it multiplexes
// thousands of concurrent audio sessions over one shared deploy.Engine while
// guaranteeing that no session's faults — corrupt samples, panicking
// classifiers, stalled or aborted streams — can fail or stall any other
// session.
//
// The design is a supervision tree over three layers:
//
//   - Each session owns a stream.Detector (sanitization, watchdog, gap
//     concealment) fed by a dedicated pump goroutine with a bounded chunk
//     queue, an idle timeout, panic recovery, and a per-session circuit
//     breaker that quarantines the session when its fault rate trips.
//   - Hops from every session fan into a small set of shared inference
//     lanes (lanes.go) that coalesce concurrent frames into
//     Engine.InferBatchInto calls, each run on its lane's goroutine over an
//     arena from the engine's pool.
//   - The Server applies admission control at Open (reject-with-retry-after
//     past MaxSessions or while draining), per-session backpressure at Push
//     (bounded queue, reject-with-retry-after), load-shedding of the
//     lowest-priority sessions under memory pressure, and a graceful Drain
//     that finishes in-flight hops and closes every session in bounded time.
//
// Faults are absorbed and counted — in each session's Stats and in the
// aggregate telemetry registry — never propagated.
package serve

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/deploy"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Config tunes the serving core. The zero value of every field selects a
// production-shaped default; only Engine is required.
type Config struct {
	// Engine is the shared inference engine. It is validated at New and
	// served concurrently through the lanes; the server never mutates it.
	Engine *deploy.Engine

	// Detector is the per-session detector configuration. A zero value
	// selects stream.DefaultConfig(SampleRate).
	Detector stream.Config

	// SampleRate is the session audio rate (default 4000, matching the
	// synthetic corpus).
	SampleRate int

	// Incremental switches every session to the temporal-cache pipeline:
	// the detector's streaming frontend featurises only newly arrived
	// frames, and each session owns a stream.EngineClassifier whose hop
	// state shifts the engine's activation cache across overlapping
	// windows instead of re-inferring the whole second. Hops then run
	// single-frame on the session's own pump goroutine — they bypass the
	// shared batch lanes (and their hop traces), trading lane coalescing
	// for ~4x less per-hop work. Posteriors are bit-identical to the
	// full-window pipeline at the same cadence; the hop snaps down to the
	// MFCC stride grid (250 ms → 240 ms). Cache behaviour is visible on
	// /metrics as stream.hop.cache.{hits,misses,invalidations} and per
	// session in SessionStats.HopCache.
	Incremental bool

	// FeatMean/FeatStd standardise features exactly as the engine's
	// training corpus was normalised (FeatStd 0 selects 1).
	FeatMean, FeatStd float32

	// MaxSessions caps concurrently open sessions; Open past the cap is
	// rejected with a retry hint (default 10000).
	MaxSessions int

	// ChunkQueue is each session's buffered chunk count; a full queue
	// rejects Push with a retry hint instead of blocking the caller
	// (default 8).
	ChunkQueue int

	// RetryAfter is the hint attached to admission and backpressure
	// rejections (default 250ms).
	RetryAfter time.Duration

	// IdleTimeout reaps sessions that stop sending audio — a stalled
	// client cannot hold a slot forever (default 30s).
	IdleTimeout time.Duration

	// ClassifyTimeout bounds one hop's wait for a shared lane, so a
	// saturated or wedged engine surfaces as a counted per-session fault
	// instead of a stuck pump (default 10s).
	ClassifyTimeout time.Duration

	// Lanes and LaneBatch shape the shared inference lanes: Lanes
	// collector goroutines each coalescing up to LaneBatch pending frames
	// from one Lanes·LaneBatch·4-deep queue into one InferBatchInto call on
	// the lane's own goroutine. Defaults: NumCPU/2 lanes (min 1), batch 16.
	Lanes, LaneBatch int

	// Breaker tunes the per-session circuit breaker.
	Breaker BreakerConfig

	// SoftMemLimit sheds the lowest-priority session whenever the heap
	// exceeds this many bytes (0 disables shedding).
	SoftMemLimit int64

	// MaintInterval is the cadence of the maintenance loop that refreshes
	// memory gauges and applies shedding (default 250ms).
	MaintInterval time.Duration

	// Registry receives aggregate serving metrics and every session
	// detector's counters; nil disables telemetry (nil instruments are
	// no-ops).
	Registry *telemetry.Registry

	// Flight receives structured serve-plane events (opens, closes,
	// breaker trips, quarantines, sheds, backpressure, lane stalls, drain
	// phases) for post-hoc forensics; nil disables flight recording.
	Flight *telemetry.FlightRecorder

	// Traces records per-chunk hop traces (TCP ingress → lane → batched
	// inference → event emission) resolvable by the trace IDs attached to
	// latency-histogram exemplars; nil disables hop tracing.
	Traces *telemetry.TraceStore

	// SLO configures the server's objective engine and, optionally,
	// budget-aware admission control.
	SLO SLOConfig

	// Logger receives lifecycle logs; nil disables logging.
	Logger *telemetry.Logger
}

// SLOConfig tunes the server's SLO engine. The engine itself always runs
// (it is cheap: one sample per objective per maintenance tick); only the
// admission feedback is gated behind Adaptive.
type SLOConfig struct {
	// HopP99Target is the end-to-end hop latency objective: 99% of hops
	// must complete within it (default 50ms).
	HopP99Target time.Duration
	// Windows are the rolling evaluation windows, shortest first (default
	// 30s, 2m, 10m).
	Windows []time.Duration
	// Resolution is the delta-ring bucket width (default 1s).
	Resolution time.Duration
	// BurnAlert is the burn-rate threshold above which an objective is
	// Burning on the two fastest windows (default 2).
	BurnAlert float64
	// Adaptive feeds Burning() back into admission control: while any
	// objective burns, the session cap tightens 10% per maintenance tick
	// (never below MinSessions), and relaxes back once the burn clears.
	// Off by default — an operator opts in.
	Adaptive bool
	// MinSessions is the adaptive cap's floor (default 16).
	MinSessions int
}

// BreakerConfig tunes the per-session circuit breaker. Each processed chunk
// contributes its fault score (bad posteriors plus a heavy penalty for
// recovered panics); fault-free chunks decay the score. Reaching
// TripThreshold trips the breaker: the session is quarantined — its chunks
// discarded and counted — for Cooldown, then given another chance. MaxTrips
// trips close the session for good.
type BreakerConfig struct {
	TripThreshold int           // fault score that trips (default 6)
	Decay         int           // score drop per clean chunk (default 1)
	Cooldown      time.Duration // quarantine length per trip (default 2s)
	MaxTrips      int           // trips before the session is closed (default 3)
}

// CloseReason says why a session ended.
type CloseReason string

const (
	ReasonClientClose CloseReason = "client-close"   // clean end-of-stream from the client
	ReasonClientAbort CloseReason = "client-abort"   // abrupt client disconnect
	ReasonIdle        CloseReason = "idle-timeout"   // no audio within IdleTimeout
	ReasonReadTimeout CloseReason = "read-timeout"   // transport read deadline expired
	ReasonQuarantine  CloseReason = "quarantined"    // circuit breaker exhausted its trips
	ReasonShed        CloseReason = "load-shed"      // evicted under memory pressure
	ReasonDrain       CloseReason = "drain"          // graceful shutdown, in-flight work finished
	ReasonForced      CloseReason = "drain-forced"   // drain deadline expired
	ReasonProtocol    CloseReason = "protocol-fault" // malformed transport framing
)

// RejectedError is returned by Open when admission control refuses a
// session; RetryAfter hints when the caller should try again.
type RejectedError struct {
	Cause      string
	RetryAfter time.Duration
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("serve: session rejected (%s), retry after %v", e.Cause, e.RetryAfter)
}

// BackpressureError is returned by Push when the session's chunk queue is
// full: the chunk was NOT accepted and should be retried after RetryAfter
// (or dropped by the caller, who then reports the gap with PushGap).
type BackpressureError struct {
	RetryAfter time.Duration
}

func (e *BackpressureError) Error() string {
	return fmt.Sprintf("serve: chunk queue full, retry after %v", e.RetryAfter)
}

// ErrSessionClosed is returned by Push once the session's intake has closed.
var ErrSessionClosed = fmt.Errorf("serve: session closed")

// ErrLaneTimeout is returned inside the classify path when a hop cannot get
// a shared inference lane within ClassifyTimeout. The session absorbs it as
// one bad-posterior hop; it is never fatal by itself.
var ErrLaneTimeout = fmt.Errorf("serve: inference lane timeout")

// allCloseReasons enumerates every CloseReason so the per-reason close
// counters can be pre-registered at newObsSet time — the close path then
// never touches the registry maps (or allocates a name string).
var allCloseReasons = []CloseReason{
	ReasonClientClose, ReasonClientAbort, ReasonIdle, ReasonReadTimeout,
	ReasonQuarantine, ReasonShed, ReasonDrain, ReasonForced, ReasonProtocol,
}

// obsSet bundles the server's aggregate instruments; every field is nil-safe
// so a Config without a Registry costs pointer compares only.
type obsSet struct {
	opened, rejected, closed *telemetry.Counter
	active                   *telemetry.Gauge
	chunks, samples, events  *telemetry.Counter
	bpDrops, qDrops          *telemetry.Counter
	discards                 *telemetry.Counter
	faults, panics, trips    *telemetry.Counter
	quarantined, shed        *telemetry.Counter
	eventFail                *telemetry.Counter
	laneDepth                *telemetry.Gauge
	laneBatch                *telemetry.Histogram
	laneWait                 *telemetry.Histogram
	laneStalls               *telemetry.Counter
	hopE2E                   *telemetry.Histogram
	heap, goroutines         *telemetry.Gauge
	closedReasons            map[CloseReason]*telemetry.Counter
	reg                      *telemetry.Registry
}

func newObsSet(reg *telemetry.Registry) obsSet {
	o := obsSet{
		opened:      reg.Counter("serve.sessions.opened"),
		rejected:    reg.Counter("serve.sessions.rejected"),
		closed:      reg.Counter("serve.sessions.closed"),
		active:      reg.Gauge("serve.sessions.active"),
		chunks:      reg.Counter("serve.chunks"),
		samples:     reg.Counter("serve.samples"),
		events:      reg.Counter("serve.events"),
		bpDrops:     reg.Counter("serve.chunks.backpressure_rejected"),
		qDrops:      reg.Counter("serve.chunks.quarantine_dropped"),
		discards:    reg.Counter("serve.chunks.discarded"),
		faults:      reg.Counter("serve.faults.absorbed"),
		panics:      reg.Counter("serve.faults.panics_recovered"),
		trips:       reg.Counter("serve.breaker.trips"),
		quarantined: reg.Counter("serve.sessions.quarantined"),
		shed:        reg.Counter("serve.sessions.shed"),
		eventFail:   reg.Counter("serve.events.delivery_failed"),
		laneDepth:   reg.Gauge("serve.lane.queue_depth"),
		laneBatch:   reg.Histogram("serve.lane.batch_frames", []int64{1, 2, 4, 8, 16, 32, 64, 128}),
		laneWait:    reg.LatencyHistogram("serve.lane.wait.ns"),
		laneStalls:  reg.Counter("serve.lane.stalls"),
		hopE2E:      reg.LatencyHistogram("serve.hop.e2e.ns"),
		heap:        reg.Gauge("serve.mem.heap_bytes"),
		goroutines:  reg.Gauge("serve.goroutines"),
		reg:         reg,
	}
	o.closedReasons = make(map[CloseReason]*telemetry.Counter, len(allCloseReasons))
	for _, r := range allCloseReasons {
		o.closedReasons[r] = reg.Counter("serve.sessions.closed." + string(r))
	}
	return o
}

// closedBy counts a close under its reason, e.g. serve.sessions.closed.idle.
// Known reasons hit the pre-registered handles; the registry fallback only
// exists for a CloseReason minted outside this package.
func (o *obsSet) closedBy(reason CloseReason) {
	o.closed.Inc()
	if c, ok := o.closedReasons[reason]; ok {
		c.Inc()
		return
	}
	o.reg.Counter("serve.sessions.closed." + string(reason)).Inc()
}

// Server multiplexes sessions over one shared engine. All methods are safe
// for concurrent use.
type Server struct {
	cfg    Config
	log    *telemetry.Logger
	obs    obsSet
	lanes  *lanes
	flight *telemetry.FlightRecorder
	traces *telemetry.TraceStore
	slo    *telemetry.SLOEngine

	// adaptiveCap is the SLO-tightened session cap (0 = MaxSessions rules).
	adaptiveCap atomic.Int64

	mu       sync.Mutex
	sessions map[string]*Session
	draining bool

	nextID    atomic.Int64
	pumps     sync.WaitGroup
	forceCh   chan struct{}
	forceOnce sync.Once
	maintStop chan struct{}
	maintOnce sync.Once
	maintWG   sync.WaitGroup
}

// New validates the engine, fills config defaults, and starts the shared
// inference lanes and the maintenance loop.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("serve: Config.Engine is required")
	}
	if err := cfg.Engine.Validate(); err != nil {
		return nil, fmt.Errorf("serve: refusing to serve a corrupt engine: %w", err)
	}
	if cfg.SampleRate <= 0 {
		cfg.SampleRate = 4000
	}
	if cfg.Detector.SampleRate == 0 {
		def := stream.DefaultConfig(cfg.SampleRate)
		if cfg.Detector == (stream.Config{}) {
			cfg.Detector = def
		} else {
			cfg.Detector.SampleRate = cfg.SampleRate
		}
	}
	if cfg.Incremental {
		cfg.Detector.Incremental = true
	}
	if cfg.FeatStd == 0 {
		cfg.FeatStd = 1
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 10000
	}
	if cfg.ChunkQueue <= 0 {
		cfg.ChunkQueue = 8
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 250 * time.Millisecond
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 30 * time.Second
	}
	if cfg.ClassifyTimeout <= 0 {
		cfg.ClassifyTimeout = 10 * time.Second
	}
	if cfg.Lanes <= 0 {
		cfg.Lanes = runtime.NumCPU() / 2
		if cfg.Lanes < 1 {
			cfg.Lanes = 1
		}
	}
	if cfg.LaneBatch <= 0 {
		cfg.LaneBatch = 16
	}
	if cfg.Breaker.TripThreshold <= 0 {
		cfg.Breaker.TripThreshold = 6
	}
	if cfg.Breaker.Decay <= 0 {
		cfg.Breaker.Decay = 1
	}
	if cfg.Breaker.Cooldown <= 0 {
		cfg.Breaker.Cooldown = 2 * time.Second
	}
	if cfg.Breaker.MaxTrips <= 0 {
		cfg.Breaker.MaxTrips = 3
	}
	if cfg.MaintInterval <= 0 {
		cfg.MaintInterval = 250 * time.Millisecond
	}
	if cfg.SLO.HopP99Target <= 0 {
		cfg.SLO.HopP99Target = 50 * time.Millisecond
	}
	if len(cfg.SLO.Windows) == 0 {
		cfg.SLO.Windows = []time.Duration{30 * time.Second, 2 * time.Minute, 10 * time.Minute}
	}
	if cfg.SLO.Resolution <= 0 {
		cfg.SLO.Resolution = time.Second
	}
	if cfg.SLO.BurnAlert <= 0 {
		cfg.SLO.BurnAlert = 2
	}
	if cfg.SLO.MinSessions <= 0 {
		cfg.SLO.MinSessions = 16
	}

	s := &Server{
		cfg:       cfg,
		log:       cfg.Logger,
		obs:       newObsSet(cfg.Registry),
		flight:    cfg.Flight,
		traces:    cfg.Traces,
		sessions:  make(map[string]*Session),
		forceCh:   make(chan struct{}),
		maintStop: make(chan struct{}),
	}
	s.lanes = newLanes(cfg.Engine, cfg.Lanes, cfg.LaneBatch, &s.obs)
	s.lanes.trs = s.traces

	s.slo = telemetry.NewSLOEngine(cfg.SLO.Windows, cfg.SLO.Resolution, cfg.SLO.BurnAlert)
	s.slo.Add(telemetry.Objective{
		Name:        "hop-p99",
		Description: fmt.Sprintf("99%% of hops complete end to end within %v", cfg.SLO.HopP99Target),
		Goal:        0.99,
		Source:      telemetry.HistogramTargetSource(s.obs.hopE2E, cfg.SLO.HopP99Target.Nanoseconds()),
	}, cfg.Registry)
	s.slo.Add(telemetry.Objective{
		Name:        "clean-close",
		Description: "99% of sessions end without being quarantined, shed, force-drained, or protocol-faulted",
		Goal:        0.99,
		Source: telemetry.SumFailureSource(s.obs.closed,
			s.obs.closedReasons[ReasonQuarantine], s.obs.closedReasons[ReasonShed],
			s.obs.closedReasons[ReasonForced], s.obs.closedReasons[ReasonProtocol]),
	}, cfg.Registry)
	s.slo.Add(telemetry.Objective{
		Name:        "event-delivery",
		Description: "99.9% of keyword events reach their subscriber without a callback fault",
		Goal:        0.999,
		Source:      telemetry.CounterFailureSource(s.obs.eventFail, s.obs.events),
	}, cfg.Registry)

	s.flight.Record(telemetry.FlightServerStart, "", 0, int64(cfg.MaxSessions), int64(cfg.Lanes), "")
	s.maintWG.Add(1)
	go s.maintain()
	return s, nil
}

// Flight returns the server's flight recorder (nil when disabled).
func (s *Server) Flight() *telemetry.FlightRecorder { return s.flight }

// Traces returns the server's hop-trace store (nil when disabled).
func (s *Server) Traces() *telemetry.TraceStore { return s.traces }

// SLO returns the server's objective engine; it is always non-nil and
// serves /slo directly as an http.Handler.
func (s *Server) SLO() *telemetry.SLOEngine { return s.slo }

// capLimit is the effective session cap: MaxSessions, tightened by the
// adaptive SLO budget when that is active and lower.
func (s *Server) capLimit() int {
	limit := s.cfg.MaxSessions
	if c := s.adaptiveCap.Load(); c > 0 && int(c) < limit {
		limit = int(c)
	}
	return limit
}

// OpenOptions parameterise one session.
type OpenOptions struct {
	// ID names the session; empty auto-assigns one. Duplicate IDs are
	// rejected.
	ID string
	// Priority orders load shedding: under memory pressure the
	// lowest-priority (then least recently active) session is evicted
	// first.
	Priority int
	// OnEvent receives keyword detections, called from the session's pump
	// goroutine. A panicking callback is recovered and counted as a
	// session fault.
	OnEvent func(stream.Event)
	// OnClose runs exactly once, from the pump goroutine, after the
	// session has fully stopped.
	OnClose func(CloseReason)
	// Classifier overrides the shared-lane engine classifier (tests inject
	// hostile classifiers here; production leaves it nil).
	Classifier stream.Classifier
}

// Open admits a new session or rejects it with a *RejectedError carrying a
// retry hint. The returned session is live: its pump goroutine is running
// and Push may be called immediately.
func (s *Server) Open(opt OpenOptions) (*Session, error) {
	if err := s.admit(opt.ID); err != nil {
		s.obs.rejected.Inc()
		s.recordReject(opt.ID, err)
		return nil, err
	}

	// Detector construction (MFCC tables, the one-second ring) happens
	// outside the lock; admission is re-checked at insert.
	cls := opt.Classifier
	var lc *laneClassifier
	var hc *stream.EngineClassifier
	if cls == nil && s.cfg.Incremental {
		// Incremental mode: the session owns an engine hop state (pooled,
		// released at finish) and infers single-frame on its own pump,
		// bypassing the shared lanes.
		hc = stream.NewEngineClassifier(s.cfg.Engine)
		cls = hc
	}
	if cls == nil {
		lc = &laneClassifier{
			lanes:   s.lanes,
			srv:     s,
			wScale:  float64(s.cfg.Engine.Tree.WScale),
			classes: int(s.cfg.Engine.Tree.NumClasses),
			timeout: s.cfg.ClassifyTimeout,
			obs:     &s.obs,
		}
		cls = lc
	}
	det := stream.NewDetector(s.cfg.Detector, cls, s.cfg.FeatMean, s.cfg.FeatStd)
	det.AttachTelemetry(s.obs.reg)

	sess := &Session{
		id:       opt.ID,
		priority: opt.Priority,
		srv:      s,
		det:      det,
		onEvent:  opt.OnEvent,
		onClose:  opt.OnClose,
		in:       make(chan chunk, s.cfg.ChunkQueue),
		done:     make(chan struct{}),
		opened:   time.Now(),
	}
	sess.br.cfg = s.cfg.Breaker
	sess.lastActive.Store(time.Now().UnixNano())
	if sess.id == "" {
		sess.id = "s" + strconv.FormatInt(s.nextID.Add(1), 10)
	}
	if lc != nil {
		lc.sessID = sess.id
		sess.cls = lc
	}
	sess.hopCls = hc

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.obs.rejected.Inc()
		err := &RejectedError{Cause: "draining", RetryAfter: s.cfg.RetryAfter}
		s.recordReject(sess.id, err)
		return nil, err
	}
	if limit := s.capLimit(); len(s.sessions) >= limit {
		s.mu.Unlock()
		s.obs.rejected.Inc()
		err := &RejectedError{Cause: capCause(limit, s.cfg.MaxSessions), RetryAfter: s.cfg.RetryAfter}
		s.recordReject(sess.id, err)
		return nil, err
	}
	if _, dup := s.sessions[sess.id]; dup {
		s.mu.Unlock()
		s.obs.rejected.Inc()
		err := &RejectedError{Cause: "duplicate session id " + sess.id, RetryAfter: s.cfg.RetryAfter}
		s.recordReject(sess.id, err)
		return nil, err
	}
	s.sessions[sess.id] = sess
	s.pumps.Add(1)
	s.mu.Unlock()

	s.obs.opened.Inc()
	s.obs.active.Add(1)
	s.flight.Record(telemetry.FlightSessionOpen, sess.id, 0, int64(sess.priority), 0, "")
	s.log.Debug("session opened", "id", sess.id, "priority", sess.priority)
	go sess.pump()
	return sess, nil
}

// capCause distinguishes a hard capacity reject from an adaptive SLO-budget
// tightening, so clients and the flight recorder see which limit bit.
func capCause(limit, maxSessions int) string {
	if limit < maxSessions {
		return "slo-budget"
	}
	return "at capacity"
}

// recordReject logs an admission rejection to the flight recorder.
func (s *Server) recordReject(id string, err error) {
	if s.flight == nil {
		return
	}
	cause := "error"
	if rej, ok := err.(*RejectedError); ok {
		cause = rej.Cause
	}
	s.flight.Record(telemetry.FlightAdmissionReject, id, 0, 0, 0, cause)
}

// admit is the cheap first-pass admission check, before the detector is
// built.
func (s *Server) admit(string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return &RejectedError{Cause: "draining", RetryAfter: s.cfg.RetryAfter}
	}
	if limit := s.capLimit(); len(s.sessions) >= limit {
		return &RejectedError{Cause: capCause(limit, s.cfg.MaxSessions), RetryAfter: s.cfg.RetryAfter}
	}
	return nil
}

// remove is called by a session's pump as its last act.
func (s *Server) remove(sess *Session, reason CloseReason) {
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	s.obs.active.Add(-1)
	s.obs.closedBy(reason)
	s.flight.Record(telemetry.FlightSessionClose, sess.id, 0, sess.chunks.Load(), sess.faults.Load(), string(reason))
	s.log.Debug("session closed", "id", sess.id, "reason", string(reason))
}

// SessionCount returns the number of currently open sessions.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Session returns the open session with the given id, or nil.
func (s *Server) Session(id string) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// Health is a /healthz check: an error while draining, nil otherwise.
func (s *Server) Health() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return fmt.Errorf("serve: draining, %d sessions left", len(s.sessions))
	}
	return nil
}

// maintain refreshes memory gauges and applies load shedding until Drain
// stops it.
func (s *Server) maintain() {
	defer s.maintWG.Done()
	t := time.NewTicker(s.cfg.MaintInterval)
	defer t.Stop()
	for {
		select {
		case <-s.maintStop:
			return
		case <-t.C:
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			s.obs.heap.Set(int64(ms.HeapAlloc))
			s.obs.goroutines.Set(int64(runtime.NumGoroutine()))
			if s.cfg.SoftMemLimit > 0 && ms.HeapAlloc > uint64(s.cfg.SoftMemLimit) {
				s.shedOne()
			}
			s.slo.Tick(time.Now())
			if s.cfg.SLO.Adaptive {
				s.adaptBudget()
			}
		}
	}
}

// shedOne evicts the lowest-priority (then least recently active) session
// still accepting input. One eviction per maintenance tick keeps shedding
// paced: memory is re-measured between evictions.
func (s *Server) shedOne() {
	s.mu.Lock()
	var victim *Session
	for _, sess := range s.sessions {
		if !sess.intakeOpen() {
			continue
		}
		if victim == nil ||
			sess.priority < victim.priority ||
			(sess.priority == victim.priority && sess.lastActive.Load() < victim.lastActive.Load()) {
			victim = sess
		}
	}
	s.mu.Unlock()
	if victim == nil {
		return
	}
	// Count and record the shed before terminating: the victim's pump may
	// close Done as soon as its intake closes, and a watcher of Done must
	// already see the shed in the counter and the flight recorder.
	s.obs.shed.Inc()
	s.flight.Record(telemetry.FlightShed, victim.id, 0, int64(victim.priority), 0, "memory-pressure")
	s.flight.SnapshotIncident(telemetry.FlightShed, victim.id)
	victim.terminate(ReasonShed)
	s.log.Warn("session shed under memory pressure", "id", victim.id, "priority", victim.priority)
}

// adaptBudget is the budget-aware degradation loop (cfg.SLO.Adaptive): while
// any objective burns, the effective session cap tightens to 90% of the
// current session count per tick (floored at MinSessions), shedding load
// before the per-session breakers have to; once the burn clears the cap
// relaxes by MaxSessions/20 per tick until it restores to MaxSessions.
func (s *Server) adaptBudget() {
	cur := s.adaptiveCap.Load()
	if s.slo.Burning() {
		target := int64(s.SessionCount()) * 9 / 10
		if min := int64(s.cfg.SLO.MinSessions); target < min {
			target = min
		}
		if cur == 0 || target < cur {
			s.adaptiveCap.Store(target)
			s.flight.Record(telemetry.FlightSLO, "", 0, target, cur, "budget-tighten")
			s.log.Warn("SLO budget burning: tightening session cap", "cap", target)
		}
		return
	}
	if cur == 0 {
		return
	}
	next := cur + int64(s.cfg.MaxSessions/20) + 1
	if next >= int64(s.cfg.MaxSessions) {
		s.adaptiveCap.Store(0)
		s.flight.Record(telemetry.FlightSLO, "", 0, int64(s.cfg.MaxSessions), cur, "budget-restore")
		s.log.Info("SLO budget recovered: session cap restored")
		return
	}
	s.adaptiveCap.Store(next)
}

// DrainStats reports what a Drain did.
type DrainStats struct {
	Sessions int           // sessions open when the drain began
	Graceful int           // finished their queued work inside the deadline
	Forced   int           // abandoned at the deadline (queued chunks discarded)
	Leaked   int           // pumps that failed to stop even after forcing (pathological)
	Elapsed  time.Duration // wall time of the whole drain
}

// Drain shuts the server down gracefully: new sessions are rejected
// immediately, every open session's intake closes so its pump finishes the
// chunks already queued, and the call returns when all sessions have closed
// or ctx expires — whichever comes first. On expiry remaining sessions are
// forced: their queued chunks are discarded and their pumps stopped. The
// shared lanes and the maintenance loop stop last, so in-flight hops always
// complete against a live engine.
func (s *Server) Drain(ctx context.Context) DrainStats {
	start := time.Now()
	s.mu.Lock()
	s.draining = true
	open := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		open = append(open, sess)
	}
	s.mu.Unlock()
	s.flight.Record(telemetry.FlightDrainPhase, "", 0, int64(len(open)), 0, "drain-start")
	s.log.Info("drain started", "sessions", len(open))

	for _, sess := range open {
		sess.closeIntake(ReasonDrain, false)
	}

	pumpsDone := make(chan struct{})
	go func() {
		s.pumps.Wait()
		close(pumpsDone)
	}()

	st := DrainStats{Sessions: len(open)}
	select {
	case <-pumpsDone:
	case <-ctx.Done():
		st.Forced = s.SessionCount()
		s.flight.Record(telemetry.FlightDrainPhase, "", 0, int64(st.Forced), 0, "drain-forced")
		s.forceOnce.Do(func() { close(s.forceCh) })
		// Forced pumps discard their queues and exit promptly; a pump
		// wedged inside a hostile classifier is all that can remain, and
		// it must not hold the drain open.
		select {
		case <-pumpsDone:
		case <-time.After(2 * time.Second):
			st.Leaked = s.SessionCount()
		}
	}
	st.Graceful = st.Sessions - st.Forced
	if st.Forced >= st.Leaked {
		st.Forced -= st.Leaked
	}

	s.maintOnce.Do(func() { close(s.maintStop) })
	s.maintWG.Wait()
	if st.Leaked == 0 {
		// Lanes stop only once no pump can submit again; leaked pumps keep
		// the lanes alive so their submissions time out instead of hanging.
		s.lanes.stop()
	}
	st.Elapsed = time.Since(start)
	s.flight.Record(telemetry.FlightDrainPhase, "", 0, int64(st.Graceful), int64(st.Forced), "drain-finished")
	s.log.Info("drain finished", "graceful", st.Graceful, "forced", st.Forced,
		"leaked", st.Leaked, "elapsed_ms", st.Elapsed.Milliseconds())
	return st
}
