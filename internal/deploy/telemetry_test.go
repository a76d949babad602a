package deploy

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/telemetry"
)

// TestEngineTelemetryCounts: an observed engine attributes every inference
// to per-layer histograms, counts gather work, and records the arena
// high-water mark — while staying bit-identical to the unobserved engine.
func TestEngineTelemetryCounts(t *testing.T) {
	e := deployTestEngine(41)
	plain := deployTestEngine(41)
	reg := telemetry.NewRegistry()
	obs := e.EnableTelemetry(reg, nil)

	rng := rand.New(rand.NewSource(42))
	x := make([]float32, e.Frames*e.Coeffs)
	const n = 5
	for it := 0; it < n; it++ {
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		sc, cls := e.Infer(x)
		psc, pcls := plain.Infer(x)
		if cls != pcls {
			t.Fatalf("observed class %d, plain %d", cls, pcls)
		}
		for j := range sc {
			if sc[j] != psc[j] {
				t.Fatalf("observed scores diverge at %d: %d vs %d", j, sc[j], psc[j])
			}
		}
	}

	if got := obs.Infers.Value(); got != n {
		t.Fatalf("infers = %d, want %d", got, n)
	}
	if got := reg.LatencyHistogram("engine.infer.ns").Count(); got != n {
		t.Fatalf("infer histogram count = %d, want %d", got, n)
	}
	if len(obs.LayerNs) != len(e.Convs)+2 {
		t.Fatalf("got %d layer histograms, want %d", len(obs.LayerNs), len(e.Convs)+2)
	}
	for i, h := range obs.LayerNs {
		if h.Count() != n {
			t.Fatalf("layer %s observed %d times, want %d", obs.LayerNames[i], h.Count(), n)
		}
	}
	if obs.Gathers.Value() <= 0 {
		t.Fatal("gather-add visits not counted")
	}
	if obs.ArenaBytes.Value() <= 0 {
		t.Fatal("arena high-water mark not recorded")
	}
}

// TestEngineTelemetryFaults: failed frames (wrong length, batch or safe
// path) land in the fault counter.
func TestEngineTelemetryFaults(t *testing.T) {
	e := deployTestEngine(43)
	reg := telemetry.NewRegistry()
	obs := e.EnableTelemetry(reg, nil)

	if _, _, err := e.InferSafe(make([]float32, 3)); err == nil {
		t.Fatal("short frame accepted")
	}
	res := e.InferBatch([][]float32{make([]float32, 1), make([]float32, int(e.Frames*e.Coeffs))})
	if res[0].Err == nil || res[1].Err != nil {
		t.Fatalf("batch errs = [%v %v]", res[0].Err, res[1].Err)
	}
	if got := obs.Faults.Value(); got != 2 {
		t.Fatalf("faults = %d, want 2", got)
	}
}

// traceEvent is one exported chrome://tracing span.
type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Tid  int64   `json:"tid"`
}

// exportedSpans parses the tracer's JSON export.
func exportedSpans(t *testing.T, tr *telemetry.Tracer) []traceEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return out.TraceEvents
}

// checkNestedSpans fails unless each root span named root has one child
// per stage name, in stage order, on the root's track and contained in its
// interval — the chrome://tracing contract — and returns how many roots
// it found.
func checkNestedSpans(t *testing.T, evs []traceEvent, root string, stages []string) int {
	t.Helper()
	roots := 0
	for _, r := range evs {
		if r.Name != root {
			continue
		}
		roots++
		var children []string
		for _, ev := range evs {
			if ev.Tid != r.Tid || ev.Name == root {
				continue
			}
			if ev.Ts < r.Ts || ev.Ts+ev.Dur > r.Ts+r.Dur+0.001 {
				t.Fatalf("span %q [%f,%f] escapes root %s [%f,%f]", ev.Name, ev.Ts, ev.Ts+ev.Dur, root, r.Ts, r.Ts+r.Dur)
			}
			children = append(children, ev.Name)
		}
		if !slices.Equal(children, stages) {
			t.Fatalf("%s children %v, want %v", root, children, stages)
		}
	}
	return roots
}

// TestEngineTraceNestedSpans: a traced inference exports engine.infer with
// one child span per layer, all on the root's track and contained in its
// interval — the chrome://tracing contract.
func TestEngineTraceNestedSpans(t *testing.T) {
	e := deployTestEngine(44)
	tr := telemetry.NewTracer(0)
	obs := e.EnableTelemetry(telemetry.NewRegistry(), tr)
	x := make([]float32, e.Frames*e.Coeffs)
	e.Infer(x)

	evs := exportedSpans(t, tr)
	// One root + len(Convs) conv spans + pool + tree.
	if want := 1 + len(e.Convs) + 2; len(evs) != want {
		t.Fatalf("got %d spans, want %d", len(evs), want)
	}
	if n := checkNestedSpans(t, evs, "engine.infer", obs.LayerNames); n != 1 {
		t.Fatalf("got %d engine.infer roots, want 1", n)
	}
}

// TestEngineTraceHopSpans: hops run the frame's driver, stage hooks
// included. A traced cold hop and a traced warm hop each export engine.hop
// with one child span per conv plus pool and tree, every per-layer
// histogram counts both, and the hop counters count them while
// engine.infers and engine.infer.ns, which count frames, stay at zero. The
// observed hops stay bit-exact with an unobserved engine's.
func TestEngineTraceHopSpans(t *testing.T) {
	const hop = 12
	e := deployTestEngine(45)
	plain := deployTestEngine(45)
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(0)
	obs := e.EnableTelemetry(reg, tr)
	rng := rand.New(rand.NewSource(46))
	s := newHopStream(rng, int(e.Frames), int(e.Coeffs), hop, 2)
	hs, ref := e.NewHopState(), plain.NewHopState()
	for i, nNew := range []int{int(e.Frames), hop} {
		got, _ := e.InferHop(hs, s.window(i), nNew)
		want, _ := plain.InferHop(ref, s.window(i), nNew)
		if !slices.Equal(got, want) {
			t.Fatalf("hop %d: observed scores %v, plain %v", i, got, want)
		}
	}
	if hs.LastFull() {
		t.Fatal("second hop was not incremental")
	}

	evs := exportedSpans(t, tr)
	if n := checkNestedSpans(t, evs, "engine.hop", obs.LayerNames); n != 2 {
		t.Fatalf("got %d engine.hop roots, want 2", n)
	}
	if len(evs) != 2*(1+len(obs.LayerNames)) {
		t.Fatalf("got %d spans, want %d", len(evs), 2*(1+len(obs.LayerNames)))
	}
	for i, h := range obs.LayerNs {
		if h.Count() != 2 {
			t.Fatalf("layer %s observed %d times, want 2", obs.LayerNames[i], h.Count())
		}
	}
	if obs.HopInfers.Value() != 2 || obs.HopFull.Value() != 1 || obs.HopColumns.Value() != hs.Stats().ColumnsComputed {
		t.Fatalf("hop counters: %d hops, %d full, %d columns; state counted %+v",
			obs.HopInfers.Value(), obs.HopFull.Value(), obs.HopColumns.Value(), hs.Stats())
	}
	if obs.Infers.Value() != 0 || obs.InferNs.Count() != 0 {
		t.Fatalf("hops counted as frames: engine.infers %d, engine.infer.ns %d", obs.Infers.Value(), obs.InferNs.Count())
	}
}

// deployTestEngine builds the standard synthetic paper-shape engine.
func deployTestEngine(seed int64) *Engine {
	return SyntheticEngine(seed, 0.35)
}
