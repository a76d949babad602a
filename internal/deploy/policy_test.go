package deploy

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// panicOf runs f and returns what it panicked with, or "" if it returned.
func panicOf(f func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	f()
	return ""
}

// TestPolicyFixedAtCompile: Policy is read once, when the engine compiles.
// A write after that panics, naming WithPolicy, at every inference entry
// point, from either policy — InferBatchInto included, whose per-frame
// recover must not turn it into a frame's Err — and InferSafe returns that
// panic as an error.
func TestPolicyFixedAtCompile(t *testing.T) {
	x := make([]float32, 49*10) // SyntheticEngine's window
	for _, c := range []struct {
		name string
		call func(e *Engine, hs *HopState)
	}{
		{"Infer", func(e *Engine, _ *HopState) { e.Infer(x) }},
		{"InferBatchInto", func(e *Engine, _ *HopState) { e.InferBatchInto(nil, [][]float32{x}) }},
		{"NewHopState", func(e *Engine, _ *HopState) { e.NewHopState() }},
		{"InferHop", func(e *Engine, hs *HopState) { e.InferHop(hs, x, int(e.Frames)) }},
		{"InferFloat", func(e *Engine, _ *HopState) { e.InferFloat(x) }},
		{"ScratchBytes", func(e *Engine, _ *HopState) { e.ScratchBytes() }},
		{"EnableTelemetry", func(e *Engine, _ *HopState) { e.EnableTelemetry(telemetry.NewRegistry(), nil) }},
	} {
		for _, from := range []Policy{PolicyMixed, PolicyInt8} {
			e := SyntheticEngine(3, 0.35)
			e.Policy = from
			hs := e.NewHopState() // compiles at from
			e.Policy = PolicyInt8 - from
			if msg := panicOf(func() { c.call(e, hs) }); !strings.Contains(msg, "WithPolicy") {
				t.Errorf("%s after a %v → %v write: panic %q, want one naming WithPolicy", c.name, from, e.Policy, msg)
			}
		}
	}
	e := SyntheticEngine(3, 0.35)
	e.Infer(x)
	e.Policy = PolicyInt8
	if sc, cls, err := e.InferSafe(x); err == nil || !strings.Contains(err.Error(), "WithPolicy") || sc != nil || cls != -1 {
		t.Errorf("InferSafe after a policy write: scores %v class %d err %v, want an error naming WithPolicy", sc, cls, err)
	}
}

// TestWithPolicy: on live-multiplier engines (liveInt8 at PolicyInt8),
// WithPolicy's engine at p is bit-exact with an engine built at p on Infer,
// InferBatchInto and warm hops, and leaves its parent's scores, policy and
// resident weights as they were. The parent's InferBatch runs concurrently
// with WithPolicy and the child's hops (ci.sh runs this under -race). An
// unknown policy is ErrCorrupt.
func TestWithPolicy(t *testing.T) {
	const engines, hop, hops = 6, 2, 12
	for _, p := range []Policy{PolicyMixed, PolicyInt8} {
		varying := 0
		for seed := int64(0); seed < engines; seed++ {
			build := func(pol Policy) *Engine {
				e := randSmallEngine(rand.New(rand.NewSource(5100 + seed)))
				if p == PolicyInt8 {
					liveInt8(e)
				}
				e.Policy = pol
				e.Calib = e.calibTable()
				return e
			}
			parent, fresh := build(PolicyInt8-p), build(p)
			tag := fmt.Sprintf("seed %d %v → %v", seed, parent.Policy, p)
			rng := rand.New(rand.NewSource(5200 + seed))
			xs := randFrames(rng, parent, 8)
			before := parent.InferBatch(xs)
			weights := parent.WeightBytes()

			done := make(chan []BatchResult)
			go func() {
				var res []BatchResult
				for k := 0; k < 4; k++ {
					res = parent.InferBatchInto(res, xs)
				}
				done <- res
			}()
			child, err := parent.WithPolicy(p)
			if err != nil {
				<-done
				t.Fatalf("%s: %v", tag, err)
			}
			if child.Policy != p {
				<-done
				t.Fatalf("%s: WithPolicy gave an engine at %v", tag, child.Policy)
			}
			var spread scoreSpread
			frames := int(child.Frames)
			s := newHopStream(rng, frames, int(child.Coeffs), hop, hops)
			hsC, hsF := child.NewHopState(), fresh.NewHopState()
			for i := 0; i < hops; i++ {
				nNew := hop
				if i == 0 {
					nNew = frames
				}
				got, _ := child.InferHop(hsC, s.window(i), nNew)
				want, _ := fresh.InferHop(hsF, s.window(i), nNew)
				spread.add(want)
				if !slices.Equal(got, want) {
					<-done
					t.Fatalf("%s hop %d: child %v, fresh engine %v", tag, i, got, want)
				}
			}
			hsC.Release()
			hsF.Release()
			after := <-done

			if parent.Policy != PolicyInt8-p || parent.WeightBytes() != weights {
				t.Fatalf("%s: parent now at %v holding %d B, was %v holding %d B",
					tag, parent.Policy, parent.WeightBytes(), PolicyInt8-p, weights)
			}
			for i := range xs {
				if after[i].Err != nil || !slices.Equal(after[i].Scores, before[i].Scores) {
					t.Fatalf("%s frame %d: parent scores %v (err %v), were %v", tag, i, after[i].Scores, after[i].Err, before[i].Scores)
				}
				got, _ := child.Infer(xs[i])
				want, _ := fresh.Infer(xs[i])
				spread.add(want)
				if !slices.Equal(got, want) {
					t.Fatalf("%s frame %d: child Infer %v, fresh engine %v", tag, i, got, want)
				}
			}
			gotB, wantB := child.InferBatchInto(nil, xs), fresh.InferBatchInto(nil, xs)
			for i := range xs {
				if gotB[i].Err != nil || wantB[i].Err != nil || !slices.Equal(gotB[i].Scores, wantB[i].Scores) {
					t.Fatalf("%s frame %d: child batch %v (err %v), fresh engine %v (err %v)",
						tag, i, gotB[i].Scores, gotB[i].Err, wantB[i].Scores, wantB[i].Err)
				}
			}
			if spread.varies {
				varying++
			}
		}
		checkVarying(t, p, varying, engines)
	}
	if _, err := SyntheticEngine(1, 0.35).WithPolicy(Policy(7)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("WithPolicy(7): err %v, want ErrCorrupt", err)
	}
}
