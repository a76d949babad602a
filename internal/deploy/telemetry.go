package deploy

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// Observer wires an engine into the telemetry layer: per-layer latency
// histograms, inference and fault counters, a gather-add work counter, the
// scratch-arena high-water gauge, and engine→layer trace spans. Frames and
// hops run one driver (forward, arena.go), so both feed the per-layer
// histograms and trace their layers: a frame under an engine.infer root
// span, a hop under engine.hop. Infers, InferNs and Gathers count frames
// only; the Hop* counters count hops.
//
// An engine with a nil observer pays one pointer comparison per stage hook,
// so disabled telemetry keeps Infer at 0 allocs/op (pinned by
// TestEngineInferZeroAllocs and the ci.sh bench gate).
type Observer struct {
	Infers     *telemetry.Counter   // completed single-frame inferences
	Faults     *telemetry.Counter   // InferSafe/InferBatch per-frame failures
	InferNs    *telemetry.Histogram // whole-pipeline latency of a frame
	LayerNs    []*telemetry.Histogram
	LayerNames []string           // conv0..convN-1, "pool", "tree"
	Gathers    *telemetry.Counter // gather-add visits (compiled nonzero work)
	ArenaBytes *telemetry.Gauge   // high-water scratch bytes across all arenas

	// Incremental hop-path accounting (hop.go). HopColumns is the number of
	// conv output positions actually recomputed — against Infers·(total
	// positions) it quantifies what temporal caching saves.
	HopInfers  *telemetry.Counter // InferHop* calls completed
	HopFull    *telemetry.Counter // hops that fell back to a full recompute
	HopColumns *telemetry.Counter // conv output positions recomputed by hops

	tracer          *telemetry.Tracer
	gathersPerInfer int64
}

// EnableTelemetry compiles the engine's kernels and attaches an observer
// registered under the "engine." prefix in reg. tracer may be nil (metrics
// without spans). Call it before the engine starts serving: the observer
// pointer is read without synchronisation on the hot path.
func (e *Engine) EnableTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) *Observer {
	e.ensureCompiled()
	o := &Observer{
		Infers:     reg.Counter("engine.infers"),
		Faults:     reg.Counter("engine.faults"),
		InferNs:    reg.LatencyHistogram("engine.infer.ns"),
		Gathers:    reg.Counter("engine.gather.visits"),
		ArenaBytes: reg.Gauge("engine.arena.bytes.highwater"),
		HopInfers:  reg.Counter("engine.hop.infers"),
		HopFull:    reg.Counter("engine.hop.full_recomputes"),
		HopColumns: reg.Counter("engine.hop.columns_computed"),
		tracer:     tracer,
	}
	for i, q := range e.Convs {
		kind := "std"
		if q.Kind == kindDepthwise {
			kind = "dw"
		}
		name := fmt.Sprintf("conv%d.%s", i, kind)
		o.LayerNames = append(o.LayerNames, name)
		o.LayerNs = append(o.LayerNs, reg.LatencyHistogram("engine."+name+".ns"))
		o.gathersPerInfer += q.gatherVisits(e.geom[i].oh * e.geom[i].ow)
	}
	o.LayerNames = append(o.LayerNames, "pool", "tree")
	o.LayerNs = append(o.LayerNs,
		reg.LatencyHistogram("engine.pool.ns"),
		reg.LatencyHistogram("engine.tree.ns"))
	o.gathersPerInfer += e.Tree.gatherVisits()
	e.obs = o
	return o
}

// gatherVisits counts one inference's gather-add work through this conv:
// every compiled nonzero is visited once per output position.
func (q *QConv) gatherVisits(nOut int) int64 {
	return int64(q.wbSp.nnz+q.wcSp.nnz) * int64(nOut)
}

// gatherVisits counts the tree's per-inference gather work. The root-to-leaf
// walk is input-dependent, so W/V work is estimated as the mean per-node
// count times the path length — exact for Z and θ, which every input pays.
func (t *QTree) gatherVisits() int64 {
	visits := int64(t.Z.wbSp.nnz + t.Z.wcSp.nnz)
	var wv int64
	for k := range t.W {
		wv += int64(t.W[k].wbSp.nnz + t.W[k].wcSp.nnz)
		wv += int64(t.V[k].wbSp.nnz + t.V[k].wcSp.nnz)
	}
	if n := int64(len(t.W)); n > 0 {
		visits += wv / n * int64(t.Depth+1)
	}
	visits += int64(t.numInternal()) * int64(t.ProjDim) // θ routing dots, upper bound
	return visits
}

// fault records one failed frame (nil-safe).
func (o *Observer) fault() {
	if o != nil {
		o.Faults.Inc()
	}
}

// noteArena records a freshly sized arena's total scratch footprint: every
// frame, pooled and hop arena passes through it from newArena (nil-safe).
func (o *Observer) noteArena(a *arena) {
	if o == nil {
		return
	}
	o.ArenaBytes.SetMax(a.bytes())
}

// obsStage is one open pipeline stage: its trace span and start time. A
// nil observer opens the zero stage and its close hooks record nothing.
type obsStage struct {
	span telemetry.Span
	t0   time.Time
}

// openInfer opens the whole-pipeline stage, the engine.infer root span.
func (o *Observer) openInfer() obsStage {
	if o == nil {
		return obsStage{}
	}
	return obsStage{span: o.tracer.Span("engine.infer"), t0: time.Now()}
}

// closeInfer closes the whole-pipeline stage and counts one inference and
// its gather work.
func (o *Observer) closeInfer(root obsStage) {
	if o == nil {
		return
	}
	o.InferNs.ObserveSince(root.t0)
	o.Infers.Inc()
	o.Gathers.Add(o.gathersPerInfer)
	root.span.End()
}

// openHop opens a hop's whole-pipeline stage, the engine.hop root span.
func (o *Observer) openHop() obsStage {
	if o == nil {
		return obsStage{}
	}
	return obsStage{span: o.tracer.Span("engine.hop")}
}

// closeHop closes a hop's stage and counts the hop, whether it recomputed
// in full, and the conv output positions it computed. The hop kernels are
// identical with and without an observer — these are plain atomic adds
// after the fact — so telemetry cannot perturb hop results.
func (o *Observer) closeHop(root obsStage, full bool, computed int64) {
	if o == nil {
		return
	}
	o.HopInfers.Inc()
	o.HopColumns.Add(computed)
	if full {
		o.HopFull.Inc()
	}
	root.span.End()
}

// openLayer opens stage i (LayerNames[i]) as a child of root.
func (o *Observer) openLayer(root obsStage, i int) obsStage {
	if o == nil {
		return obsStage{}
	}
	return obsStage{span: root.span.Child(o.LayerNames[i]), t0: time.Now()}
}

// closeLayer closes stage i into its latency histogram and span.
func (o *Observer) closeLayer(s obsStage, i int) {
	if o == nil {
		return
	}
	o.LayerNs[i].ObserveSince(s.t0)
	s.span.End()
}
