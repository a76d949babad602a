package deploy

// arena holds every buffer one inference needs, sized once from the
// engine's compiled shapes so the steady-state hot path performs zero heap
// allocations. An arena is owned by exactly one goroutine at a time:
// Engine.Infer uses the engine's resident arena, InferBatch checks one out
// per worker.
type arena struct {
	pol        Policy  // activation policy this arena was sized for
	imgA, imgB []int8  // ping-pong activation planes (max c·h·w over the chain)
	cols       []int8  // im2col scratch (max over convs)
	hidden     []int16 // standard-conv hidden planes, mixed policy (max r·nOut)
	hidden8    []int8  // standard-conv hidden planes, PolicyInt8
	acc        []int32 // one accumulator row: pad8(nOut) standard, 2·pad8(nOut) depthwise
	pooled     []int8  // average-pool output feeding the tree
	z16        []int16 // tree projection at 16 bit
	z8         []int8  // requantised projection ẑ
	wv         []int16 // per-node W and V outputs (2·L)
	scores     []int64 // class score accumulators
	out        []int32 // returned score slice
	denseHid   []int16 // QDense hidden scratch (max R over tree denses)
}

// newArena sizes every buffer from the engine's compiled shapes, walking
// the conv chain exactly as Validate does. A frame arena holds every buffer;
// a hop arena (frame false) leaves out the ping-pong images and the im2col
// scratch, which the hop path never reads: a HopState keeps its own cached
// images and band im2col (hop.go).
func newArena(e *Engine, frame bool) *arena {
	h, w := int(e.Frames), int(e.Coeffs)
	maxImg := h * w
	var maxCols, maxHidden, maxAcc int
	for _, q := range e.Convs {
		oh, ow := q.outSize(h, w)
		nOut := oh * ow
		// Buffers are sized at the column-lane padded stride pad8(nOut)
		// (collane.go): activation channels, im2col planes, hidden planes
		// and the accumulator row all live at it on the hot path.
		pa := pad8(nOut)
		// Only standard convs with a real window lower through im2col:
		// pointwise aliases the image and depthwise gathers off it directly.
		if q.Kind == kindStandard &&
			!(q.KH == 1 && q.KW == 1 && q.Stride == 1 && q.PadH == 0 && q.PadW == 0) {
			if cols := int(q.Cin) * int(q.KH) * int(q.KW) * pa; cols > maxCols {
				maxCols = cols
			}
		}
		if out := int(q.Cout) * pa; out > maxImg {
			maxImg = out
		}
		// Rows run one after another through a single accumulator row;
		// depthwise keeps its channel and per-unit tap rows side by side.
		acc := pa
		switch q.Kind {
		case kindStandard:
			if hid := int(q.R) * pa; hid > maxHidden {
				maxHidden = hid
			}
		case kindDepthwise:
			acc = 2 * pa
		}
		if acc > maxAcc {
			maxAcc = acc
		}
		h, w = oh, ow
	}
	ph := (h-int(e.PoolK))/int(e.PoolS) + 1
	pw := (w-int(e.PoolK))/int(e.PoolS) + 1
	cLast := int(e.Convs[len(e.Convs)-1].Cout)

	t := e.Tree
	L := int(t.NumClasses)
	maxR := int(t.Z.R)
	for k := range t.W {
		if r := int(t.W[k].R); r > maxR {
			maxR = r
		}
		if r := int(t.V[k].R); r > maxR {
			maxR = r
		}
	}

	a := &arena{
		pol:      e.Policy,
		acc:      make([]int32, maxAcc),
		pooled:   make([]int8, cLast*ph*pw),
		z16:      make([]int16, int(t.Z.Out)),
		z8:       make([]int8, int(t.Z.Out)),
		wv:       make([]int16, 2*L),
		scores:   make([]int64, L),
		out:      make([]int32, L),
		denseHid: make([]int16, maxR),
	}
	if frame {
		a.imgA = make([]int8, maxImg)
		a.imgB = make([]int8, maxImg)
		a.cols = make([]int8, maxCols)
	}
	// The hidden planes are the policy-dependent buffer: int16 under the
	// mixed policy, int8 under PolicyInt8 — half the resident activation
	// bytes for the dominant buffer.
	if e.Policy == PolicyInt8 {
		a.hidden8 = make([]int8, maxHidden)
	} else {
		a.hidden = make([]int16, maxHidden)
	}
	return a
}

// bytes reports the arena's total scratch footprint — the steady-state
// activation memory of the integer path, surfaced through
// Engine.ScratchBytes and the telemetry ArenaBytes gauge.
func (a *arena) bytes() int64 {
	n := len(a.imgA) + len(a.imgB) + len(a.cols) + len(a.hidden8) +
		len(a.pooled) + len(a.z8)
	n += 2 * (len(a.hidden) + len(a.z16) + len(a.wv) + len(a.denseHid))
	n += 4 * (len(a.acc) + len(a.out))
	n += 8 * len(a.scores)
	return int64(n)
}
