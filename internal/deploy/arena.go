package deploy

import "runtime"

// parallelThreshold is the approximate number of gather-adds above which a
// standard-conv stage shards its rows across goroutines — the same idiom as
// internal/tensor's MatMul sharding, retuned for int8 adds.
const parallelThreshold = 1 << 18

// maxShardWorkers caps the extra goroutines one arena will spawn; beyond
// this the shards are too small to amortise the dispatch.
const maxShardWorkers = 8

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
	acc        []int32 // per-row accumulators: max(r,cout)·nOut standard, 2·nOut depthwise
	pooled     []int8  // average-pool output feeding the tree
	z16        []int16 // tree projection at 16 bit
	z8         []int8  // requantised projection ẑ
	wv         []int16 // per-node W and V outputs (2·L)
	scores     []int64 // class score accumulators
	out        []int32 // returned score slice
	denseHid   []int16 // QDense hidden scratch (max R over tree denses)
	xPad       []byte  // QDense bitplane staging (max ⌈In/64⌉·64 over tree denses)

	// Shard worker pool, started lazily on the first large-enough conv
	// stage. Workers reference only the channels, so a dropped arena is
	// collectable; its finalizer closes work and the workers exit.
	workers int // extra goroutines available for row sharding (0 = serial)
	work    chan shardJob
	done    chan struct{}
}

// shardJob is one row range of a standard-conv stage. It is passed by value
// through a buffered channel, so dispatching shards allocates nothing. acc
// and lanes are indexed by absolute row, so shards of one stage share the
// buffers without overlapping.
type shardJob struct {
	q       *QConv
	stage   uint8
	cols    []int8
	hidden  []int16
	hidden8 []int8
	acc     []int32
	out     []int8
	nOut    int
	ps      int // im2col plane stride (hidden stages)
	os      int // output channel stride (out stages)
	lo, hi  int
}

const (
	stageHidden  uint8 = 1 // Wb × im2col → int16 hidden planes (mixed)
	stageOut     uint8 = 2 // Wc × hidden16 → requantised output (mixed)
	stageHidden8 uint8 = 3 // Wb × im2col → int8 hidden planes (PolicyInt8)
	stageOut8    uint8 = 4 // Wc × hidden8 → requantised output (PolicyInt8)
)

func (j shardJob) run() {
	switch j.stage {
	case stageHidden:
		j.q.stdHiddenRows(j.cols, j.hidden, j.acc, j.nOut, j.ps, j.lo, j.hi)
	case stageOut:
		j.q.stdOutRows(j.hidden, j.acc, j.out, j.nOut, j.os, j.lo, j.hi)
	case stageHidden8:
		j.q.stdHiddenRows8(j.cols, j.hidden8, j.acc, j.nOut, j.ps, j.lo, j.hi)
	case stageOut8:
		j.q.stdOutRows8(j.hidden8, j.acc, j.out, j.nOut, j.os, j.lo, j.hi)
	}
}

// newArena sizes every buffer from the engine's compiled shapes, walking
// the conv chain exactly as Validate does. parallel enables the shard
// worker pool when any stage's gather work crosses parallelThreshold;
// batch arenas pass false (parallelism there is across frames).
func newArena(e *Engine, parallel bool) *arena {
	h, w := int(e.Frames), int(e.Coeffs)
	maxImg := h * w
	var maxCols, maxHidden, maxAcc, maxWork int
	for _, q := range e.Convs {
		oh, ow := q.outSize(h, w)
		nOut := oh * ow
		// Buffers are sized at the column-lane padded stride pad8(nOut)
		// (collane.go): activation channels, im2col planes, hidden planes
		// and accumulator row slots all live at it on the hot path.
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
		switch q.Kind {
		case kindStandard:
			if hid := int(q.R) * pa; hid > maxHidden {
				maxHidden = hid
			}
			rows := int(q.R)
			if int(q.Cout) > rows {
				rows = int(q.Cout)
			}
			if acc := rows * pa; acc > maxAcc {
				maxAcc = acc
			}
			if wk := len(q.wbSp.idx) * nOut; wk > maxWork {
				maxWork = wk
			}
			if wk := len(q.wcSp.idx) * nOut; wk > maxWork {
				maxWork = wk
			}
		case kindDepthwise:
			if acc := 2 * pa; acc > maxAcc {
				maxAcc = acc
			}
		}
		h, w = oh, ow
	}
	ph := (h-int(e.PoolK))/int(e.PoolS) + 1
	pw := (w-int(e.PoolK))/int(e.PoolS) + 1
	cLast := int(e.Convs[len(e.Convs)-1].Cout)

	t := e.Tree
	L := int(t.NumClasses)
	maxR := int(t.Z.R)
	maxIn := int(t.Z.In)
	for k := range t.W {
		if r := int(t.W[k].R); r > maxR {
			maxR = r
		}
		if r := int(t.V[k].R); r > maxR {
			maxR = r
		}
		if in := int(t.W[k].In); in > maxIn {
			maxIn = in
		}
		if in := int(t.V[k].In); in > maxIn {
			maxIn = in
		}
	}

	a := &arena{
		pol:      e.Policy,
		imgA:     make([]int8, maxImg),
		imgB:     make([]int8, maxImg),
		cols:     make([]int8, maxCols),
		acc:      make([]int32, maxAcc),
		pooled:   make([]int8, cLast*ph*pw),
		z16:      make([]int16, int(t.Z.Out)),
		z8:       make([]int8, int(t.Z.Out)),
		wv:       make([]int16, 2*L),
		scores:   make([]int64, L),
		out:      make([]int32, L),
		denseHid: make([]int16, maxR),
		xPad:     make([]byte, (maxIn+63)&^63),
	}
	// The hidden planes are the policy-dependent buffer: int16 under the
	// mixed policy, int8 under PolicyInt8 — half the resident activation
	// bytes for the dominant buffer.
	if e.Policy == PolicyInt8 {
		a.hidden8 = make([]int8, maxHidden)
	} else {
		a.hidden = make([]int16, maxHidden)
	}
	if parallel && maxWork >= parallelThreshold {
		if n := runtime.GOMAXPROCS(0) - 1; n > 0 {
			if n > maxShardWorkers {
				n = maxShardWorkers
			}
			a.workers = n
		}
	}
	return a
}

// bytes reports the arena's total scratch footprint — the steady-state
// activation memory of the integer path, surfaced through
// Engine.ScratchBytes and the telemetry ArenaBytes gauge.
func (a *arena) bytes() int64 {
	n := len(a.imgA) + len(a.imgB) + len(a.cols) + len(a.hidden8) +
		len(a.pooled) + len(a.z8) + len(a.xPad)
	n += 2 * (len(a.hidden) + len(a.z16) + len(a.wv) + len(a.denseHid))
	n += 4 * (len(a.acc) + len(a.out))
	n += 8 * len(a.scores)
	return int64(n)
}

// ensureWorkers starts the persistent shard goroutines on first use. They
// hold only the channels (never the arena), so once the arena is garbage
// the finalizer closes work and the pool unwinds.
func (a *arena) ensureWorkers() {
	if a.work != nil {
		return
	}
	a.work = make(chan shardJob, a.workers)
	a.done = make(chan struct{}, a.workers)
	for i := 0; i < a.workers; i++ {
		go shardWorker(a.work, a.done)
	}
	runtime.SetFinalizer(a, func(a *arena) { close(a.work) })
}

func shardWorker(work chan shardJob, done chan struct{}) {
	for j := range work {
		j.run()
		done <- struct{}{}
	}
}

// runShards splits rows [0,n) across the worker pool plus the calling
// goroutine, blocking until every shard finishes. No allocation: jobs are
// channel values, the caller runs the first shard itself.
func (a *arena) runShards(job shardJob, n int) {
	a.ensureWorkers()
	parts := a.workers + 1
	chunk := (n + parts - 1) / parts
	sent := 0
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		j := job
		j.lo, j.hi = lo, hi
		a.work <- j
		sent++
	}
	job.lo = 0
	job.hi = chunk
	if job.hi > n {
		job.hi = n
	}
	job.run()
	for i := 0; i < sent; i++ {
		<-a.done
	}
}
