package deploy

import (
	"errors"
	"fmt"
	"math"
)

// Typed load/validation errors. Every rejection of a model artifact wraps one
// of these sentinels, so callers can distinguish transport corruption from
// structural inconsistency and react (retry, fall back to the float model,
// refuse to flash) without string matching.
var (
	// ErrCorrupt marks artifacts that cannot be parsed at all: bad magic,
	// short reads, counts or dimensions outside their representable range.
	ErrCorrupt = errors.New("deploy: corrupt model")
	// ErrChecksum marks artifacts whose section checksum does not match the
	// payload — flash rot, truncated transfer, bit flips.
	ErrChecksum = errors.New("deploy: checksum mismatch")
	// ErrShapeMismatch marks artifacts that parse but whose tensors disagree
	// with each other (packed lengths vs dims, multiplier counts vs channels,
	// broken layer chain).
	ErrShapeMismatch = errors.New("deploy: shape mismatch")
)

// Validation bounds. Dimensions beyond these cannot come from a sane compile
// (the paper's models are kilobytes) and would make the size products below
// overflow or let a hostile header demand huge allocations.
const (
	maxDim          = 1 << 14 // per-axis bound for Cin/Cout/KH/KW/R/In/Out
	maxPad          = 1 << 12
	maxElems        = 1 << 24 // bound on any single weight-matrix element count
	maxHidUnits     = 1 << 20 // bound on per-layer multiplier arrays
	maxTreeDepth    = 12
	maxCalibEntries = 4096 // v3 calibration table rows
	maxCalibSite    = 64   // bytes per calibration site name
)

// mulDims multiplies non-negative dimensions, failing on overflow or when the
// product exceeds maxElems — the guard that keeps Cin·R·KH·KW from wrapping
// int or driving a multi-GB unpack allocation.
func mulDims(dims ...int32) (int64, error) {
	p := int64(1)
	for _, d := range dims {
		if d < 0 {
			return 0, fmt.Errorf("%w: negative dimension %d", ErrCorrupt, d)
		}
		p *= int64(d)
		if p > maxElems {
			return 0, fmt.Errorf("%w: dimension product exceeds %d elements", ErrCorrupt, maxElems)
		}
	}
	return p, nil
}

// packedLen returns the exact packed byte length of n ternary values.
func packedLen(n int64) int { return int((n + 3) / 4) }

// checkPacked verifies a packed blob holds exactly n ternary values.
func checkPacked(name string, blob []byte, n int64) error {
	if len(blob) != packedLen(n) {
		return fmt.Errorf("%w: %s packed length %d, want %d for %d weights",
			ErrShapeMismatch, name, len(blob), packedLen(n), n)
	}
	return nil
}

// wbCount/wcCount return the expected ternary weight counts of a QConv.
func (q *QConv) wbCount() (int64, error) {
	if q.Kind == kindDepthwise {
		return mulDims(q.Cin, q.R, q.KH, q.KW)
	}
	return mulDims(q.R, q.Cin, q.KH, q.KW)
}

func (q *QConv) wcCount() (int64, error) {
	if q.Kind == kindDepthwise {
		return mulDims(q.Cin, q.R)
	}
	return mulDims(q.Cout, q.R)
}

// validate cross-checks one quantised convolution: positive dims within
// range, overflow-safe size products, packed lengths consistent with the
// dims, multiplier/bias counts matching channel counts.
func (q *QConv) validate(name string) error {
	if q.Kind != kindStandard && q.Kind != kindDepthwise {
		return fmt.Errorf("%w: %s has unknown kind %q", ErrCorrupt, name, q.Kind)
	}
	for _, d := range []struct {
		n string
		v int32
	}{
		{"Cin", q.Cin}, {"Cout", q.Cout}, {"KH", q.KH}, {"KW", q.KW},
		{"Stride", q.Stride}, {"R", q.R},
	} {
		if d.v < 1 || d.v > maxDim {
			return fmt.Errorf("%w: %s %s=%d outside [1,%d]", ErrCorrupt, name, d.n, d.v, maxDim)
		}
	}
	if q.PadH < 0 || q.PadH > maxPad || q.PadW < 0 || q.PadW > maxPad {
		return fmt.Errorf("%w: %s pad (%d,%d) outside [0,%d]", ErrCorrupt, name, q.PadH, q.PadW, maxPad)
	}
	if q.Kind == kindDepthwise && q.Cout != q.Cin {
		return fmt.Errorf("%w: %s depthwise Cout %d != Cin %d", ErrShapeMismatch, name, q.Cout, q.Cin)
	}
	nb, err := q.wbCount()
	if err != nil {
		return fmt.Errorf("%s Wb: %w", name, err)
	}
	nc, err := q.wcCount()
	if err != nil {
		return fmt.Errorf("%s Wc: %w", name, err)
	}
	if err := checkPacked(name+" Wb", q.WbPacked, nb); err != nil {
		return err
	}
	if err := checkPacked(name+" Wc", q.WcPacked, nc); err != nil {
		return err
	}
	hidUnits := int64(q.R)
	if q.Kind == kindDepthwise {
		hidUnits = int64(q.Cin) * int64(q.R)
	}
	if hidUnits > maxHidUnits {
		return fmt.Errorf("%w: %s has %d hidden units, max %d", ErrCorrupt, name, hidUnits, maxHidUnits)
	}
	if int64(len(q.HidMul)) != hidUnits {
		return fmt.Errorf("%w: %s has %d hidden multipliers, want %d", ErrShapeMismatch, name, len(q.HidMul), hidUnits)
	}
	if int64(len(q.OutMul)) != int64(q.Cout) {
		return fmt.Errorf("%w: %s has %d output multipliers, want %d channels", ErrShapeMismatch, name, len(q.OutMul), q.Cout)
	}
	if int64(len(q.OutBias)) != int64(q.Cout) {
		return fmt.Errorf("%w: %s has %d biases, want %d channels", ErrShapeMismatch, name, len(q.OutBias), q.Cout)
	}
	return nil
}

// validate cross-checks one quantised dense map.
func (q *QDense) validate(name string) error {
	for _, d := range []struct {
		n string
		v int32
	}{{"In", q.In}, {"Out", q.Out}, {"R", q.R}} {
		if d.v < 1 || d.v > maxDim {
			return fmt.Errorf("%w: %s %s=%d outside [1,%d]", ErrCorrupt, name, d.n, d.v, maxDim)
		}
	}
	nb, err := mulDims(q.R, q.In)
	if err != nil {
		return fmt.Errorf("%s Wb: %w", name, err)
	}
	nc, err := mulDims(q.Out, q.R)
	if err != nil {
		return fmt.Errorf("%s Wc: %w", name, err)
	}
	if err := checkPacked(name+" Wb", q.WbPacked, nb); err != nil {
		return err
	}
	if err := checkPacked(name+" Wc", q.WcPacked, nc); err != nil {
		return err
	}
	if int64(len(q.HidMul)) != int64(q.R) {
		return fmt.Errorf("%w: %s has %d hidden multipliers, want %d", ErrShapeMismatch, name, len(q.HidMul), q.R)
	}
	return nil
}

// Validate cross-checks the whole engine before any unpack allocation: every
// layer's internal consistency, the conv chain's channel/spatial propagation
// from the declared input image down to the tree projection, and the tree's
// node/θ/LUT layout. A nil error means Infer cannot index out of bounds.
func (e *Engine) Validate() error {
	if e.Frames < 1 || e.Frames > maxDim || e.Coeffs < 1 || e.Coeffs > maxDim {
		return fmt.Errorf("%w: input image %d×%d", ErrCorrupt, e.Frames, e.Coeffs)
	}
	if len(e.Convs) == 0 {
		return fmt.Errorf("%w: no convolutions", ErrShapeMismatch)
	}
	h, w := int(e.Frames), int(e.Coeffs)
	cin := int32(1)
	for i, q := range e.Convs {
		name := fmt.Sprintf("conv[%d]", i)
		if q == nil {
			return fmt.Errorf("%w: %s missing", ErrShapeMismatch, name)
		}
		if err := q.validate(name); err != nil {
			return err
		}
		if q.Cin != cin {
			return fmt.Errorf("%w: %s Cin %d, previous layer emits %d channels", ErrShapeMismatch, name, q.Cin, cin)
		}
		oh, ow := q.outSize(h, w)
		if oh < 1 || ow < 1 {
			return fmt.Errorf("%w: %s collapses %d×%d to %d×%d", ErrShapeMismatch, name, h, w, oh, ow)
		}
		if int(q.KH) > h+2*int(q.PadH) || int(q.KW) > w+2*int(q.PadW) {
			return fmt.Errorf("%w: %s kernel %d×%d larger than padded input %d×%d", ErrShapeMismatch, name, q.KH, q.KW, h+2*int(q.PadH), w+2*int(q.PadW))
		}
		h, w, cin = oh, ow, q.Cout
	}
	if e.PoolK < 1 || e.PoolS < 1 {
		return fmt.Errorf("%w: pool k=%d s=%d", ErrCorrupt, e.PoolK, e.PoolS)
	}
	if int(e.PoolK) > h || int(e.PoolK) > w {
		return fmt.Errorf("%w: pool window %d larger than feature map %d×%d", ErrShapeMismatch, e.PoolK, h, w)
	}
	ph := (h-int(e.PoolK))/int(e.PoolS) + 1
	pw := (w-int(e.PoolK))/int(e.PoolS) + 1
	flat := int64(cin) * int64(ph) * int64(pw)

	t := e.Tree
	if t == nil {
		return fmt.Errorf("%w: missing tree", ErrShapeMismatch)
	}
	if t.Depth < 0 || t.Depth > maxTreeDepth {
		return fmt.Errorf("%w: tree depth %d outside [0,%d]", ErrCorrupt, t.Depth, maxTreeDepth)
	}
	if t.ProjDim < 1 || t.ProjDim > maxDim || t.NumClasses < 1 || t.NumClasses > maxDim {
		return fmt.Errorf("%w: tree projDim=%d classes=%d", ErrCorrupt, t.ProjDim, t.NumClasses)
	}
	if t.Z == nil {
		return fmt.Errorf("%w: missing tree projection", ErrShapeMismatch)
	}
	if err := t.Z.validate("tree.Z"); err != nil {
		return err
	}
	if int64(t.Z.In) != flat {
		return fmt.Errorf("%w: tree.Z reads %d features, conv stack emits %d", ErrShapeMismatch, t.Z.In, flat)
	}
	if t.Z.Out != t.ProjDim {
		return fmt.Errorf("%w: tree.Z emits %d dims, projDim is %d", ErrShapeMismatch, t.Z.Out, t.ProjDim)
	}
	nInt := int64(t.numInternal())
	nNodes := 2*nInt + 1 // internal nodes plus leaves, as Forward walks them
	if nInt*int64(t.ProjDim) > maxElems {
		return fmt.Errorf("%w: θ would hold %d entries, max %d", ErrCorrupt, nInt*int64(t.ProjDim), maxElems)
	}
	if int64(len(t.Theta)) != nInt*int64(t.ProjDim) {
		return fmt.Errorf("%w: θ has %d entries, want %d", ErrShapeMismatch, len(t.Theta), nInt*int64(t.ProjDim))
	}
	if int64(len(t.W)) != nNodes || int64(len(t.V)) != nNodes {
		return fmt.Errorf("%w: tree has %d W / %d V nodes, want %d", ErrShapeMismatch, len(t.W), len(t.V), nNodes)
	}
	for k := range t.W {
		for _, nd := range []struct {
			n string
			q *QDense
		}{{fmt.Sprintf("tree.W[%d]", k), t.W[k]}, {fmt.Sprintf("tree.V[%d]", k), t.V[k]}} {
			if nd.q == nil {
				return fmt.Errorf("%w: %s missing", ErrShapeMismatch, nd.n)
			}
			if err := nd.q.validate(nd.n); err != nil {
				return err
			}
			if nd.q.In != t.ProjDim {
				return fmt.Errorf("%w: %s reads %d dims, projection emits %d", ErrShapeMismatch, nd.n, nd.q.In, t.ProjDim)
			}
			if nd.q.Out != t.NumClasses {
				return fmt.Errorf("%w: %s emits %d scores, want %d classes", ErrShapeMismatch, nd.n, nd.q.Out, t.NumClasses)
			}
		}
	}
	if len(t.TanhLUT) != 1<<tanhLUTBits {
		return fmt.Errorf("%w: tanh LUT has %d entries, want %d", ErrShapeMismatch, len(t.TanhLUT), 1<<tanhLUTBits)
	}
	if !e.Policy.valid() {
		return fmt.Errorf("%w: unknown activation policy %d", ErrCorrupt, uint8(e.Policy))
	}
	if len(e.Calib) > maxCalibEntries {
		return fmt.Errorf("%w: calibration table has %d entries, max %d", ErrCorrupt, len(e.Calib), maxCalibEntries)
	}
	for i, c := range e.Calib {
		if c.Site == "" || len(c.Site) > maxCalibSite {
			return fmt.Errorf("%w: calib[%d] site name length %d outside [1,%d]", ErrCorrupt, i, len(c.Site), maxCalibSite)
		}
		if c.Bits != 8 && c.Bits != 16 {
			return fmt.Errorf("%w: calib[%d] (%s) has %d activation bits, want 8 or 16", ErrCorrupt, i, c.Site, c.Bits)
		}
		// NaN fails both comparisons below, so it is rejected too.
		if !(c.Scale >= 0) || c.Scale > math.MaxFloat32/2 {
			return fmt.Errorf("%w: calib[%d] (%s) scale %v is not a finite non-negative value", ErrCorrupt, i, c.Site, c.Scale)
		}
	}
	return nil
}

// InferSafe is the always-on wrapper around Infer: it validates the input
// length up front and converts any engine panic (a corrupt-but-plausible
// model, an internal bug) into an error instead of killing the process.
// Like Infer it runs on the engine's resident arena — zero steady-state
// allocations, scores valid until the next call, not concurrency-safe
// (use InferBatch for concurrent callers).
func (e *Engine) InferSafe(x []float32) (scores []int32, class int, err error) {
	defer func() {
		if r := recover(); r != nil {
			e.obs.fault()
			scores, class, err = nil, -1, fmt.Errorf("deploy: inference panic: %v", r)
		}
	}()
	if want := int(e.Frames) * int(e.Coeffs); len(x) != want {
		e.obs.fault()
		return nil, -1, fmt.Errorf("%w: input length %d, want %d", ErrShapeMismatch, len(x), want)
	}
	s, c := e.Infer(x)
	return s, c, nil
}
