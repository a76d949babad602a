package deploy

// Cost is the engine's per-inference operation budget, computed from the
// packed weights actually deployed. Because the engine counts nonzero
// ternary entries from its own packed matrices, it cross-validates the
// analytic accounting in internal/opcount (whose AddsNNZ column must agree).
type Cost struct {
	Muls int64 // fixed-point multiplies (the â and requantisation scalings)
	Adds int64 // ternary-matrix additions (one per nonzero entry per position)
}

// nnzPacked counts nonzero ternary entries in a packed blob holding n
// values.
func nnzPacked(packed []byte, n int) int64 {
	var count int64
	for i := 0; i < n; i++ {
		if (packed[i/4]>>(uint(i%4)*2))&0b11 != 0 {
			count++
		}
	}
	return count
}

// CostReport walks the engine's layers for the given input geometry and
// returns the total multiplication and addition counts per inference,
// mirroring the paper's accounting (one multiplication per SPN hidden unit
// per output position; one addition per nonzero ternary entry per output
// position; requantisation multiplies counted as muls).
func (e *Engine) CostReport() Cost {
	var c Cost
	h, w := int(e.Frames), int(e.Coeffs)
	for _, conv := range e.Convs {
		oh, ow := conv.outSize(h, w)
		nOut := int64(oh) * int64(ow)
		switch conv.Kind {
		case kindStandard:
			k := int(conv.Cin * conv.KH * conv.KW)
			c.Adds += nnzPacked(conv.WbPacked, int(conv.R)*k) * nOut
			c.Adds += nnzPacked(conv.WcPacked, int(conv.Cout*conv.R)) * nOut
			c.Muls += int64(conv.R) * nOut
		case kindDepthwise:
			k := int(conv.KH * conv.KW)
			c.Adds += nnzPacked(conv.WbPacked, int(conv.Cin*conv.R)*k) * nOut
			c.Adds += nnzPacked(conv.WcPacked, int(conv.Cin*conv.R)) * nOut
			c.Muls += int64(conv.Cin) * int64(conv.R) * nOut
		}
		h, w = oh, ow
	}
	// Tree: the projection plus every node (the float model computes all
	// nodes branch-free, and the indicator path adds no matmuls).
	dense := func(q *QDense) {
		c.Adds += nnzPacked(q.WbPacked, int(q.R*q.In))
		c.Adds += nnzPacked(q.WcPacked, int(q.Out*q.R))
		c.Muls += int64(q.R)
	}
	dense(e.Tree.Z)
	for k := range e.Tree.W {
		dense(e.Tree.W[k])
		dense(e.Tree.V[k])
	}
	// θ dot products are sign-only MACs over the projection dimension;
	// counted as adds like the paper's ternary combinations.
	c.Adds += int64(len(e.Tree.Theta))
	return c
}
