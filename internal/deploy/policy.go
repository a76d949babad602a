package deploy

import (
	"bytes"
	"fmt"
)

// Policy selects the engine's activation bit-width assignment, mirroring the
// paper's Table 6 deployment variants. It only changes how activations are
// stored between layers — weights stay 2-bit ternary and accumulation stays
// int32 under both policies.
type Policy uint8

const (
	// PolicyMixed is the paper's mixed 8/16-bit policy and the default: conv
	// outputs and the tree projection ẑ are int8, while the strassenified
	// hidden planes (the â intermediates, including the depthwise-separable
	// ones) are int16. v1/v2 artifacts, which predate the policy byte,
	// load as PolicyMixed — their numerics are unchanged.
	PolicyMixed Policy = iota
	// PolicyInt8 stores the conv backbone's hidden planes as int8 as well —
	// the paper's fully-8-bit activation variant. The Bonsai tree is shared:
	// its projection is int8 under both policies and its tiny per-node maps
	// keep their int16 hidden scratch (registers, not planes).
	PolicyInt8
)

// String names the policy with the paper's terminology.
func (p Policy) String() string {
	switch p {
	case PolicyMixed:
		return "mixed 8/16-bit activations"
	case PolicyInt8:
		return "fully 8-bit activations"
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// valid reports whether p names a known policy (used by Validate and the v3
// reader: an artifact byte outside the known range is corruption, not a
// future feature).
func (p Policy) valid() bool { return p <= PolicyInt8 }

// CalibEntry records one calibrated activation site: where it sits in the
// pipeline, the bit width the stored (mixed) policy assigns it, and the
// quantisation step chosen from the calibration batch. The table is written
// into .thnt v3 artifacts so a deployment can audit the requantisation
// constants against the calibration that produced them; v1/v2 artifacts
// carry no table (Calib stays nil).
type CalibEntry struct {
	Site  string  // "input", "conv3.hidden", "conv3.out", "tree.z8", ...
	Bits  uint8   // activation bits at this site under the mixed policy
	Scale float32 // quantisation step (value of one integer count)
}

// calibTable derives the activation-site table from the engine's stored
// scales. Compile and SyntheticEngine call it so every freshly built engine
// serialises a v3 scale table without the builders duplicating the layout.
func (e *Engine) calibTable() []CalibEntry {
	c := []CalibEntry{{Site: "input", Bits: 8, Scale: e.InScale}}
	for i, q := range e.Convs {
		c = append(c,
			CalibEntry{Site: fmt.Sprintf("conv%d.hidden", i), Bits: 16, Scale: q.HidScale},
			CalibEntry{Site: fmt.Sprintf("conv%d.out", i), Bits: 8, Scale: q.OutScale},
		)
	}
	c = append(c,
		CalibEntry{Site: "tree.z16", Bits: 16, Scale: e.Tree.Z.OutScale},
		CalibEntry{Site: "tree.z8", Bits: 8, Scale: e.Tree.ZScale},
		CalibEntry{Site: "tree.w", Bits: 16, Scale: e.Tree.WScale},
	)
	return c
}

// The fully-8-bit requantisation constants are derived from the stored
// mixed-policy multipliers. The int8 hidden grid reuses the calibrated range
// (hidScale8 = hidScale16 · 32767/127), so the hidden multiplier shrinks by
// 127/32767 and the output multiplier grows by the inverse — the product,
// and therefore the output scale, is unchanged. Deriving instead of storing
// keeps v1/v2 artifacts fully usable under PolicyInt8, and the derivation is
// deterministic so serialisation stays byte-exact.
const (
	hidToI8 = 127.0 / 32767.0
	i8ToHid = 32767.0 / 127.0
)

// act8Mults derives one fully-8-bit multiplier set, each of ms scaled by k:
// an int8 engine's compileKernels keeps it, the oracle derives its own.
func act8Mults(ms []Mult, k float64) []Mult {
	out := make([]Mult, len(ms))
	for i, m := range ms {
		out[i] = NewMult(m.Float() * k)
	}
	return out
}

// hidBounds is the clamp of a hidden plane under policy p: int16 under the
// mixed policy, int8 under PolicyInt8.
func hidBounds(p Policy) (lo, hi int32) {
	if p == PolicyInt8 {
		return -128, 127
	}
	return -32768, 32767
}

// WithPolicy returns a new engine at policy p: e written as .thnt v3 with
// policy byte p and read back by ReadEngine, which validates it (an unknown
// p is ErrCorrupt) and compiles it at p. It only reads e, and the new engine
// shares no state with e and carries no observer.
func (e *Engine) WithPolicy(p Policy) (*Engine, error) {
	var buf bytes.Buffer
	if _, err := e.writeVersion(&buf, formatVersion, p); err != nil {
		return nil, err
	}
	return ReadEngine(&buf)
}
