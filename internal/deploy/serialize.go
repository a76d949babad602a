package deploy

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
)

// Binary model format ("THNT"): a compact little-endian layout holding the
// packed ternary matrices, fixed-point multipliers and integer biases — the
// artifact a microcontroller runtime would consume. All integers are
// little-endian; lengths precede variable-size fields.
//
// Version 2 appends a CRC32 (IEEE) of the body (everything after the magic
// and version words) so flash rot and truncated transfers are detected
// before the model is trusted. Version 3 inserts, between the v2 body and
// the CRC trailer (so the checksum covers it), the activation policy byte
// and the per-site calibration table — the scales the requantisation
// multipliers were folded from, carried for deployment audits. Versions 1
// and 2 remain readable (they load as PolicyMixed with a nil table); all
// versions get the same structural validation on load.

var magic = [4]byte{'T', 'H', 'N', 'T'}

const (
	formatVersion  = 3
	minReadVersion = 1
)

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (cw *countingWriter) write(v any) {
	if cw.err != nil {
		return
	}
	cw.err = binary.Write(cw.w, binary.LittleEndian, v)
	if cw.err == nil {
		cw.n += int64(binary.Size(v))
	}
}

func (cw *countingWriter) writeBytes(b []byte) {
	cw.write(int32(len(b)))
	if cw.err != nil {
		return
	}
	m, err := cw.w.Write(b)
	cw.n += int64(m)
	cw.err = err
}

type reader struct {
	r   io.Reader
	err error
}

func (rd *reader) read(v any) {
	if rd.err != nil {
		return
	}
	if err := binary.Read(rd.r, binary.LittleEndian, v); err != nil {
		rd.err = fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
}

// fail records the first error, wrapping sentinel err with a detail message.
func (rd *reader) fail(sentinel error, format string, args ...any) {
	if rd.err == nil {
		rd.err = fmt.Errorf("%w: %s", sentinel, fmt.Sprintf(format, args...))
	}
}

// readPacked reads a length-prefixed packed-ternary blob that must hold
// exactly want ternary weights. Requiring the exact length up front means a
// corrupt length field is rejected before any allocation larger than the
// dims justify.
func (rd *reader) readPacked(name string, want int64) []byte {
	var n int32
	rd.read(&n)
	if rd.err != nil {
		return nil
	}
	if int64(n) != int64(packedLen(want)) {
		rd.fail(ErrShapeMismatch, "%s packed length %d, want %d for %d weights", name, n, packedLen(want), want)
		return nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(rd.r, b); err != nil {
		rd.fail(ErrCorrupt, "reading %s: %v", name, err)
		return nil
	}
	return b
}

func writeMults(cw *countingWriter, ms []Mult) {
	cw.write(int32(len(ms)))
	for _, m := range ms {
		cw.write(m.Mant)
		cw.write(m.Shift)
	}
}

// readMults reads a multiplier array that must hold exactly want entries.
func readMults(rd *reader, name string, want int64) []Mult {
	var n int32
	rd.read(&n)
	if rd.err != nil {
		return nil
	}
	if int64(n) != want {
		rd.fail(ErrShapeMismatch, "%s has %d multipliers, want %d", name, n, want)
		return nil
	}
	ms := make([]Mult, n)
	for i := range ms {
		rd.read(&ms[i].Mant)
		rd.read(&ms[i].Shift)
	}
	return ms
}

// checkRange rejects an out-of-range dimension at read time, before it can
// reach a size product or an allocation.
func (rd *reader) checkRange(name string, v, lo, hi int32) {
	if rd.err == nil && (v < lo || v > hi) {
		rd.fail(ErrCorrupt, "%s=%d outside [%d,%d]", name, v, lo, hi)
	}
}

func writeConv(cw *countingWriter, q *QConv) {
	cw.write(q.Kind)
	for _, v := range []int32{q.Cin, q.Cout, q.KH, q.KW, q.Stride, q.PadH, q.PadW, q.R} {
		cw.write(v)
	}
	cw.writeBytes(q.WbPacked)
	cw.writeBytes(q.WcPacked)
	writeMults(cw, q.HidMul)
	writeMults(cw, q.OutMul)
	cw.write(int32(len(q.OutBias)))
	for _, b := range q.OutBias {
		cw.write(b)
	}
	relu := byte(0)
	if q.ReLU {
		relu = 1
	}
	cw.write(relu)
	cw.write(math.Float32bits(q.InScale))
	cw.write(math.Float32bits(q.HidScale))
	cw.write(math.Float32bits(q.OutScale))
}

func readConv(rd *reader, name string) *QConv {
	q := &QConv{}
	rd.read(&q.Kind)
	for _, p := range []*int32{&q.Cin, &q.Cout, &q.KH, &q.KW, &q.Stride, &q.PadH, &q.PadW, &q.R} {
		rd.read(p)
	}
	if rd.err == nil && q.Kind != kindStandard && q.Kind != kindDepthwise {
		rd.fail(ErrCorrupt, "%s has unknown kind %q", name, q.Kind)
	}
	for _, d := range []struct {
		n string
		v int32
	}{
		{"Cin", q.Cin}, {"Cout", q.Cout}, {"KH", q.KH}, {"KW", q.KW},
		{"Stride", q.Stride}, {"R", q.R},
	} {
		rd.checkRange(name+" "+d.n, d.v, 1, maxDim)
	}
	rd.checkRange(name+" PadH", q.PadH, 0, maxPad)
	rd.checkRange(name+" PadW", q.PadW, 0, maxPad)
	if rd.err != nil {
		return q
	}
	nb, err := q.wbCount()
	if err != nil {
		rd.err = fmt.Errorf("%s Wb: %w", name, err)
		return q
	}
	nc, err := q.wcCount()
	if err != nil {
		rd.err = fmt.Errorf("%s Wc: %w", name, err)
		return q
	}
	q.WbPacked = rd.readPacked(name+" Wb", nb)
	q.WcPacked = rd.readPacked(name+" Wc", nc)
	hidUnits := int64(q.R)
	if q.Kind == kindDepthwise {
		hidUnits = int64(q.Cin) * int64(q.R)
	}
	if rd.err == nil && hidUnits > maxHidUnits {
		rd.fail(ErrCorrupt, "%s has %d hidden units, max %d", name, hidUnits, maxHidUnits)
	}
	q.HidMul = readMults(rd, name+" HidMul", hidUnits)
	q.OutMul = readMults(rd, name+" OutMul", int64(q.Cout))
	var nbias int32
	rd.read(&nbias)
	if rd.err == nil && nbias != q.Cout {
		rd.fail(ErrShapeMismatch, "%s has %d biases, want %d channels", name, nbias, q.Cout)
	}
	if rd.err != nil {
		return q
	}
	q.OutBias = make([]int32, nbias)
	for i := range q.OutBias {
		rd.read(&q.OutBias[i])
	}
	var relu byte
	rd.read(&relu)
	q.ReLU = relu == 1
	var bits uint32
	rd.read(&bits)
	q.InScale = math.Float32frombits(bits)
	rd.read(&bits)
	q.HidScale = math.Float32frombits(bits)
	rd.read(&bits)
	q.OutScale = math.Float32frombits(bits)
	return q
}

func writeDense(cw *countingWriter, q *QDense) {
	cw.write(q.In)
	cw.write(q.Out)
	cw.write(q.R)
	cw.writeBytes(q.WbPacked)
	cw.writeBytes(q.WcPacked)
	writeMults(cw, q.HidMul)
	cw.write(q.OutMul.Mant)
	cw.write(q.OutMul.Shift)
	cw.write(math.Float32bits(q.OutScale))
}

func readDense(rd *reader, name string) *QDense {
	q := &QDense{}
	rd.read(&q.In)
	rd.read(&q.Out)
	rd.read(&q.R)
	rd.checkRange(name+" In", q.In, 1, maxDim)
	rd.checkRange(name+" Out", q.Out, 1, maxDim)
	rd.checkRange(name+" R", q.R, 1, maxDim)
	if rd.err != nil {
		return q
	}
	nb, err := mulDims(q.R, q.In)
	if err != nil {
		rd.err = fmt.Errorf("%s Wb: %w", name, err)
		return q
	}
	nc, err := mulDims(q.Out, q.R)
	if err != nil {
		rd.err = fmt.Errorf("%s Wc: %w", name, err)
		return q
	}
	q.WbPacked = rd.readPacked(name+" Wb", nb)
	q.WcPacked = rd.readPacked(name+" Wc", nc)
	q.HidMul = readMults(rd, name+" HidMul", int64(q.R))
	rd.read(&q.OutMul.Mant)
	rd.read(&q.OutMul.Shift)
	var bits uint32
	rd.read(&bits)
	q.OutScale = math.Float32frombits(bits)
	return q
}

// writeBody serialises everything after the magic/version header.
func (e *Engine) writeBody(cw *countingWriter) {
	cw.write(e.Frames)
	cw.write(e.Coeffs)
	cw.write(math.Float32bits(e.InScale))
	cw.write(int32(len(e.Convs)))
	for _, c := range e.Convs {
		writeConv(cw, c)
	}
	cw.write(e.PoolK)
	cw.write(e.PoolS)
	t := e.Tree
	cw.write(t.Depth)
	cw.write(t.ProjDim)
	cw.write(t.NumClasses)
	writeDense(cw, t.Z)
	cw.write(t.ZQ.Mant)
	cw.write(t.ZQ.Shift)
	cw.write(math.Float32bits(t.ZScale))
	cw.write(int32(len(t.Theta)))
	for _, th := range t.Theta {
		cw.write(th)
	}
	cw.write(int32(len(t.W)))
	for k := range t.W {
		writeDense(cw, t.W[k])
		writeDense(cw, t.V[k])
	}
	cw.write(int32(len(t.TanhLUT)))
	for _, v := range t.TanhLUT {
		cw.write(v)
	}
	cw.write(math.Float32bits(t.WScale))
}

// writeV3 serialises the version-3 section: the activation policy byte p and
// the length-prefixed calibration table. It sits inside the CRC-covered
// region, after the v2 body.
func (e *Engine) writeV3(cw *countingWriter, p Policy) {
	cw.write(byte(p))
	cw.write(int32(len(e.Calib)))
	for _, c := range e.Calib {
		cw.writeBytes([]byte(c.Site))
		cw.write(c.Bits)
		cw.write(math.Float32bits(c.Scale))
	}
}

// readV3 deserialises the version-3 section into e, bounds-checking every
// count before its allocation like the rest of the reader.
func readV3(rd *reader, e *Engine) {
	var pb byte
	rd.read(&pb)
	e.Policy = Policy(pb)
	if rd.err == nil && !e.Policy.valid() {
		rd.fail(ErrCorrupt, "unknown activation policy %d", pb)
	}
	var n int32
	rd.read(&n)
	rd.checkRange("calibration entries", n, 0, maxCalibEntries)
	if rd.err != nil || n == 0 {
		return
	}
	e.Calib = make([]CalibEntry, 0, n)
	for i := int32(0); i < n && rd.err == nil; i++ {
		var sl int32
		rd.read(&sl)
		rd.checkRange(fmt.Sprintf("calib[%d] site length", i), sl, 1, maxCalibSite)
		if rd.err != nil {
			return
		}
		site := make([]byte, sl)
		if _, err := io.ReadFull(rd.r, site); err != nil {
			rd.fail(ErrCorrupt, "reading calib[%d] site: %v", i, err)
			return
		}
		var c CalibEntry
		c.Site = string(site)
		rd.read(&c.Bits)
		var bits uint32
		rd.read(&bits)
		c.Scale = math.Float32frombits(bits)
		e.Calib = append(e.Calib, c)
	}
}

// WriteTo serialises the engine in the current format version. It implements
// io.WriterTo.
func (e *Engine) WriteTo(w io.Writer) (int64, error) {
	return e.WriteToVersion(w, formatVersion)
}

// WriteToVersion serialises the engine in an explicit format version —
// 1 (no checksum), 2 (CRC32 trailer) or 3 (policy + calibration table under
// the checksum). Older versions simply drop the newer sections; the v1/v2/v3
// round-trip matrix in the tests and ci.sh pins the compatibility story.
func (e *Engine) WriteToVersion(w io.Writer, version int32) (int64, error) {
	return e.writeVersion(w, version, e.Policy)
}

// writeVersion is WriteToVersion with the v3 policy byte given as p.
func (e *Engine) writeVersion(w io.Writer, version int32, p Policy) (int64, error) {
	if version < minReadVersion || version > formatVersion {
		return 0, fmt.Errorf("deploy: cannot write format version %d (supported: %d..%d)", version, minReadVersion, formatVersion)
	}
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}
	cw.write(magic)
	cw.write(version)
	if version >= 2 {
		crc := crc32.NewIEEE()
		cw.w = io.MultiWriter(bw, crc)
		e.writeBody(cw)
		if version >= 3 {
			e.writeV3(cw, p)
		}
		cw.w = bw
		cw.write(crc.Sum32())
	} else {
		e.writeBody(cw)
	}
	if cw.err != nil {
		return cw.n, cw.err
	}
	return cw.n, bw.Flush()
}

// readBody deserialises everything after the magic/version header.
func readBody(rd *reader) *Engine {
	e := &Engine{}
	rd.read(&e.Frames)
	rd.read(&e.Coeffs)
	var bits uint32
	rd.read(&bits)
	e.InScale = math.Float32frombits(bits)
	rd.checkRange("frames", e.Frames, 1, maxDim)
	rd.checkRange("coeffs", e.Coeffs, 1, maxDim)
	var nConv int32
	rd.read(&nConv)
	rd.checkRange("conv count", nConv, 1, 1024)
	for i := int32(0); i < nConv && rd.err == nil; i++ {
		e.Convs = append(e.Convs, readConv(rd, fmt.Sprintf("conv[%d]", i)))
	}
	rd.read(&e.PoolK)
	rd.read(&e.PoolS)
	t := &QTree{}
	rd.read(&t.Depth)
	rd.read(&t.ProjDim)
	rd.read(&t.NumClasses)
	rd.checkRange("tree depth", t.Depth, 0, maxTreeDepth)
	rd.checkRange("tree projDim", t.ProjDim, 1, maxDim)
	rd.checkRange("tree classes", t.NumClasses, 1, maxDim)
	if rd.err != nil {
		return e
	}
	t.Z = readDense(rd, "tree.Z")
	rd.read(&t.ZQ.Mant)
	rd.read(&t.ZQ.Shift)
	rd.read(&bits)
	t.ZScale = math.Float32frombits(bits)
	nInt := int64(t.numInternal())
	if rd.err == nil && nInt*int64(t.ProjDim) > maxElems {
		rd.fail(ErrCorrupt, "θ would hold %d entries, max %d", nInt*int64(t.ProjDim), maxElems)
	}
	var n int32
	rd.read(&n)
	if rd.err == nil && int64(n) != nInt*int64(t.ProjDim) {
		rd.fail(ErrShapeMismatch, "θ has %d entries, want %d", n, nInt*int64(t.ProjDim))
	}
	if rd.err != nil {
		e.Tree = t
		return e
	}
	t.Theta = make([]int16, n)
	for i := range t.Theta {
		rd.read(&t.Theta[i])
	}
	rd.read(&n)
	if rd.err == nil && int64(n) != 2*nInt+1 {
		rd.fail(ErrShapeMismatch, "tree has %d nodes, want %d", n, 2*nInt+1)
	}
	for i := int32(0); i < n && rd.err == nil; i++ {
		t.W = append(t.W, readDense(rd, fmt.Sprintf("tree.W[%d]", i)))
		t.V = append(t.V, readDense(rd, fmt.Sprintf("tree.V[%d]", i)))
	}
	rd.read(&n)
	if rd.err == nil && n != 1<<tanhLUTBits {
		rd.fail(ErrShapeMismatch, "tanh LUT has %d entries, want %d", n, 1<<tanhLUTBits)
	}
	if rd.err != nil {
		e.Tree = t
		return e
	}
	t.TanhLUT = make([]int16, n)
	for i := range t.TanhLUT {
		rd.read(&t.TanhLUT[i])
	}
	rd.read(&bits)
	t.WScale = math.Float32frombits(bits)
	e.Tree = t
	return e
}

// ReadEngine deserialises an engine written by WriteTo/WriteToVersion,
// accepting format versions 1 (legacy, no checksum), 2 (CRC32 trailer) and
// 3 (policy + calibration table). Every dimension is bounds-checked before
// the allocation it sizes, the v2+ checksum is verified against the body,
// and the result passes Validate before it is returned — a non-nil engine
// cannot panic in Infer. v1/v2 artifacts load as PolicyMixed with a nil
// calibration table. The engine comes back compiled at its policy; for one
// at another policy, use WithPolicy.
func ReadEngine(r io.Reader) (*Engine, error) {
	br := bufio.NewReader(r)
	rd := &reader{r: br}
	var m [4]byte
	rd.read(&m)
	if rd.err == nil && m != magic {
		return nil, fmt.Errorf("%w: bad magic, not a THNT model", ErrCorrupt)
	}
	var version int32
	rd.read(&version)
	if rd.err == nil && (version < minReadVersion || version > formatVersion) {
		return nil, fmt.Errorf("%w: unsupported format version %d", ErrCorrupt, version)
	}
	if rd.err != nil {
		return nil, rd.err
	}
	var crc hash.Hash32
	if version >= 2 {
		crc = crc32.NewIEEE()
		rd.r = io.TeeReader(br, crc)
	}
	e := readBody(rd)
	if version >= 3 {
		readV3(rd, e)
	}
	if rd.err != nil {
		return nil, rd.err
	}
	if version >= 2 {
		rd.r = br // the checksum word is not part of its own sum
		var stored uint32
		rd.read(&stored)
		if rd.err != nil {
			return nil, rd.err
		}
		if stored != crc.Sum32() {
			return nil, fmt.Errorf("%w: stored %08x, computed %08x", ErrChecksum, stored, crc.Sum32())
		}
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	// The artifact is structurally sound: unpack the ternaries and build the
	// sparse gather kernels now, so the first Infer pays no compilation cost
	// and load failures cannot hide until the hot path.
	e.ensureCompiled()
	return e, nil
}

// Size returns the serialised model size in bytes.
func (e *Engine) Size() int64 {
	n, _ := e.WriteTo(io.Discard)
	return n
}
