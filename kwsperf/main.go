// Command kwsperf is the repository's streaming keyword-spotting benchmark.
// It drives the public APIs of internal/stream, internal/serve, internal/dsp
// and internal/deploy with generated audio, checks every run's outputs
// against a reference, and prints one JSON result line:
//
//	kwsperf --workload stream-incremental|stream-full|serve-lanes \
//	        --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics (hop_ms_p50,
// cpu_ms_per_audio_s, heap_mb, setup_s); with --trace 1 it holds the
// per-layer metrics, measured from spans the harness records around its own
// calls into each layer. NOTES.md explains the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/deploy"
	"repro/internal/speechcmd"
)

// opts are the command-line settings one workload run receives.
type opts struct {
	seed    int64
	seconds int
	trace   bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// check records a failed output check on stderr and marks the run incorrect.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.Correct = false
		fmt.Fprintf(os.Stderr, "kwsperf: check failed: "+format+"\n", args...)
	}
}

// perLayer lists every per-layer metric with its unit. A trace run reports
// all of them; a metric whose layer does no such work on the workload reads
// 0 (NOTES.md lists which metrics apply where).
var perLayer = []struct{ name, unit string }{
	{"dsp.frames_per_hop", "count"},
	{"dsp.us_per_frame", "us"},
	{"dsp.allocs_per_hop", "count"},
	{"deploy.us_per_hop", "us"},
	{"deploy.columns_per_hop", "count"},
	{"deploy.hop_reuse_ratio", "ratio"},
	{"deploy.load_ms", "ms"},
	{"deploy.lane_batch_mean", "count"},
	{"deploy.lane_infer_ms_p50", "ms"},
	{"stream.self_us_per_hop", "us"},
	{"stream.hop_ms_p99", "ms"},
	{"serve.open_us_p50", "us"},
	{"serve.push_us_p50", "us"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.detect_ms_p50", "ms"},
	{"serve.lane_wait_ms_p50", "ms"},
	{"serve.reply_ms_p50", "ms"},
	{"serve.backpressure_rejects", "count"},
	{"serve.outstanding_max", "count"},
	{"serve.heap_kb_per_session", "KB"},
	{"serve.alloc_kb_per_hop", "KB"},
	{"serve.hop_ms_p99", "ms"},
	{"serve.gen_late_ms_p99", "ms"},
	{"telemetry.flight_events", "count"},
	{"trace.overhead_pct", "%"},
	{"ledger.closure_pct", "%"},
}

// ledgerTolerancePct is how far the traced run's per-layer self times may
// sum away from the untraced hop_ms_p50 of the same run.
const ledgerTolerancePct = 15

func main() {
	workload := flag.String("workload", "", "stream-incremental, stream-full or serve-lanes")
	seed := flag.Int64("seed", 1, "input seed: the generated audio is a pure function of it")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 records per-layer spans and reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "kwsperf: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1}

	var r *result
	var err error
	switch *workload {
	case "stream-incremental":
		r, err = runStream(o, true)
	case "stream-full":
		r, err = runStream(o, false)
	case "serve-lanes":
		r, err = runServe(o)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kwsperf:", err)
		os.Exit(1)
	}
	if o.trace {
		for _, m := range perLayer {
			if _, ok := r.Metrics[m.name]; !ok {
				r.set(m.name, 0, m.unit)
			}
		}
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-28s %14.6f %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kwsperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// epoch anchors the harness's monotonic nanosecond clock.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// engineArtifact is the .thnt bytes every workload decodes: the paper-shaped
// synthetic engine at the mixed 8/16-bit policy.
func engineArtifact() ([]byte, error) {
	e := deploy.SyntheticEngine(9, 0.35)
	e.Policy = deploy.PolicyMixed
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("serialising the synthetic engine: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeEngine is the load step a device performs: decode and validate.
func decodeEngine(art []byte) (*deploy.Engine, error) {
	e, err := deploy.ReadEngine(bytes.NewReader(art))
	if err != nil {
		return nil, fmt.Errorf("decoding the engine: %w", err)
	}
	if err := e.Validate(); err != nil {
		return nil, fmt.Errorf("validating the engine: %w", err)
	}
	return e, nil
}

// tape is the generated audio: a small pool of one-second utterances, cycling
// speechcmd.TargetWords, played back to back in a loop.
type tape struct {
	rate int
	pool [][]float64
}

func newTape(rate, clips int, seed int64) *tape {
	cfg := speechcmd.DefaultConfig()
	cfg.SampleRate = rate
	rng := rand.New(rand.NewSource(seed))
	t := &tape{rate: rate}
	for i := 0; i < clips; i++ {
		word := speechcmd.TargetWords[i%len(speechcmd.TargetWords)]
		t.pool = append(t.pool, speechcmd.SynthesizeUtterance(word, cfg, rng))
	}
	return t
}

// fill copies the samples at stream positions [pos, pos+len(dst)) into dst.
func (t *tape) fill(dst []float64, pos int64) {
	for len(dst) > 0 {
		clip := t.pool[(pos/int64(t.rate))%int64(len(t.pool))]
		n := copy(dst, clip[pos%int64(t.rate):])
		dst = dst[n:]
		pos += int64(n)
	}
}

// cpuNs is the process's user plus system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// liveHeap returns the heap bytes still reachable after two forced
// collections (the second also empties the sync.Pool victim caches).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(xs[lo])*(1-frac) + float64(xs[hi])*frac
}

// median is quantile(xs, 0.5) without reordering the caller's slice.
func median(xs []int64) float64 {
	return quantile(append([]int64(nil), xs...), 0.5)
}

func sameFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// windows splits a stream-* run into 250 ms sub-windows and keeps each
// window's median hop latency and CPU time per audio second.
//
// Host speed on a small shared VM drifts from moment to moment: a fixed
// frontend loop timed every 250 ms flips between about 0.5 and 0.85 ms, and
// a whole run inherits whatever mix of fast and slow moments it happens to
// get. Interference only ever adds time, so a closed-loop single-stream run
// reports its fastest window: the least disturbed estimate of the program's
// own cost, comparable between runs of equal length.
type windows struct {
	start int64
	from  int     // index of the open window's first latency sample
	cpu0  int64   // process CPU time at the open window's start
	audio float64 // audio seconds processed in the open window
	p50   []int64 // per-window median hop latency, ns
	cpu   []int64 // per-window CPU ns per audio second
}

const windowNs = int64(250 * time.Millisecond)

func (w *windows) open(from int) {
	w.start, w.from, w.cpu0, w.audio = nowNs(), from, cpuNs(), 0
}

func (w *windows) expired() bool { return nowNs()-w.start >= windowNs }

// close ends the open window; lat holds every latency sample of the run.
func (w *windows) close(lat []int64) {
	if len(lat) > w.from && w.audio > 0 {
		w.p50 = append(w.p50, int64(median(lat[w.from:])))
		w.cpu = append(w.cpu, int64(float64(cpuNs()-w.cpu0)/w.audio))
	}
}

// report sets the run's timing metrics: hop_ms_p50 and cpu_ms_per_audio_s
// from the fastest window, setup_s from the fastest cold set-up.
func (w *windows) report(r *result, setups []int64) {
	r.check(len(w.p50) > 0, "no complete window in the timed run")
	r.set("hop_ms_p50", quantile(w.p50, 0)/1e6, "ms")
	r.set("cpu_ms_per_audio_s", quantile(w.cpu, 0)/1e6, "ms")
	r.set("setup_s", quantile(setups, 0)/1e9, "s")
	fmt.Fprintf(os.Stderr, "%d windows: fastest hop median %.4g ms, median window %.4g ms; %d set-ups: fastest %.4g ms, median %.4g ms\n",
		len(w.p50), quantile(w.p50, 0)/1e6, median(w.p50)/1e6, len(setups), quantile(setups, 0)/1e6, median(setups)/1e6)
}

// pct is 100·(a/b − 1).
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * (a/b - 1)
}

// writeSpans writes a traced run's spans, kept in memory while it ran, as a
// JSON array under .bench_build/kwsperf-traces/.
func writeSpans(workload string, seed int64, spans []span) error {
	dir := ".bench_build/kwsperf-traces"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(fmt.Sprintf("%s/%s-seed%d.json", dir, workload, seed))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// span is one timed harness call into a layer. Spans of one hop share Hop;
// Parent names the enclosing span, empty for a root.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Hop    int64  `json:"hop"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}
