package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupRepeats is how many times an untraced run sets up its workload;
// setup_s is the median. The last setup's state is the one measured.
const setupRepeats = 5

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string
	// programs, when not empty, limits the suite to these programs, and
	// corrupt, when set, damages the output of one op before it is
	// checked; tests use both.
	programs []string
	corrupt  *corruption
}

// corruption names the op whose output a test damages.
type corruption struct{ op int }

// hits reports whether op is the op to damage.
func (c *corruption) hits(op int) bool { return c != nil && c.op == op }

// workload is one seeded closed-loop workload.
type workload interface {
	// setup builds the inputs, starts any server and sweeps every input
	// once untimed, so caches fill and lazy set-up finishes before timing.
	setup(ctx context.Context) error
	// clients is the number of closed-loop client goroutines.
	clients() int
	// op runs the k-th op of client c, checks its output and returns its
	// latency and whether it ends one of the client's sweeps over the
	// inputs. A failed check is returned as a *checkError.
	op(ctx context.Context, c, k, id int) (lat time.Duration, sweepEnd bool, err error)
	// check runs the reference checks that follow the timed phase and
	// fills the workload's quality and per-layer figures.
	check(ctx context.Context, r *report) error
	close()
}

// factory builds a fresh workload for one measurement.
type factory func(cfg runConfig, tr *tracer) workload

var workloads = map[string]factory{
	"fig7-cold":    newFig7,
	"omd-relink":   newOmd,
	"sim-fig6":     newSimFig6,
	"check-shadow": newShadow,
}

// checkError is an output that failed its check.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func checkFailed(format string, args ...any) error {
	return &checkError{fmt.Sprintf(format, args...)}
}

// report is everything one measured run produced.
type report struct {
	setupS   []float64
	ops      int
	failed   int
	lat      []time.Duration
	wall     time.Duration
	res      resources
	windows  []window
	failures []string

	// Figures the workload fills in check.
	imageKB      float64 // mean KB of the images the ops produce or consume
	addrRemoved  float64 // Figure 3, %
	instsRemoved float64 // Figure 5, %
	codeGain     float64 // Figure 6 geomean, %
	simMinstPerS float64
	layers       map[string]float64

	tr *tracer
}

// fail records a failed check outside an op (n ops affected).
func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// measure sets the workload up repeats times, runs the timed phase once
// and then its reference checks.
func measure(ctx context.Context, cfg runConfig, repeats int, tr *tracer) (*report, error) {
	mk, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, workloadNames())
	}
	r := &report{tr: tr, layers: map[string]float64{}}
	var w workload
	for i := 0; i < repeats; i++ {
		if w != nil {
			w.close()
		}
		w = mk(cfg, tr)
		runtime.GC()
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			w.close()
			return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
	}
	defer w.close()
	runtime.GC()
	if err := closedLoop(ctx, w, time.Duration(cfg.seconds*float64(time.Second)), r); err != nil {
		return nil, err
	}
	runtime.GC()
	if err := w.check(ctx, r); err != nil {
		return nil, fmt.Errorf("%s check: %w", cfg.workload, err)
	}
	return r, nil
}

// windowSeconds is the nominal length of one measurement window. The
// end-to-end rates and percentiles are medians over the windows of a run,
// so a burst of other work on the machine moves one window, not the result.
const windowSeconds = 2

// window is one stretch of the timed phase. It closes at the first sweep
// boundary after its nominal end, so each holds whole sweeps of a
// single-client workload's inputs.
type window struct {
	lat    []time.Duration
	failed int
	dur    time.Duration
	res    resources
}

// closedLoop runs the workload's clients, each sending its next op only
// after the previous one completed, until d has passed and each client has
// finished its current sweep over the inputs.
func closedLoop(ctx context.Context, w workload, d time.Duration, r *report) error {
	n := w.clients()
	var (
		mu       sync.Mutex
		cur      window
		curStart time.Time
		curSnap  resourceSnap
		firstErr error
	)
	nWindows := max(1, int(d.Seconds()/windowSeconds))
	var nextID atomic.Int64
	before := readResources()
	stopPeak := r.res.samplePeak()
	start := time.Now()
	curStart, curSnap = start, before
	closeWindow := func(now time.Time, snap resourceSnap) {
		cur.dur = now.Sub(curStart)
		cur.res.delta(curSnap, snap)
		r.windows = append(r.windows, cur)
		cur, curStart, curSnap = window{}, now, snap
	}
	// A sweep is at most a few seconds; the hard stop keeps a broken
	// program from running past the benchmark's time limit.
	hardStop := start.Add(d + 60*time.Second)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ; k++ {
				id := int(nextID.Add(1)) - 1
				lat, sweepEnd, err := w.op(ctx, c, k, id)
				var ce *checkError
				if err != nil && !errors.As(err, &ce) && ctx.Err() != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					return
				}
				now := time.Now()
				mu.Lock()
				cur.lat = append(cur.lat, lat)
				if err != nil {
					cur.failed++
					if len(r.failures) < 20 {
						r.failures = append(r.failures, err.Error())
					}
				}
				nominalEnd := start.Add(time.Duration(len(r.windows)+1) * d / time.Duration(nWindows))
				if sweepEnd && len(r.windows) < nWindows-1 && !now.Before(nominalEnd) {
					closeWindow(now, readResources())
				}
				mu.Unlock()
				if (sweepEnd && now.Sub(start) >= d) || now.After(hardStop) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	end := readResources()
	r.wall = time.Since(start)
	stopPeak()
	closeWindow(time.Now(), end)
	r.res.delta(before, end)
	if firstErr != nil {
		return firstErr
	}
	for _, win := range r.windows {
		r.lat = append(r.lat, win.lat...)
		r.failed += win.failed
	}
	r.ops = len(r.lat)
	if r.ops == 0 {
		return errors.New("no op completed")
	}
	return nil
}

// sweeper hands one client its inputs as seeded permutations of complete
// sweeps, so every input is used equally often whatever the seed.
type sweeper struct {
	rng  *rand.Rand
	n    int
	perm []int
	pos  int
}

func newSweeper(seed int64, client, n int) *sweeper {
	return &sweeper{rng: rand.New(rand.NewSource(seed*1000003 + int64(client))), n: n}
}

// next returns the next input and whether it completes a sweep.
func (s *sweeper) next() (int, bool) {
	if s.pos == len(s.perm) {
		s.perm = s.rng.Perm(s.n)
		s.pos = 0
	}
	i := s.perm[s.pos]
	s.pos++
	return i, s.pos == len(s.perm)
}

// resources is the process's resource use over the timed phase.
type resources struct {
	cpu       time.Duration // user + system
	allocB    uint64
	gcCycles  uint64
	gcCPU     float64 // seconds of GC CPU time, runtime estimate
	totalCPU  float64 // seconds of all CPU time, runtime estimate
	heapPeakB uint64
}

type resourceSnap struct {
	cpu     time.Duration
	samples []metrics.Sample
}

var resourceMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readResources() resourceSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := resourceSnap{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	for _, name := range resourceMetrics {
		s.samples = append(s.samples, metrics.Sample{Name: name})
	}
	metrics.Read(s.samples)
	return s
}

func (r *resources) delta(a, b resourceSnap) {
	r.cpu = b.cpu - a.cpu
	r.allocB = b.samples[0].Value.Uint64() - a.samples[0].Value.Uint64()
	r.gcCycles = b.samples[1].Value.Uint64() - a.samples[1].Value.Uint64()
	r.gcCPU = b.samples[2].Value.Float64() - a.samples[2].Value.Float64()
	r.totalCPU = b.samples[3].Value.Float64() - a.samples[3].Value.Float64()
}

// samplePeak polls the live heap until the returned stop is called.
func (r *resources) samplePeak() (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	go func() {
		defer close(exited)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > r.heapPeakB {
				r.heapPeakB = v
			}
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() { close(done); <-exited }
}

// run executes one invocation: the untraced measurement, or for a traced
// invocation an untraced and a traced measurement of fresh set-ups.
func run(ctx context.Context, cfg runConfig) (*result, error) {
	if cfg.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	env := environment()
	if !cfg.traced {
		r, err := measure(ctx, cfg, setupRepeats, nil)
		if err != nil {
			return nil, err
		}
		return endToEnd(cfg, r, env), nil
	}
	plain, err := measure(ctx, cfg, 1, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := measure(ctx, cfg, 1, tr)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path, env); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return perLayer(cfg, plain, traced, env), nil
}

// result is the printed outcome.
type result struct {
	workload  string
	env       map[string]any
	failures  []string
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef documents a reported metric; better is "lower" or "higher".
type metricDef struct{ name, unit, better string }

// endToEndMetrics are the untraced run's metrics, the same on every
// workload (README.md defines each).
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_ms_p50", "ms", "lower"},
	{"latency_ms_p90", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"image_kb_mean", "KB", "lower"},
	{"addr_removed_pct", "%", "higher"},
	{"insts_removed_pct", "%", "higher"},
	{"code_gain_pct", "%", "higher"},
	{"sim_minst_per_s", "Minst/s", "higher"},
	{"verdicts_correct_pct", "%", "higher"},
}

func newResult(cfg runConfig, r *report, env map[string]any) *result {
	return &result{
		workload:  cfg.workload,
		env:       env,
		failures:  r.failures,
		Correct:   r.failed == 0,
		Attempted: r.ops,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
}

// perWindow returns the median of f over the run's windows.
func perWindow(r *report, f func(w *window) float64) float64 {
	var xs []float64
	for i := range r.windows {
		if len(r.windows[i].lat) > 0 {
			xs = append(xs, f(&r.windows[i]))
		}
	}
	return median(xs)
}

// pct returns the p-th latency percentile in ms: the median over windows
// when every window has ten samples beyond it, otherwise over all ops.
func pct(r *report, p float64) float64 {
	need := int(math.Ceil(10 / (1 - p/100)))
	for i := range r.windows {
		if len(r.windows[i].lat) < need {
			return percentile(r.lat, p)
		}
	}
	return perWindow(r, func(w *window) float64 { return percentile(w.lat, p) })
}

func endToEnd(cfg runConfig, r *report, env map[string]any) *result {
	res := newResult(cfg, r, env)
	ops := float64(r.ops)
	v := map[string]float64{
		"setup_s":        median(r.setupS),
		"latency_ms_p50": pct(r, 50),
		"latency_ms_p90": pct(r, 90),
		"ops_per_s":      perWindow(r, func(w *window) float64 { return float64(len(w.lat)) / w.dur.Seconds() }),
		"cpu_ms_per_op":  perWindow(r, func(w *window) float64 { return ms(w.res.cpu) / float64(len(w.lat)) }),
		"alloc_mb_per_op": perWindow(r, func(w *window) float64 {
			return float64(w.res.allocB) / 1e6 / float64(len(w.lat))
		}),
		"image_kb_mean":        r.imageKB,
		"addr_removed_pct":     r.addrRemoved,
		"insts_removed_pct":    r.instsRemoved,
		"code_gain_pct":        r.codeGain,
		"sim_minst_per_s":      r.simMinstPerS,
		"verdicts_correct_pct": 100 * (ops - float64(min(r.failed, r.ops))) / ops,
	}
	for _, d := range endToEndMetrics {
		res.Metrics[d.name] = metric{v[d.name], d.unit}
	}
	return res
}

// perLayerMetrics are the traced run's metrics (README.md maps each to the
// end-to-end metric and workload it should move).
var perLayerMetrics = []metricDef{
	{"objfile.read_ms", "ms", "lower"},
	{"objfile.read_alloc_mb", "MB", "lower"},
	{"objfile.image_write_ms", "ms", "lower"},
	{"link.merge_ms", "ms", "lower"},
	{"link.ld_ms", "ms", "lower"},
	{"link.om_over_ld", "x", "lower"},
	{"om.lift_ms", "ms", "lower"},
	{"om.passes_ms", "ms", "lower"},
	{"om.sched_ms", "ms", "lower"},
	{"om.layout_ms", "ms", "lower"},
	{"om.emit_ms", "ms", "lower"},
	{"om.run_alloc_mb", "MB", "lower"},
	{"buildcache.program_hit_ratio", "ratio", "higher"},
	{"buildcache.lift_hit_ratio", "ratio", "higher"},
	{"buildcache.pass_hit_ratio", "ratio", "higher"},
	{"buildcache.lift_evictions_per_job", "count", "lower"},
	{"omd.wire_ms", "ms", "lower"},
	{"omd.request_kb", "KB", "lower"},
	{"omd.response_kb", "KB", "lower"},
	{"omd.queue_wait_ms", "ms", "lower"},
	{"omd.exec_ms.hit", "ms", "lower"},
	{"omd.exec_ms.warm", "ms", "lower"},
	{"omd.exec_ms.cold", "ms", "lower"},
	{"omd.latency_ms_p50.hit", "ms", "lower"},
	{"omd.latency_ms_p50.warm", "ms", "lower"},
	{"omd.latency_ms_p50.cold", "ms", "lower"},
	{"omd.memo_hit_ratio", "ratio", "higher"},
	{"omd.rejected_per_job", "count", "lower"},
	{"sim.load_ms", "ms", "lower"},
	{"sim.exec_ms", "ms", "lower"},
	{"sim.insts", "count", "lower"},
	{"sim.cycles", "count", "lower"},
	{"sim.icache_misses", "count", "lower"},
	{"sim.dcache_misses", "count", "lower"},
	{"sim.dual_issue_pct", "%", "higher"},
	{"verify.validate_ms", "ms", "lower"},
	{"verify.crosscheck_ms", "ms", "lower"},
	{"dataflow.from_image_ms", "ms", "lower"},
	{"dataflow.analyze_ms", "ms", "lower"},
	{"dataflow.prog_ms", "ms", "lower"},
	{"runtime.gc_per_op", "count", "lower"},
	{"runtime.gc_cpu_pct", "%", "lower"},
	{"runtime.heap_peak_mb", "MB", "lower"},
	{"latency_ms_p99", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"fail_pct", "%", "lower"},
}

func perLayer(cfg runConfig, plain, r *report, env map[string]any) *result {
	res := newResult(cfg, r, env)
	res.Attempted += plain.ops
	res.Failed += plain.failed
	res.Correct = res.Failed == 0
	res.failures = append(plain.failures, r.failures...)
	lt := r.tr.aggregate()
	ops := float64(r.ops)
	v := map[string]float64{
		"objfile.read_ms":        lt.perOp("", "objfile.Read", "decode-objects"),
		"objfile.read_alloc_mb":  lt.allocPerOp("objfile.Read"),
		"objfile.image_write_ms": lt.perOp("", "Image.Write"),
		"link.merge_ms":          lt.perOp("", "link.Merge", "merge"),
		"link.ld_ms":             lt.perCall("link.Link"),
		"om.lift_ms":             lt.perOp("", "om/lift"),
		"om.passes_ms":           lt.perOp("", "om/passes"),
		"om.layout_ms":           lt.perOp("", "om/layout"),
		"om.emit_ms":             lt.perOp("", "om/emit"),
		"om.run_alloc_mb":        lt.allocPerOp("om.Run"),
		"sim.load_ms":            lt.perOp("", "sim.New"),
		"sim.exec_ms":            lt.perOp("", "Machine.Run"),
		"verify.validate_ms":     lt.perOp("", "verify.ValidateImage"),
		"verify.crosscheck_ms":   lt.perOp("", "Doc.CrossCheck"),
		"dataflow.from_image_ms": lt.perOp("", "dataflow.FromImage"),
		"dataflow.analyze_ms":    lt.perOp("", "dataflow.Analyze"),
		"dataflow.prog_ms":       lt.perOp("", "dataflow.AnalyzeProg"),
		"runtime.gc_per_op":      float64(r.res.gcCycles) / ops,
		"runtime.heap_peak_mb":   float64(r.res.heapPeakB) / 1e6,
		"fail_pct":               100 * float64(res.Failed) / float64(res.Attempted),
		"latency_ms_p99":         pct(plain, 99),
	}
	// The scheduler runs inside om/emit; its cost is the emit time an
	// OM-full+sched op spends beyond an OM-full op over the same programs.
	if lt.ops["sched"] > 0 && lt.ops["nosched"] > 0 {
		v["om.sched_ms"] = lt.perOp("sched", "om/emit") - lt.perOp("nosched", "om/emit")
	}
	if r.res.totalCPU > 0 {
		v["runtime.gc_cpu_pct"] = 100 * r.res.gcCPU / r.res.totalCPU
	}
	if p := float64(plain.ops) / plain.wall.Seconds(); p > 0 {
		v["trace.overhead_pct"] = 100 * (p - ops/r.wall.Seconds()) / p
	}
	for name, x := range r.layers {
		v[name] = x
	}
	for _, d := range perLayerMetrics {
		res.Metrics[d.name] = metric{v[d.name], d.unit}
	}
	return res
}

// print writes a readable table, the environment and any failures, then
// the result object as the last line.
func (res *result) print(w io.Writer) error {
	defs := endToEndMetrics
	if _, ok := res.Metrics[perLayerMetrics[0].name]; ok {
		defs = perLayerMetrics
	}
	envJSON, err := json.Marshal(res.env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# perfbench %s  env %s\n", res.workload, envJSON)
	for _, d := range defs {
		m := res.Metrics[d.name]
		fmt.Fprintf(w, "# %-36s %14.4f %-8s (%s is better)\n", d.name, m.Value, m.Unit, d.better)
	}
	for _, f := range res.failures {
		fmt.Fprintf(w, "# FAILED: %s\n", f)
	}
	for _, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return errors.New("a metric is not a finite number")
		}
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// environment records where the numbers came from.
func environment() map[string]any {
	host, _ := os.Hostname() // best effort: an unknown host is recorded as ""
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"host":       host,
	}
}

// percentile returns the p-th percentile of lat in ms, by linear
// interpolation between closest ranks.
func percentile(lat []time.Duration, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	frac := pos - float64(lo)
	return ms(s[lo]) + frac*(ms(s[hi])-ms(s[lo]))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomeanGain returns 100·(1 − geomean(opt/base)): the Figure 6 average
// share of cycles saved.
func geomeanGain(base, opt []uint64) float64 {
	if len(base) == 0 {
		return 0
	}
	var logSum float64
	for i := range base {
		logSum += math.Log(float64(opt[i]) / float64(base[i]))
	}
	return 100 * (1 - math.Exp(logSum/float64(len(base))))
}
