package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/omd"
	"repro/internal/omd/client"
	"repro/internal/progen"
	"repro/internal/tcc"
)

// omdRelink is the omd-relink workload: an in-process omd with its default
// Config on loopback HTTP, driven by two closed-loop client goroutines.
// Each op is SubmitWait + Image of uploaded object bytes. The plan mixes
// three job classes, each defined by what the server does:
//
//   - hit: a resubmission of the key this client was served by the warm op
//     of its previous block, so the result memo answers it;
//   - warm: a suite program with an option set never submitted for it
//     before, so the memo misses and the resident program cache serves it;
//   - cold: never-seen object bytes of a progen program compiled in set-up.
//
// Each client runs blocks of one warm and two hit ops in seeded order.
// With hits the larger share, the latency median falls inside the hit
// mode and p90 inside the warm mode, not in the gap between them, where a
// small change of mix would move it far.
// Colds are paced in time, coldsPerSecond of them, never more than
// maxColds: the program cache keeps 64 programs first-in first-out, and
// once more than 64 − 19 − warm-up colds distinct programs have arrived it
// would start evicting suite programs, turning warm jobs cold by arrival
// order. Coalescing is left out: with two clients it depends on timing.
type omdRelink struct {
	cfg   runConfig
	tr    *tracer
	progs []*program
	// colds[i] is the module bytes of cold program i; the first
	// warmupColds are used in set-up.
	colds [][][]byte
	nCold int // timed cold ops
	// optSets[j] is option set j in om-options/v1 form: OM-full with
	// ablation bits j/2 and scheduling j%2 (0 is OM-full, 1 OM-full+sched).
	optSets [][]byte
	// warmOpts[i] is a seeded permutation of the option sets after the
	// first two, the order in which program i's warm jobs take them, so
	// that however many warm jobs a run completes, they are a uniform
	// sample of the ablation space. next[i] counts program i's warm jobs.
	warmOpts [][]int
	next     []atomic.Int64

	srv    *omd.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	cl     *client.Client
	tp     *http.Transport

	seed    maphash.Seed
	mu      sync.Mutex
	hashes  map[jobKey]uint64 // hash of the bytes first served per key
	opsOf   map[jobKey]int
	sched   []*objfile.Image // each suite program's served OM-full+sched image
	static  staticStats
	sizes   []int
	cs      []*omdClient
	before  *omd.MetricsSnapshot
	start   time.Time
	once    sync.Once
	coldOps atomic.Int64
}

// jobKey names one job's inputs: a suite program and option set, or a
// cold program (prog < 0).
type jobKey struct{ prog, opt int }

const (
	optSetCount    = 512
	coldsPerSecond = 4
	maxColds       = 40
	warmupColds    = 4
)

type jobClass int

const (
	classHit jobClass = iota
	classWarm
	classCold
)

var classNames = [3]string{"hit", "warm", "cold"}

// omdClient is one client goroutine's plan and records.
type omdClient struct {
	rng   *rand.Rand
	progs *sweeper
	block []jobClass
	pos   int
	prev  []jobKey // keys the next hits resubmit, in turn
	cur   []jobKey // keys served by this block's warm op
	hits  int      // hits sent so far
	recs  []jobRec
}

// jobRec is one timed op as the client saw it.
type jobRec struct {
	class     jobClass
	lat       time.Duration
	queueWait time.Duration
	exec      time.Duration
	reqBytes  int
	respBytes int
}

func newOmd(cfg runConfig, tr *tracer) workload { return &omdRelink{cfg: cfg, tr: tr} }

func (w *omdRelink) clients() int { return 2 }

func (w *omdRelink) setup(ctx context.Context) error {
	progs, err := loadSuite(w.cfg.programs)
	if err != nil {
		return err
	}
	w.progs = progs
	w.nCold = min(maxColds, int(math.Ceil(coldsPerSecond*w.cfg.seconds)))
	pool := rand.New(rand.NewSource(w.cfg.seed)).Perm(warmupColds + w.nCold)
	for _, i := range pool {
		var raw [][]byte
		for _, src := range progen.Generate(int64(1000+i), progen.DefaultConfig()) {
			obj, err := tcc.Compile(src.Name, []tcc.Source{src}, tcc.DefaultOptions())
			if err != nil {
				return fmt.Errorf("cold program %d: %w", i, err)
			}
			b, err := serialize([]*objfile.Object{obj})
			if err != nil {
				return err
			}
			raw = append(raw, b[0])
		}
		w.colds = append(w.colds, raw)
	}
	for j := 0; j < optSetCount; j++ {
		b, err := om.MarshalOptions(om.WithLevel(om.LevelFull), om.WithSchedule(j%2 == 1), om.WithAblation(ablation(j/2)))
		if err != nil {
			return err
		}
		w.optSets = append(w.optSets, b)
	}
	rng := rand.New(rand.NewSource(w.cfg.seed))
	for range progs {
		perm := rng.Perm(optSetCount - 2)
		for j := range perm {
			perm[j] += 2
		}
		w.warmOpts = append(w.warmOpts, perm)
	}
	w.next = make([]atomic.Int64, len(progs))
	w.hashes, w.opsOf = map[jobKey]uint64{}, map[jobKey]int{}
	w.seed = maphash.MakeSeed()
	w.sched = make([]*objfile.Image, len(progs))

	srv := omd.NewServer(omd.Config{})
	w.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: srv.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	w.tp = &http.Transport{MaxIdleConnsPerHost: 4}
	w.cl = client.New("http://"+ln.Addr().String(), &http.Client{Transport: w.tp})

	// The untimed sweep, split between the two clients as the timed phase
	// is: every suite program at OM-full and OM-full+sched, each key again
	// as a hit, and the warm-up colds.
	for c := 0; c < 2; c++ {
		w.cs = append(w.cs, &omdClient{
			rng:   rand.New(rand.NewSource(w.cfg.seed*7919 + int64(c))),
			progs: newSweeper(w.cfg.seed, c, len(progs)),
		})
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = w.warmup(ctx, c)
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for i, p := range progs {
		if w.sched[i] == nil {
			return fmt.Errorf("%s: no OM-full+sched image served in set-up", p.name)
		}
	}
	w.before, err = w.cl.Metrics(ctx)
	return err
}

// warmup is client c's share of the set-up sweep.
func (w *omdRelink) warmup(ctx context.Context, c int) error {
	oc := w.cs[c]
	for i := c; i < len(w.progs); i += 2 {
		for opt := 0; opt < 2; opt++ {
			key := jobKey{i, opt}
			st, img, err := w.submit(ctx, key, nil)
			if err != nil {
				return err
			}
			if err := w.expect(st, classWarm); err != nil {
				return err
			}
			im, err := objfile.ReadImage(bytes.NewReader(img))
			if err != nil {
				return err
			}
			w.mu.Lock()
			w.hashes[key] = maphash.Bytes(w.seed, img)
			w.sizes = append(w.sizes, len(img))
			if opt == 0 {
				if st.Stats == nil {
					w.mu.Unlock()
					return fmt.Errorf("%s: job status carries no statistics", w.progs[i].name)
				}
				w.static.add(st.Stats)
			} else {
				w.sched[i] = im
			}
			w.mu.Unlock()
			if len(oc.prev) < 2 {
				oc.prev = append(oc.prev, key)
			}
			if st, _, err = w.submit(ctx, key, nil); err != nil {
				return err
			}
			if err := w.expect(st, classHit); err != nil {
				return err
			}
		}
	}
	for i := c; i < warmupColds; i += 2 {
		st, _, err := w.submit(ctx, jobKey{-1 - i, 0}, nil)
		if err != nil {
			return err
		}
		if err := w.expect(st, classCold); err != nil {
			return err
		}
	}
	return nil
}

// ablation returns the ablation switched on by the eight bits of b.
func ablation(b int) om.Ablation {
	return om.Ablation{
		NoGATReduction:    b&1 != 0,
		NoCommonSort:      b&2 != 0,
		NoPrologueRestore: b&4 != 0,
		NoPairInsertion:   b&8 != 0,
		NoCallOpt:         b&16 != 0,
		NoResetOpt:        b&32 != 0,
		NoPrologueDelete:  b&64 != 0,
		NoAddressOpt:      b&128 != 0,
	}
}

// spec builds the job for key.
func (w *omdRelink) spec(key jobKey) *omd.JobSpec {
	s := &omd.JobSpec{Version: omd.SpecVersion}
	if key.prog < 0 {
		s.Objects = w.colds[-1-key.prog]
	} else {
		s.Objects = w.progs[key.prog].raw
	}
	s.Options = w.optSets[key.opt]
	return s
}

// submit runs one job to completion and fetches its image.
func (w *omdRelink) submit(ctx context.Context, key jobKey, rec *jobRec) (*omd.JobStatus, []byte, error) {
	spec := w.spec(key)
	st, err := w.cl.SubmitWait(ctx, spec)
	if err != nil {
		return nil, nil, err
	}
	if st.State != omd.JobDone {
		return st, nil, fmt.Errorf("job %s: state %s: %s", st.ID, st.State, st.Error)
	}
	img, err := w.cl.Image(ctx, st.ID)
	if err != nil {
		return st, nil, err
	}
	if rec != nil {
		rec.queueWait, rec.exec, rec.respBytes = st.QueueWait, st.Exec, len(img)
		if w.tr != nil {
			b, err := json.Marshal(spec)
			if err != nil {
				return st, nil, err
			}
			rec.reqBytes = len(b)
		}
	}
	return st, img, nil
}

// expect checks that the server treated a job as class c.
func (w *omdRelink) expect(st *omd.JobStatus, c jobClass) error {
	if st.Coalesced || st.ImageCacheHit || st.MemoHit != (c == classHit) {
		return checkFailed("job %s planned %s: memo_hit=%v coalesced=%v image_cache_hit=%v",
			st.ID, classNames[c], st.MemoHit, st.Coalesced, st.ImageCacheHit)
	}
	return nil
}

// plan picks client c's next job.
func (w *omdRelink) plan(c int) (key jobKey, class jobClass, sweepEnd bool) {
	w.once.Do(func() { w.start = time.Now() })
	due := int64(time.Since(w.start).Seconds() * float64(w.nCold) / w.cfg.seconds)
	for {
		n := w.coldOps.Load()
		if n >= int64(w.nCold) || n > due {
			break
		}
		if w.coldOps.CompareAndSwap(n, n+1) {
			return jobKey{-1 - warmupColds - int(n), 0}, classCold, false
		}
	}
	oc := w.cs[c]
	if oc.pos == len(oc.block) {
		if oc.block != nil {
			// The next block's hits resubmit this block's warm keys; the
			// first block's resubmit keys served in set-up.
			oc.prev, oc.cur = oc.cur, nil
		}
		oc.block = []jobClass{classWarm, classHit, classHit}
		oc.rng.Shuffle(len(oc.block), func(i, j int) { oc.block[i], oc.block[j] = oc.block[j], oc.block[i] })
		oc.pos = 0
	}
	class = oc.block[oc.pos]
	oc.pos++
	if class == classWarm {
		// Option sets wrap around only after 510 warm jobs of a program,
		// long after the memo's 256 entries have dropped the old key.
		i, _ := oc.progs.next()
		opts := w.warmOpts[i]
		key = jobKey{i, opts[int(w.next[i].Add(1)-1)%len(opts)]}
		oc.cur = append(oc.cur, key)
	} else {
		key = oc.prev[oc.hits%len(oc.prev)]
		oc.hits++
	}
	// An op ends a sweep when it ends a block and the client's warm jobs
	// have covered the suite a whole number of times.
	return key, class, oc.pos == len(oc.block) && oc.progs.pos == len(oc.progs.perm)
}

func (w *omdRelink) op(ctx context.Context, c, k, id int) (time.Duration, bool, error) {
	key, class, sweepEnd := w.plan(c)
	tr := w.tr.startOp(id, classNames[class])
	rec := jobRec{class: class}
	start := time.Now()
	st, img, err := w.submit(ctx, key, &rec)
	rec.lat = time.Since(start)
	tr.Root().End()
	oc := w.cs[c]
	oc.recs = append(oc.recs, rec)
	if err != nil {
		return rec.lat, sweepEnd, err
	}
	if w.tr != nil {
		// The server's own span tree of the job goes under the op.
		doc, err := w.cl.Trace(ctx, st.ID)
		if err != nil {
			return rec.lat, sweepEnd, err
		}
		w.tr.keep(tr, doc.Root)
	}
	if err := w.expect(st, class); err != nil {
		return rec.lat, sweepEnd, err
	}
	h := maphash.Bytes(w.seed, img)
	if w.cfg.corrupt.hits(id) {
		h++
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.opsOf[key]++
	if prev, ok := w.hashes[key]; ok && prev != h {
		return rec.lat, sweepEnd, checkFailed("job %s (%s): served bytes differ from the first serve of its key", st.ID, classNames[class])
	} else if !ok {
		w.hashes[key] = h
	}
	return rec.lat, sweepEnd, nil
}

func (w *omdRelink) check(ctx context.Context, r *report) error {
	after, err := w.cl.Metrics(ctx)
	if err != nil {
		return err
	}
	// The server keeps every job it ran; free that before the reference
	// checks, so their collections do not mark it.
	w.close()
	runtime.GC()
	delta := func(name string) float64 { return float64(after.Counter(name) - w.before.Counter(name)) }
	var recs []jobRec
	for _, oc := range w.cs {
		recs = append(recs, oc.recs...)
	}
	var planned [3]float64
	for _, rec := range recs {
		planned[rec.class]++
	}
	realized := [3]float64{delta("omd/memo-hits"), delta("stage/program/hits"), delta("stage/program/misses")}
	if int(planned[classCold]) != w.nCold {
		r.fail(1, "%v cold jobs ran, the plan paces %d", planned[classCold], w.nCold)
	}
	if realized != planned || delta("omd/coalesce-hits") != 0 {
		var off float64
		for i := range planned {
			off += math.Abs(realized[i] - planned[i])
		}
		r.fail(max(1, int(off)), "realized hit/warm/cold jobs %v differ from the plan %v (coalesced %v)",
			realized, planned, delta("omd/coalesce-hits"))
	}

	// The served bytes of every fresh key must equal an in-process om.Run
	// of the same inputs; hits were compared with their key's first serve.
	for key, h := range w.hashes {
		got, err := w.reference(ctx, key)
		if err != nil {
			return err
		}
		if maphash.Bytes(w.seed, got) != h {
			r.fail(max(1, w.opsOf[key]), "key %v: served image differs from the in-process om.Run", key)
		}
	}
	if err := linkStandard(w.progs, w.tr); err != nil {
		return err
	}
	gain, minst, ok, err := fig6Check(w.progs, w.sched, nil)
	if err != nil {
		return err
	}
	for i, good := range ok {
		if !good {
			r.fail(1, "%s: served image output differs from the ld image's", w.progs[i].name)
		}
	}
	r.codeGain, r.simMinstPerS = gain, minst
	r.imageKB = meanKB(w.sizes)
	w.static.set(r)

	jobs := float64(len(recs))
	ratio := func(stage string) float64 {
		h, m := delta("stage/"+stage+"/hits"), delta("stage/"+stage+"/misses")
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	}
	r.layers["buildcache.program_hit_ratio"] = ratio("program")
	r.layers["buildcache.lift_hit_ratio"] = ratio("lift")
	r.layers["buildcache.pass_hit_ratio"] = ratio("pass")
	r.layers["buildcache.lift_evictions_per_job"] = delta("stage/lift/evictions") / jobs
	r.layers["omd.memo_hit_ratio"] = delta("omd/memo-hits") / jobs
	r.layers["omd.rejected_per_job"] = delta("omd/rejected-queue-full") / jobs
	var wire, wait time.Duration
	var req, resp float64
	var executed int
	var lat [3][]time.Duration
	var exec [3]time.Duration
	for _, rec := range recs {
		wire += rec.lat - rec.queueWait - rec.exec
		req += float64(rec.reqBytes) / 1024
		resp += float64(rec.respBytes) / 1024
		lat[rec.class] = append(lat[rec.class], rec.lat)
		exec[rec.class] += rec.exec
		if rec.class != classHit {
			wait += rec.queueWait
			executed++
		}
	}
	r.layers["omd.wire_ms"] = ms(wire) / jobs
	r.layers["omd.request_kb"] = req / jobs
	r.layers["omd.response_kb"] = resp / jobs
	if executed > 0 {
		r.layers["omd.queue_wait_ms"] = ms(wait) / float64(executed)
	}
	for c, name := range classNames {
		if n := len(lat[c]); n > 0 {
			r.layers["omd.exec_ms."+name] = ms(exec[c]) / float64(n)
			r.layers["omd.latency_ms_p50."+name] = percentile(lat[c], 50)
		}
	}
	return nil
}

// reference links key's inputs in this process, the way the server does.
func (w *omdRelink) reference(ctx context.Context, key jobKey) ([]byte, error) {
	spec := w.spec(key)
	var objs []*objfile.Object
	for _, raw := range spec.Objects {
		o, err := objfile.Read(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		objs = append(objs, o)
	}
	opts, err := om.UnmarshalOptions(spec.Options)
	if err != nil {
		return nil, err
	}
	res, err := optimize(ctx, append(objs, w.progs[0].lib...), opts...)
	if err != nil {
		return nil, err
	}
	return imageBytes(res.Image)
}

// close stops the server and drops it, with every job it retains; it may
// be called more than once.
func (w *omdRelink) close() {
	if w.hs != nil {
		_ = w.hs.Close() // the listener error, if any, is of no use at shutdown
		<-w.served
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.tp != nil {
		w.tp.CloseIdleConnections()
	}
	w.hs, w.srv, w.tp, w.cl = nil, nil, nil, nil
}
