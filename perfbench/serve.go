package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/lb"
	"repro/internal/pareto"
	"repro/internal/sched"
	"repro/internal/schedio"
	"repro/internal/service"
	"repro/internal/soc"
	"repro/internal/socfile"
)

// The serve traffic follows cmd/socload's defaults: the SOCs demo8 and
// d695, 30% of requests are /v1/batch of 8 items, a quarter of the single
// requests go to /v1/schedule/best, and 80% of the params (single requests
// and batch items alike) come from socload's four-entry hot set. Two
// departures: a cold (SOC, params) never repeats within a run, so every
// cold lookup misses the result cache (socload's cold widths repeat after
// a few hundred draws), and uploadFrac of the units are uploads, which
// socload does not send. One unit in 16 registers far more SOCs than the
// registry's 32 Planners within a run's first thousand units, while reads
// stay the bulk of the traffic.
const (
	batchFrac  = 0.3
	batchSize  = 8
	bestFrac   = 0.25
	hotFrac    = 0.8
	uploadFrac = 1.0 / 16
)

// servedSOCs are the SOCs every serve run preloads.
var servedSOCs = []string{"demo8", "d695"}

// hotParams is socload's hot params set.
var hotParams = []service.ParamsJSON{
	{TAMWidth: 16},
	{TAMWidth: 24},
	{TAMWidth: 32, Percent: 10, Delta: 1},
	{TAMWidth: 48},
}

const (
	// serveUnitsPerSecond sizes a run: it sends seconds × this many
	// units, which takes about that many seconds on a 2-CPU x86 VM.
	serveUnitsPerSecond = 1800
	// minServeUnits is the unit-count floor of a serve run: every unit
	// is at least one request, and with 1000 samples ten lie beyond p99.
	minServeUnits = 1000
	// serveSegmentUnits is the fewest units in one segment of the
	// window, so each segment also has ten requests beyond its p99.
	serveSegmentUnits = 2000
)

// serveUnitCount is how many units a run of the given length sends. The
// count depends on the length alone, so every run with one length sends
// the same work, whatever the speed of the build under test.
func serveUnitCount(seconds float64) int {
	return max(minServeUnits, int(math.Round(seconds*serveUnitsPerSecond)))
}

// serveGuard is the wall time after which a run stops handing out units,
// so a pathologically slow build still exits in time. A run that hits it
// says so in its report.
func serveGuard(seconds float64) time.Duration {
	return time.Duration((3*seconds + 15) * float64(time.Second))
}

// httpReq is one HTTP request of the serve workload and what its answer
// must carry.
type httpReq struct {
	class string
	path  string
	ctype string
	body  []byte
	// docs names, per schedule document the answer carries, the SOC and
	// TAM width it schedules (one for /v1/schedule[/best], one per item
	// for /v1/batch); socs holds the matching SOCs.
	docs []docKey
	socs []*soc.SOC
	// upload is the SOC a POST /v1/socs registers; the answer must carry
	// its fingerprint.
	upload *soc.SOC
}

// docKey names the SOC and width of one schedule document.
type docKey struct {
	soc   string
	width int
}

// serveGen generates the serve traffic, a pure function of the seed.
type serveGen struct {
	rng     *rand.Rand
	socs    map[string]*soc.SOC
	keys    map[string]bool // every (soc, params) cache key drawn so far, the hot ones included
	uploads int
}

func newServeGen(seed int64) (*serveGen, error) {
	g := &serveGen{rng: rand.New(rand.NewSource(seed)), socs: map[string]*soc.SOC{}, keys: map[string]bool{}}
	for _, name := range servedSOCs {
		s, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		g.socs[s.Name] = s
		for _, p := range hotParams {
			g.keys[cacheKey(s.Name, p)] = true
		}
	}
	return g, nil
}

// cacheKey is the result-cache identity of a (soc, params) pair.
func cacheKey(soc string, p service.ParamsJSON) string {
	return soc + "|" + sched.Params{TAMWidth: p.TAMWidth, Percent: p.Percent, Delta: p.Delta}.CanonicalKey()
}

// units draws the next n units of work.
func (g *serveGen) units(n int) [][]httpReq {
	out := make([][]httpReq, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// next returns the next unit of work: one request, or an upload followed
// by a schedule of the uploaded SOC.
func (g *serveGen) next() []httpReq {
	switch u := g.rng.Float64(); {
	case u < uploadFrac:
		return g.upload()
	case u < uploadFrac+(1-uploadFrac)*batchFrac:
		return []httpReq{g.batch()}
	}
	req := service.Request{SOC: servedSOCs[g.rng.Intn(len(servedSOCs))]}
	var hot bool
	req.Params, hot = g.params(req.SOC)
	class, path := "cold", "/v1/schedule"
	if hot {
		class = "hot"
	}
	if g.rng.Float64() < bestFrac {
		class, path = "best", "/v1/schedule/best"
	}
	return []httpReq{g.schedule(class, path, req)}
}

// params draws socload's hot params with probability hotFrac, and
// otherwise cold params whose cache key never repeats within the run.
func (g *serveGen) params(soc string) (service.ParamsJSON, bool) {
	if g.rng.Float64() < hotFrac {
		p := hotParams[g.rng.Intn(len(hotParams))]
		p.Workers = 1
		return p, true
	}
	for {
		p := service.ParamsJSON{TAMWidth: 8 + g.rng.Intn(249), Percent: 1 + g.rng.Intn(20), Delta: g.rng.Intn(5), Workers: 1}
		if k := cacheKey(soc, p); !g.keys[k] {
			g.keys[k] = true
			return p, false
		}
	}
}

func (g *serveGen) schedule(class, path string, req service.Request) httpReq {
	return httpReq{class: class, path: path, ctype: "application/json", body: mustJSON(req),
		docs: []docKey{{req.SOC, req.Params.TAMWidth}}, socs: []*soc.SOC{g.socs[req.SOC]}}
}

func (g *serveGen) batch() httpReq {
	var br service.BatchRequest
	br.Workers = 1
	h := httpReq{class: "batch", path: "/v1/batch", ctype: "application/json"}
	for i := 0; i < batchSize; i++ {
		name := servedSOCs[g.rng.Intn(len(servedSOCs))]
		p, _ := g.params(name)
		br.Items = append(br.Items, service.BatchItemJSON{SOC: name, Params: p})
		h.docs = append(h.docs, docKey{name, p.TAMWidth})
		h.socs = append(h.socs, g.socs[name])
	}
	h.body = mustJSON(br)
	return h
}

// upload generates a fresh SOC, its POST /v1/socs, and a schedule of it,
// which builds the SOC's Planner in the request path.
func (g *serveGen) upload() []httpReq {
	cfg := bench.SynthConfig{
		Name:    fmt.Sprintf("up%d", g.uploads),
		Cores:   8 + g.rng.Intn(9),
		Seed:    g.rng.Int63(),
		Profile: []string{"mixed", "combo", "longchain"}[g.rng.Intn(3)],
	}
	g.uploads++
	s := bench.Synth(cfg)
	g.socs[s.Name] = s
	var text bytes.Buffer
	if err := socfile.Write(&text, s); err != nil {
		panic(err) // writing to a buffer fails only on a bug
	}
	req := service.Request{SOC: s.Name, Params: service.ParamsJSON{TAMWidth: 16 + g.rng.Intn(17), Workers: 1}}
	return []httpReq{
		{class: "upload", path: "/v1/socs", ctype: "text/plain", body: text.Bytes(), upload: s},
		g.schedule("upload", "/v1/schedule", req),
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

// answer is what a client records about one request inside the measured
// window: its latency, status, cache header and the hash of its body.
// Everything else about it is checked after the window.
type answer struct {
	done   bool
	lat    time.Duration
	status int
	hit    bool // X-Cache: hit
	hash   uint64
	err    error
}

// serveCheck verifies the answers once the window has closed. check
// reads each answer in order; load then loads every distinct schedule
// document through schedio.Load, on all CPUs.
type serveCheck struct {
	bodies  map[uint64][]byte // every distinct body, by hash
	hits    int               // cache hits (X-Cache and batch cacheHits)
	lookups int               // cache lookups
	refs    []docRef          // every schedule document received, in answer order
	byHash  map[uint64]int    // index into loads of each distinct document
	loads   []docLoad
}

// docRef is one schedule document of one answer.
type docRef struct {
	req   int // the request's index among the run's answers
	op    int
	class string
	key   docKey
	load  int
}

// docLoad is one distinct schedule document and what loading it gave.
type docLoad struct {
	doc      []byte
	soc      *soc.SOC
	makespan int64
	err      error
}

func newServeCheck() *serveCheck {
	return &serveCheck{bodies: map[uint64][]byte{}, byHash: map[uint64]int{}}
}

// check verifies the status of answer n to req (sent by unit op) and the
// fingerprint of an upload, and queues every schedule document it carries
// for load.
func (ck *serveCheck) check(n, op int, req httpReq, a answer) error {
	body := ck.bodies[a.hash]
	if req.upload != nil {
		if a.status != http.StatusCreated {
			return fmt.Errorf("upload: status %d", a.status)
		}
		var ans struct{ Fingerprint string }
		if err := json.Unmarshal(body, &ans); err != nil {
			return err
		}
		if want := socfile.Fingerprint(req.upload); ans.Fingerprint != want {
			return fmt.Errorf("upload: fingerprint %s, want %s", ans.Fingerprint, want)
		}
		return nil
	}
	if a.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", a.status, bytes.TrimSpace(body))
	}
	docs := [][]byte{body}
	hits := 0
	if req.path == "/v1/batch" {
		var br service.BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			return err
		}
		if len(br.Items) != len(req.docs) {
			return fmt.Errorf("batch: %d items, want %d", len(br.Items), len(req.docs))
		}
		docs = docs[:0]
		for _, it := range br.Items {
			if it.Status != http.StatusOK {
				return fmt.Errorf("batch item %d: status %d", it.Index, it.Status)
			}
			docs = append(docs, it.Result)
		}
		hits = br.Stats.CacheHits
	} else if a.hit {
		hits = 1
	}
	for i, doc := range docs {
		h := hashBytes(doc)
		l, ok := ck.byHash[h]
		if !ok {
			l = len(ck.loads)
			ck.byHash[h] = l
			ck.loads = append(ck.loads, docLoad{doc: doc, soc: req.socs[i]})
		}
		ck.refs = append(ck.refs, docRef{req: n, op: op, class: req.class, key: req.docs[i], load: l})
	}
	ck.hits += hits
	ck.lookups += len(docs)
	return nil
}

// load loads every distinct document against its SOC.
func (ck *serveCheck) load() {
	forEach(len(ck.loads), func(i int) {
		l := &ck.loads[i]
		if l.soc == nil {
			l.err = fmt.Errorf("unknown SOC")
			return
		}
		sch, err := schedio.Load(bytes.NewReader(l.doc), l.soc)
		if err != nil {
			l.err = err
			return
		}
		l.makespan = sch.Makespan
	})
}

// lbGap returns the mean gap to LB(W) over every schedule document that
// loaded, checking that none beats the bound. It sums in answer order,
// so one seed gives one figure.
func (ck *serveCheck) lbGap() (float64, error) {
	var socs []*soc.SOC
	idx := map[*soc.SOC]int{}
	for _, l := range ck.loads {
		if _, ok := idx[l.soc]; !ok && l.err == nil {
			idx[l.soc] = len(socs)
			socs = append(socs, l.soc)
		}
	}
	sets := make([]map[int]*pareto.Set, len(socs))
	errs := make([]error, len(socs))
	forEach(len(socs), func(i int) { sets[i], errs[i] = pareto.ComputeAll(socs[i], sched.DefaultMaxWidth) })
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	bounds := map[docKey]int64{}
	var sum float64
	var n int
	for _, ref := range ck.refs {
		l := ck.loads[ref.load]
		if l.err != nil {
			continue
		}
		b, ok := bounds[ref.key]
		if !ok {
			bound, err := lb.FromSets(sets[idx[l.soc]], ref.key.width, sched.DefaultMaxWidth)
			if err != nil {
				return 0, err
			}
			b = bound.Value()
			bounds[ref.key] = b
		}
		if l.makespan < b {
			return 0, fmt.Errorf("%s W=%d: makespan %d below LB %d", ref.key.soc, ref.key.width, l.makespan, b)
		}
		sum += (float64(l.makespan)/float64(b) - 1) * 100
		n++
	}
	return ratio(sum, float64(n)), nil
}

// forEach runs f(0), ..., f(n-1) on one goroutine per CPU.
func forEach(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// serveServer is one in-process socserved.
type serveServer struct {
	svc *service.Server
	ts  *httptest.Server
}

func (s *serveServer) close() {
	s.ts.Close()
	s.svc.Close()
}

// startServer starts a service preloaded with the served SOCs and warms
// it: every hot (SOC, params) is scheduled once, which builds each SOC's
// Planner and fills the result cache with the hot documents.
func startServer() (*serveServer, error) {
	svc, err := service.New(service.Config{Preload: servedSOCs})
	if err != nil {
		return nil, err
	}
	s := &serveServer{svc: svc, ts: httptest.NewServer(svc.Handler())}
	for _, name := range servedSOCs {
		for _, p := range hotParams {
			p.Workers = 1
			req := service.Request{SOC: name, Params: p}
			resp, err := s.ts.Client().Post(s.ts.URL+"/v1/schedule", "application/json", bytes.NewReader(mustJSON(req)))
			if err != nil {
				s.close()
				return nil, err
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				s.close()
				return nil, fmt.Errorf("serve: warm %s W=%d: status %d (%v)", name, p.TAMWidth, resp.StatusCode, err)
			}
		}
	}
	return s, nil
}

// metricsSnapshot reads the server's /metrics document.
func (s *serveServer) metricsSnapshot() (service.MetricsSnapshot, error) {
	var m service.MetricsSnapshot
	resp, err := s.ts.Client().Get(s.ts.URL + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// send runs one request and records its answer; a body not seen before
// by this client is kept in bodies under its hash.
func (s *serveServer) send(req httpReq, seed maphash.Seed, bodies map[uint64][]byte) answer {
	t0 := time.Now()
	resp, err := s.ts.Client().Post(s.ts.URL+req.path, req.ctype, bytes.NewReader(req.body))
	if err != nil {
		return answer{done: true, lat: time.Since(t0), err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a := answer{done: true, lat: time.Since(t0), status: resp.StatusCode, hit: resp.Header.Get("X-Cache") == "hit", err: err}
	a.hash = maphash.Bytes(seed, body)
	if _, ok := bodies[a.hash]; !ok {
		bodies[a.hash] = body
	}
	return a
}

// runServe runs the serve workload: a closed loop of one client per CPU
// against an in-process socserved, each client sending its next unit of
// work only after the previous answer arrived. A run sends a fixed,
// seeded list of units; the answers are checked after the window.
func runServe(cfg config, tr *tracer) (*result, error) {
	r := &result{Workload: "serve", Seed: cfg.seed}
	var srv *serveServer
	setup, err := timeSetup(func(last bool) error {
		s, err := startServer()
		if err != nil {
			return err
		}
		if last {
			srv = s
		} else {
			s.close()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer srv.close()

	t, err := serveTraffic(cfg, tr, srv, r)
	if err != nil {
		return nil, err
	}
	// serveTraffic's records are gone with its frame, so the live heap is
	// what the server retains.
	heap := heapLiveMB()

	r.EndToEnd = endToEnd(t.w, setup, heap, t.lbGap, true)
	builds := t.mAfter.Registry.Builds - t.mBefore.Registry.Builds
	evictions := t.mAfter.Registry.Evictions - t.mBefore.Registry.Evictions
	r.Notes = append(r.Notes, fmt.Sprintf("requests=%d units=%d/%d clients=%d window_s=%.3f cache_hit_ratio=%.4f registry_builds=%d registry_evictions=%d",
		len(t.w.all()), t.sent, serveUnitCount(cfg.seconds), t.clients, t.w.elapsed.Seconds(), t.hitRatio, builds, evictions))
	if t.sent < serveUnitCount(cfg.seconds) {
		r.Notes = append(r.Notes, fmt.Sprintf("stopped by the %v guard before every unit was sent", serveGuard(cfg.seconds)))
	}
	if tr != nil {
		r.Layers = serveLayers(tr, t, float64(builds), float64(evictions))
	}
	return r, nil
}

// traffic is what one serve window produced, once checked.
type traffic struct {
	w               window
	sent, clients   int
	lbGap, hitRatio float64
	before, after   globals
	mBefore, mAfter service.MetricsSnapshot
}

// serveTraffic generates the run's units, sends them through the closed
// loop, and then checks every answer, recording failures in r.
func serveTraffic(cfg config, tr *tracer, srv *serveServer, r *result) (traffic, error) {
	t := traffic{clients: runtime.NumCPU()}
	gen, err := newServeGen(cfg.seed)
	if err != nil {
		return t, err
	}
	units := gen.units(serveUnitCount(cfg.seconds))
	answers := make([][]answer, len(units))
	for i, u := range units {
		answers[i] = make([]answer, len(u))
	}
	// began and ended are each unit's first send and last answer, as
	// offsets from the window's start.
	began, ended := make([]time.Duration, len(units)), make([]time.Duration, len(units))
	if t.mBefore, err = srv.metricsSnapshot(); err != nil {
		return t, err
	}
	t.before = readGlobals()
	guard := serveGuard(cfg.seconds)
	seed := maphash.MakeSeed()
	bodies := make([]map[uint64][]byte, t.clients)
	var claimed atomic.Int64
	tr.resetCost()
	mem := readMem()
	start := time.Now()
	var wg sync.WaitGroup
	for c := range bodies {
		bodies[c] = map[uint64][]byte{}
		wg.Add(1)
		go func(bodies map[uint64][]byte) {
			defer wg.Done()
			for {
				op := claimed.Add(1) - 1
				if op >= int64(len(units)) || time.Since(start) > guard {
					return
				}
				root := tr.start("op", op, -1, false)
				began[op] = time.Since(start)
				for j, req := range units[op] {
					id := tr.start("service."+req.class, op, root, false)
					answers[op][j] = srv.send(req, seed, bodies)
					tr.end(id)
				}
				ended[op] = time.Since(start)
				tr.end(root)
			}
		}(bodies[c])
	}
	wg.Wait()
	t.w = window{elapsed: time.Since(start), allocMB: allocMBSince(mem)}
	t.after = readGlobals()
	if t.mAfter, err = srv.metricsSnapshot(); err != nil {
		return t, err
	}

	ck := newServeCheck()
	for _, b := range bodies {
		for h, body := range b {
			ck.bodies[h] = body
		}
	}
	var sent []int
	for u := range units {
		if answers[u][0].done {
			sent = append(sent, u)
		}
	}
	t.sent = len(sent)
	t.w.segs = serveSegments(sent, began, ended)
	failed := map[int]bool{} // requests already counted as failed
	n := 0                   // requests checked so far
	for k, u := range sent {
		seg := &t.w.segs[k*len(t.w.segs)/len(sent)]
		for j, req := range units[u] {
			a := answers[u][j]
			seg.lat = append(seg.lat, a.lat)
			err := a.err
			if err == nil {
				err = ck.check(n, u, req, a)
			}
			if err != nil {
				failed[n] = true
				r.fail("serve %s op %d: %v", req.class, u, err)
			}
			n++
		}
	}
	r.Attempted = n
	ck.load()
	for _, ref := range ck.refs {
		if err := ck.loads[ref.load].err; err != nil && !failed[ref.req] {
			failed[ref.req] = true
			r.fail("serve %s op %d %v: %v", ref.class, ref.op, ref.key, err)
		}
	}
	if t.lbGap, err = ck.lbGap(); err != nil {
		r.fail("serve: %v", err)
	}
	t.hitRatio = ratio(float64(ck.hits), float64(ck.lookups))
	return t, nil
}

// serveSegments splits the sent units, in unit order, into segments of
// at least serveSegmentUnits units (one segment when fewer were sent).
// A segment's wall time runs from its first unit's first send to its
// last answer; the latencies are filled in by the caller.
func serveSegments(sent []int, began, ended []time.Duration) []segment {
	if len(sent) == 0 {
		return nil
	}
	segs := make([]segment, max(1, len(sent)/serveSegmentUnits))
	lo, hi := make([]time.Duration, len(segs)), make([]time.Duration, len(segs))
	for k, u := range sent {
		i := k * len(segs) / len(sent)
		if k == 0 || i != (k-1)*len(segs)/len(sent) {
			lo[i] = began[u] // the segment's first unit
		}
		lo[i] = min(lo[i], began[u])
		hi[i] = max(hi[i], ended[u])
	}
	for i := range segs {
		segs[i].wall = hi[i] - lo[i]
	}
	return segs
}

// serveLayers computes the serve workload's per-layer metrics.
func serveLayers(tr *tracer, t traffic, builds, evictions float64) []metric {
	w := t.w
	spans := tr.snapshot()
	agg := aggregate(spans)
	vals := map[string]float64{}
	counts := map[string]int{}
	for _, c := range serveClasses {
		name := "service." + c
		d := sortedCopy(durations(spans, name))
		vals[name+".count"] = float64(agg[name].Count)
		vals[name+".ms"] = agg[name].MeanMs()
		vals[name+".p50_ms"] = ms(percentile(d, 50))
		vals[name+".p90_ms"] = ms(percentile(d, 90))
		counts[name+".p50_ms"], counts[name+".p90_ms"] = len(d), len(d)
	}
	stages := t.after.stages.since(t.before.stages)
	all := sortedCopy(w.all())
	var client time.Duration
	for _, d := range all {
		client += d
	}
	server := stages["service/schedule"].ns + stages["registry/build"].ns
	build := stages["registry/build"]
	vals["pareto.build.count"] = float64(build.count)
	vals["pareto.build.self_ms"] = ratio(float64(build.ns)/1e6, float64(build.count))
	vals["service.cache.hit_ratio"] = t.hitRatio
	vals["service.registry.builds"] = builds
	vals["service.registry.evictions"] = evictions
	vals["service.http_overhead_ms"] = ratio(float64(int64(client)-server)/1e6, float64(len(all)))
	vals["service.latency_p99_ms"] = ms(percentile(all, 99))
	vals["trace.throughput_ops_s"] = w.throughput()
	vals["trace.overhead_pct"] = tr.overheadPct(w.elapsed, t.clients)
	vals["trace.spans"] = float64(len(spans))
	counts["service.latency_p99_ms"] = len(all)
	counts["pareto.build.self_ms"] = int(build.count)
	return fillLayers(vals, counts)
}
