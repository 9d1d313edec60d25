package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zenport"
	"zenport/internal/engine"
	"zenport/internal/portmodel"
	"zenport/internal/serve"
	"zenport/internal/stats"
	"zenport/internal/zen"
)

const (
	// serveDistinct is the number of distinct kernels in the stream:
	// twice the prediction LRU, so the cache cannot hold them all.
	serveDistinct = 2 * serve.DefaultCacheSize
	// hotShare of the requests go to the hottest tenth of the kernels.
	hotShare = 0.8
	// explainShare of the requests are explains, the rest predicts.
	explainShare = 0.1
	// streamLen is the length of the seeded request stream; a phase
	// that outruns it wraps around.
	streamLen = 1 << 20
	// openRate is the open-loop arrival rate in requests per second,
	// well below the closed-loop capacity on two cores.
	openRate = 2000
	// lateLimit is the latency limit: an open-loop request answered
	// later than this after its due time counts as failed.
	lateLimit = 100 * time.Millisecond
	// reloadEvery is the hot-reload interval of the open-loop phase.
	reloadEvery = 500 * time.Millisecond
	// window is the length of the windows the phases are read in.
	window = time.Second
	// closedShare of the measuring time is the closed-loop phase; the
	// rest is the open-loop phase.
	closedShare = 0.4
	// reqHeader carries the client span id to the handler span.
	reqHeader = "X-Perfbench-Request"
)

// kernelRef is one distinct kernel: its request bodies and the batch
// evaluator's answers, computed before timing starts.
type kernelRef struct {
	exp            portmodel.Experiment
	predict        []byte
	explain        []byte
	inv, invB, ipc uint64 // math.Float64bits of the reference values
}

// serveSetup is a loaded in-process zenportd on loopback plus the
// seeded stream aimed at it.
type serveSetup struct {
	m       *portmodel.Mapping
	srv     *serve.Server
	httpSrv *http.Server
	done    chan struct{}
	base    string
	client  *http.Client
	kernels []kernelRef
	stream  []int32 // kernel index; negative = explain of kernel ^i
}

func newServe(cfg config, tr *tracer) (*serveSetup, error) {
	m, _, err := loadMapping(cfg.root)
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Rmax: zen.Rmax})
	if err := srv.Load("zen", m); err != nil {
		return nil, err
	}
	kernels, stream, err := buildStream(m, cfg.seed)
	if err != nil {
		return nil, err
	}
	var handler http.Handler = srv
	if tr != nil {
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			srv.ServeHTTP(w, r)
			t1 := time.Now()
			// Only the stream's requests carry an id; /v1/stats does not.
			if req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64); req != 0 {
				tr.add(span{Parent: req, Req: req, Name: "serve.handler", Start: tr.at(t0), End: tr.at(t1)})
			}
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serveSetup{
		m: m, srv: srv, httpSrv: &http.Server{Handler: handler}, done: make(chan struct{}),
		base:    "http://" + ln.Addr().String(),
		kernels: kernels, stream: stream,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: cfg.workers, MaxIdleConnsPerHost: cfg.workers,
		}},
	}
	go func() {
		defer close(s.done)
		_ = s.httpSrv.Serve(ln)
	}()
	return s, nil
}

// close stops the server and waits for it.
func (s *serveSetup) close() {
	s.client.CloseIdleConnections()
	_ = s.httpSrv.Close()
	<-s.done
}

// buildStream draws serveDistinct distinct 5-instruction kernels over
// the mapping's schemes, their request bodies and reference answers
// from the compiled evaluator, and the skewed request stream.
func buildStream(m *portmodel.Mapping, seed int64) ([]kernelRef, []int32, error) {
	c, err := portmodel.CompileMapping(m, nil)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	keys := m.Keys()
	seen := make(map[string]bool, serveDistinct)
	kernels := make([]kernelRef, 0, serveDistinct)
	for len(kernels) < serveDistinct {
		e := portmodel.Experiment{}
		for j := 0; j < blockLen; j++ {
			e[keys[rng.Intn(len(keys))]]++
		}
		if ck := engine.CanonicalKey(e); seen[ck] {
			continue
		} else {
			seen[ck] = true
		}
		k := kernelRef{exp: e}
		inv, err := c.InverseThroughput(e)
		if err != nil {
			return nil, nil, err
		}
		invB, err := c.InverseThroughputBounded(e, zen.Rmax)
		if err != nil {
			return nil, nil, err
		}
		ipc, err := c.IPC(e, zen.Rmax)
		if err != nil {
			return nil, nil, err
		}
		k.inv, k.invB, k.ipc = math.Float64bits(inv), math.Float64bits(invB), math.Float64bits(ipc)
		if k.predict, err = json.Marshal(serve.PredictRequest{Mapping: "zen", Experiment: e}); err != nil {
			return nil, nil, err
		}
		if k.explain, err = json.Marshal(serve.ExplainRequest{Mapping: "zen", Experiment: e}); err != nil {
			return nil, nil, err
		}
		kernels = append(kernels, k)
	}
	hot := serveDistinct / 10
	stream := make([]int32, streamLen)
	for i := range stream {
		idx := int32(rng.Intn(serveDistinct))
		if rng.Float64() < hotShare {
			idx = int32(rng.Intn(hot))
		}
		if rng.Float64() < explainShare {
			idx = ^idx
		}
		stream[i] = idx
	}
	return kernels, stream, nil
}

// call sends stream entry i and checks the answer against the
// reference. It returns when the request was sent and answered, and
// an error for anything but a correct 200.
func (s *serveSetup) call(i int, tr *tracer, parent int64) (sent, done time.Time, err error) {
	idx, path := s.stream[i%len(s.stream)], "/v1/predict"
	explain := idx < 0
	if explain {
		idx, path = ^idx, "/v1/explain"
	}
	k := &s.kernels[idx]
	body := k.predict
	if explain {
		body = k.explain
	}
	req, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return sent, done, err
	}
	req.Header.Set("Content-Type", "application/json")
	id := tr.id()
	if tr != nil {
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	sent = time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return sent, time.Now(), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done = time.Now()
	if tr != nil {
		tr.add(span{ID: id, Parent: parent, Req: id, Name: "client.request", Start: tr.at(sent), End: tr.at(done)})
	}
	if err != nil {
		return sent, done, err
	}
	if resp.StatusCode != http.StatusOK {
		return sent, done, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if explain {
		var r serve.ExplainResponse
		if err := json.Unmarshal(data, &r); err != nil {
			return sent, done, err
		}
		if math.Float64bits(r.InvThroughput) != k.inv {
			return sent, done, fmt.Errorf("explain: inv_throughput %v differs from the batch evaluator", r.InvThroughput)
		}
		return sent, done, nil
	}
	var r serve.PredictResponse
	if err := json.Unmarshal(data, &r); err != nil {
		return sent, done, err
	}
	if math.Float64bits(r.InvThroughput) != k.invB || math.Float64bits(r.InvThroughputUnbounded) != k.inv ||
		math.Float64bits(r.IPC) != k.ipc {
		return sent, done, fmt.Errorf("predict: answer (%v, %v, %v) differs from the batch evaluator",
			r.InvThroughput, r.InvThroughputUnbounded, r.IPC)
	}
	return sent, done, nil
}

// errTally counts failed requests and keeps the first error.
type errTally struct {
	n     atomic.Int64
	once  sync.Once
	first error
}

func (t *errTally) add(err error) {
	t.n.Add(1)
	t.once.Do(func() { t.first = err })
}

// runServe drives the in-process zenportd handler on loopback: a
// closed loop of nproc clients, then an open loop at a fixed rate with
// hot reloads of the same mapping beside the reads. Every 200 must be
// bit-identical to the batch evaluator's answer.
func runServe(cfg config, tr *tracer) (*outcome, error) {
	o := newOutcome()
	s, setup, err := timedSetups(func() (*serveSetup, error) { return newServe(cfg, tr) }, (*serveSetup).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	o.e2e["setup_s"] = setup

	g0 := readGC()
	root := tr.id()
	var fails errTally
	var next atomic.Int64

	// Closed loop: each client sends its next request when the last
	// one is answered. It is read in windows of one second; rates and
	// costs are medians over the windows, so a second in which the host
	// stalls the process does not move them. Its request latencies give
	// p50_us and p99_us: with two connections a host stall delays two
	// requests, so the tail is the program's and not the host's.
	closedFor := time.Duration(float64(cfg.seconds) * closedShare)
	closedID := tr.id()
	var answered atomic.Int64
	clientLat := make([][]float64, cfg.workers)
	c0, t0 := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Since(t0) < closedFor {
				sent, done, err := s.call(int(next.Add(1)-1), tr, closedID)
				if err != nil {
					fails.add(err)
				} else {
					clientLat[w] = append(clientLat[w], float64(done.Sub(sent).Nanoseconds())/1e3)
				}
				answered.Add(1)
			}
		}(w)
	}
	var rates, cpuPer []float64
	prevN, prevCPU, prevT := int64(0), c0, t0
	win := min(window, closedFor)
	for k := time.Duration(1); k*win <= closedFor; k++ {
		time.Sleep(time.Until(t0.Add(k * win)))
		n, c, t := answered.Load(), cpuTime(), time.Now()
		if n > prevN {
			rates = append(rates, float64(n-prevN)/t.Sub(prevT).Seconds())
			cpuPer = append(cpuPer, (c-prevCPU).Seconds()*1000/float64(n-prevN))
		}
		prevN, prevCPU, prevT = n, c, t
	}
	wg.Wait()
	t1 := time.Now()
	closedN := next.Load()
	if len(rates) == 0 {
		return nil, fmt.Errorf("the closed loop answered no request")
	}
	tr.interval(closedID, root, "serve.closed", t0, t1, nil)
	// The mapping's counters for the closed loop alone: a reload starts
	// a new mapping generation with fresh evaluation counters.
	st, err := s.stats()
	if err != nil {
		return nil, err
	}
	ms := st.Mappings[0]
	if n := ms.Cache.Hits + ms.Cache.Misses; n > 0 {
		o.layer["serve.cache_hit_ratio"] = float64(ms.Cache.Hits) / float64(n)
	}
	o.layer["serve.evaluations"] = float64(ms.Evaluations)
	o.layer["serve.coalesced"] = float64(ms.Coalesced)

	// Open loop: request j is due at t2 + j/openRate whatever happened
	// to earlier ones; worker w sends every workers-th request and is
	// timed from the due time. Latency quantiles are taken per second
	// of due times and reported as medians over those windows. They
	// include the generator's own lateness (Go timers wake with
	// millisecond granularity) and every host stall, so they are
	// per-layer figures, not end-to-end ones.
	openFor := cfg.seconds - closedFor
	openN := int(openFor.Seconds() * openRate)
	dueLat := make([]float64, openN) // NaN = failed
	late := make([]float64, openN)
	stop := make(chan struct{})
	var reloads []float64
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		tick := time.NewTicker(reloadEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				r0 := time.Now()
				if _, err := s.srv.Reload("zen", s.m); err != nil {
					fails.add(fmt.Errorf("reload: %w", err))
				}
				reloads = append(reloads, float64(time.Since(r0).Nanoseconds())/1e6)
			}
		}
	}()
	base := next.Load()
	openID := tr.id()
	t2 := time.Now()
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < openN; j += cfg.workers {
				due := t2.Add(time.Duration(float64(j) / openRate * 1e9))
				time.Sleep(time.Until(due))
				sent, done, err := s.call(int(base)+j, tr, openID)
				if err == nil && done.Sub(due) > lateLimit {
					err = fmt.Errorf("answered %v after its due time", done.Sub(due))
				}
				late[j] = float64(sent.Sub(due).Nanoseconds()) / 1e3
				dueLat[j] = float64(done.Sub(due).Nanoseconds()) / 1e3
				if err != nil {
					fails.add(err)
					dueLat[j] = math.NaN()
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	t3 := time.Now()
	tr.interval(openID, root, "serve.open", t2, t3, nil)
	tr.interval(root, 0, "serve", t0, t3, nil)
	o.addGC(g0, readGC())

	o.attempted = int(closedN) + openN
	if n := int(fails.n.Load()); n > 0 {
		o.fail(n, "%d requests failed; first: %v", n, fails.first)
	}
	// wall_s and cpu_s are per 1000 closed-loop requests;
	// blocks_per_s counts the predicts among them.
	rate := median(rates)
	o.e2e["req_per_s"] = rate
	o.e2e["wall_s"] = 1000 / rate
	o.e2e["cpu_s"] = median(cpuPer)
	predicts := 0
	for i := 0; i < int(closedN); i++ {
		if s.stream[i%len(s.stream)] >= 0 {
			predicts++
		}
	}
	o.e2e["blocks_per_s"] = rate * float64(predicts) / float64(closedN)
	var p50s, p99s []float64
	per := min(int(window.Seconds()*openRate), openN)
	for lo := 0; per > 0 && lo+per <= openN; lo += per {
		var ok []float64
		for _, v := range dueLat[lo : lo+per] {
			if !math.IsNaN(v) {
				ok = append(ok, v)
			}
		}
		p50s = append(p50s, quantile(ok, 0.5))
		p99s = append(p99s, quantile(ok, 0.99))
	}
	o.layer["load.open_p50_us"] = median(p50s)
	o.layer["load.open_p99_us"] = median(p99s)
	lat := slices.Concat(clientLat...)
	o.e2e["p50_us"] = quantile(lat, 0.5)
	o.e2e["p99_us"] = quantile(lat, 0.99)
	db := zenport.ZenDB()
	if o.e2e["truth_mape"], err = truthMAPE(db, s.m); err != nil {
		return nil, err
	}
	if o.e2e["mape"], err = servedMAPE(db, s.kernels); err != nil {
		return nil, err
	}
	refs := make([]byte, 0, 24*len(s.kernels))
	for _, k := range s.kernels {
		refs = binary.LittleEndian.AppendUint64(refs, k.inv)
		refs = binary.LittleEndian.AppendUint64(refs, k.invB)
		refs = binary.LittleEndian.AppendUint64(refs, k.ipc)
	}
	o.digest = digestOf(refs)

	o.layer["load.late_p99_us"] = quantile(late, 0.99)
	o.layer["serve.reloads"] = float64(len(reloads))
	o.layer["serve.reload_ms"] = median(reloads)
	if st, err = s.stats(); err != nil {
		return nil, err
	}
	o.layer["serve.shed"] = float64(st.Gate.Shed)
	if tr != nil {
		handler, transport := handlerTimes(tr)
		o.layer["serve.handler_p50_us"] = quantile(handler, 0.5)
		o.layer["serve.handler_p99_us"] = quantile(handler, 0.99)
		o.layer["serve.transport_p50_us"] = quantile(transport, 0.5)
	}
	return o, nil
}

// stats reads the server's own counters from GET /v1/stats.
func (s *serveSetup) stats() (*serve.StatsResponse, error) {
	resp, err := s.client.Get(s.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	if len(st.Mappings) != 1 {
		return nil, errors.New("/v1/stats: want exactly the one loaded mapping")
	}
	return &st, nil
}

// handlerTimes pairs every client span with its handler span and
// returns the handler times and the transport times (client latency
// minus handler time), in µs.
func handlerTimes(tr *tracer) (handler, transport []float64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	client := map[int64]int64{}
	for _, sp := range tr.spans {
		if sp.Name == "client.request" {
			client[sp.ID] = sp.End - sp.Start
		}
	}
	for _, sp := range tr.spans {
		if sp.Name != "serve.handler" {
			continue
		}
		h := sp.End - sp.Start
		handler = append(handler, float64(h)/1e3)
		if c, ok := client[sp.Req]; ok {
			transport = append(transport, float64(c-h)/1e3)
		}
	}
	return handler, transport
}

// servedMAPE is the MAPE of the served IPC (the verified reference)
// against the ground-truth mapping's over the stream's kernels.
func servedMAPE(db *zen.DB, kernels []kernelRef) (float64, error) {
	truth, err := portmodel.CompileMapping(db.Truth(), nil)
	if err != nil {
		return 0, err
	}
	pred := make([]float64, 0, len(kernels))
	want := make([]float64, 0, len(kernels))
	for _, k := range kernels {
		v, err := truth.IPC(k.exp, zen.Rmax)
		if err != nil {
			return 0, err
		}
		pred = append(pred, math.Float64frombits(k.ipc))
		want = append(want, v)
	}
	return stats.MAPE(pred, want)
}
