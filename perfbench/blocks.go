package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"zenport"
	"zenport/internal/eval"
	"zenport/internal/portmodel"
	"zenport/internal/stats"
	"zenport/internal/zen"
)

const (
	// blockLen is the §4.5 basic-block length.
	blockLen = 5
	// roundBlocks is the block count of one blocks round and of the
	// campaign's own §4.5 evaluation.
	roundBlocks = 4000
	// truthBlocks and truthSeed fix the block sample truth_mape is
	// scored on, so it compares mappings and not samples.
	truthBlocks = 2000
	truthSeed   = 45
	// noise is zeninfer's default relative cycle noise, the setting
	// mapping.json was inferred under.
	noise = 0.001
)

// newMachine builds the simulated Zen+ machine of a workload seed.
func newMachine(db *zen.DB, seed int64) *zenport.Machine {
	return zenport.NewZenMachine(db, zenport.SimConfig{Noise: noise, Seed: seed})
}

// loadMapping reads the committed mapping.json.
func loadMapping(root string) (*portmodel.Mapping, []byte, error) {
	data, err := os.ReadFile(filepath.Join(root, "mapping.json"))
	if err != nil {
		return nil, nil, err
	}
	m := new(portmodel.Mapping)
	if err := json.Unmarshal(data, m); err != nil {
		return nil, nil, fmt.Errorf("mapping.json: %w", err)
	}
	return m, data, nil
}

// measureBlocks samples seeded blocks over the mapping's schemes and
// measures them as one engine batch (eval.SampleBlocksContext). The
// digest covers every measured IPC bit.
func measureBlocks(ctx context.Context, h *zenport.Harness, m *portmodel.Mapping, seed int64) ([]eval.Block, string, error) {
	blocks, err := eval.SampleBlocksContext(ctx, h, m.Keys(), roundBlocks, blockLen, seed)
	if err != nil {
		return nil, "", err
	}
	buf := make([]byte, 0, 8*len(blocks))
	for _, b := range blocks {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(b.IPC))
	}
	return blocks, digestOf(buf), nil
}

// scored is one scoring pass of measured blocks against a mapping.
type scored struct {
	mape      float64
	predictNs float64 // mean time of one prediction
}

// scoreBlocks compiles the mapping afresh and scores its predictions
// against the measured IPC with eval.Evaluate, timing every
// prediction.
func scoreBlocks(blocks []eval.Block, m *portmodel.Mapping) (*scored, error) {
	compiled, err := portmodel.CompileMapping(m, nil)
	if err != nil {
		return nil, err
	}
	inner := &eval.MappingPredictor{Label: "mapping", Mapping: m, Rmax: zen.Rmax, Compiled: compiled}
	var predict time.Duration
	timed := &eval.FuncPredictor{Label: "mapping", Fn: func(e portmodel.Experiment) (float64, error) {
		s := time.Now()
		v, err := inner.PredictIPC(e)
		predict += time.Since(s)
		return v, err
	}}
	res, err := eval.Evaluate(blocks, []eval.Predictor{timed}, 5.5, 22)
	if err != nil {
		return nil, err
	}
	if res[0].Failures > 0 {
		return nil, fmt.Errorf("the mapping failed to predict %d blocks", res[0].Failures)
	}
	return &scored{mape: res[0].MAPE, predictNs: float64(predict.Nanoseconds()) / float64(len(blocks))}, nil
}

// completions records, for one measurement batch at a time, how long
// after the batch started each of its experiments had its result: the
// wait a caller of the batch sees per block. It is the engine's
// OnProgress hook, called from worker goroutines.
type completions struct {
	mu    sync.Mutex
	start time.Time
	lats  []float64 // µs; nil when not recording
}

func (c *completions) begin() {
	c.mu.Lock()
	c.start, c.lats = time.Now(), []float64{}
	c.mu.Unlock()
}

func (c *completions) progress(_, _ int) {
	c.mu.Lock()
	if c.lats != nil {
		c.lats = append(c.lats, float64(time.Since(c.start).Nanoseconds())/1e3)
	}
	c.mu.Unlock()
}

// end stops recording and returns the batch's p50 and p99 in µs.
func (c *completions) end() (p50, p99 float64) {
	c.mu.Lock()
	lats := c.lats
	c.lats = nil
	c.mu.Unlock()
	return quantile(lats, 0.5), quantile(lats, 0.99)
}

// truthMAPE is the MAPE of the mapping's IPC against the ground-truth
// mapping's on the fixed seeded sample of truthBlocks blocks over the
// schemes both cover.
func truthMAPE(db *zen.DB, m *portmodel.Mapping) (float64, error) {
	truth := db.Truth()
	var keys []string
	for _, k := range m.Keys() {
		if _, ok := truth.Get(k); ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return 0, fmt.Errorf("the mapping shares no scheme with the ground truth")
	}
	mine, err := portmodel.CompileMapping(m, nil)
	if err != nil {
		return 0, err
	}
	ref, err := portmodel.CompileMapping(truth, nil)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(truthSeed))
	pred := make([]float64, truthBlocks)
	want := make([]float64, truthBlocks)
	for i := range pred {
		e := portmodel.Experiment{}
		for j := 0; j < blockLen; j++ {
			e[keys[rng.Intn(len(keys))]]++
		}
		if pred[i], err = mine.IPC(e, zen.Rmax); err != nil {
			return 0, err
		}
		if want[i], err = ref.IPC(e, zen.Rmax); err != nil {
			return 0, err
		}
	}
	return stats.MAPE(pred, want)
}

// blocksSetup is what the blocks workload builds once: the scheme
// database and the committed mapping.
type blocksSetup struct {
	db *zen.DB
	m  *portmodel.Mapping
}

// runBlocks is the §4.5 loop: rounds of seeded blocks over the
// committed mapping's schemes, each measured as one cold engine batch
// on a fresh machine and scored with the compiled evaluator. Every
// round of a seed draws the same blocks and must reproduce the first
// bit for bit.
func runBlocks(cfg config, tr *tracer) (*outcome, error) {
	o := newOutcome()
	st, setup, err := timedSetups(func() (*blocksSetup, error) {
		m, _, err := loadMapping(cfg.root)
		if err != nil {
			return nil, err
		}
		return &blocksSetup{db: zenport.ZenDB(), m: m}, nil
	}, func(*blocksSetup) {})
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setup
	if o.e2e["truth_mape"], err = truthMAPE(st.db, st.m); err != nil {
		return nil, err
	}

	ctx := context.Background()
	root := tr.id()
	var walls, cpus, busy, batch []float64
	var first *scored
	var p50s, p99s, predictNs []float64
	var firstDigest string
	var eng zenport.EngineMetrics
	var firstCalls uint64
	g0 := readGC()
	start := time.Now()
	for round := 0; round < 2 || time.Since(start) < cfg.seconds; round++ {
		machine := newMachine(st.db, cfg.seed)
		p, _, tp := wrapMachine(machine, tr)
		h := zenport.NewHarness(p)
		h.Workers = cfg.workers
		var comp completions
		h.OnProgress = comp.progress
		c0, t0 := cpuTime(), time.Now()
		comp.begin()
		bs, digest, err := measureBlocks(ctx, h, st.m, cfg.seed)
		if err != nil {
			return nil, err
		}
		tm := time.Now()
		p50, p99 := comp.end()
		sc, err := scoreBlocks(bs, st.m)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		walls = append(walls, t1.Sub(t0).Seconds())
		p50s, p99s = append(p50s, p50), append(p99s, p99)
		predictNs = append(predictNs, sc.predictNs)
		cpus = append(cpus, (cpuTime() - c0).Seconds())
		m, ps := h.Metrics(), tp.snap()
		busy = append(busy, ps.busy.Seconds())
		batch = append(batch, m.BatchWall.Seconds())
		o.attempted += len(bs)
		if first == nil {
			first, firstDigest, eng, firstCalls = sc, digest, m, ps.calls
		} else if digest != firstDigest || sc.mape != first.mape {
			o.fail(len(bs), "round %d: measured IPC %s / MAPE %v differ from round 0 (%s / %v)",
				round, digest, sc.mape, firstDigest, first.mape)
		}
		if tr != nil {
			id := tr.id()
			tr.interval(id, root, "blocks.round", t0, t1, nil)
			tr.interval(0, id, "engine.batch", t0, tm, map[string]float64{
				"zensim.calls": float64(ps.calls), "zensim.busy_s": ps.busy.Seconds(),
				"engine.processor_calls": float64(m.ProcessorCalls),
			})
			tr.interval(0, id, "portmodel.predict", tm, t1, nil)
		}
	}
	tr.interval(root, 0, "blocks", start, time.Now(), nil)
	o.addGC(g0, readGC())

	o.digest = fmt.Sprintf("%s/%x", firstDigest, math.Float64bits(first.mape))
	o.e2e["wall_s"] = median(walls)
	o.e2e["cpu_s"] = median(cpus)
	o.e2e["blocks_per_s"] = float64(eng.Submitted) / median(walls)
	o.e2e["mape"] = first.mape
	o.e2e["req_per_s"] = float64(eng.Submitted) / median(walls)
	o.e2e["p50_us"] = median(p50s)
	o.e2e["p99_us"] = median(p99s)
	o.layer["portmodel.predict_ns"] = median(predictNs)

	// Per-layer figures are per round: counts from the first round
	// (every round repeats them exactly), times as medians.
	eng.BatchWall = time.Duration(median(batch) * 1e9)
	o.addEngineLayer(eng)
	o.addProcLayer(procSnap{calls: firstCalls, busy: time.Duration(median(busy) * 1e9)})
	return o, nil
}
