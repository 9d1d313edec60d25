package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"zenport"
	"zenport/internal/zen"
)

// stageEnds are the Options.Log formats the pipeline emits when a
// stage completes; their timestamps split the campaign by stage.
var stageEnds = []string{
	"stage 1: %d schemes measured",
	"stage 2: %d blocking classes",
	"stage 3: blocker mapping",
	"stage 4: %d schemes characterized",
}

// stageMark is the state of the run when a stage ended.
type stageMark struct {
	at   time.Time
	cpu  time.Duration
	eng  zenport.EngineMetrics
	proc procSnap
}

// campaignSetup is one ready-to-run campaign: a fresh machine at the
// seed, its harness, and a persist store with stage checkpoints on a
// fresh directory, as crash-safe campaigns run.
type campaignSetup struct {
	db    *zen.DB
	h     *zenport.Harness
	store *zenport.CacheStore
	dir   string
	opts  zenport.Options
	comp  completions
	marks []stageMark
}

func newCampaign(cfg config, tr *tracer) (*campaignSetup, error) {
	db := zenport.ZenDB()
	p, fper, tp := wrapMachine(newMachine(db, cfg.seed), tr)
	h := zenport.NewHarness(p)
	h.Workers = cfg.workers
	fp := zenport.RunFingerprint(fper, h.Engine)
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, "campaign-")
	if err != nil {
		return nil, err
	}
	store, err := zenport.OpenCache(dir, fp)
	if err != nil {
		return nil, err
	}
	if err := store.Attach(h.Engine); err != nil {
		store.Close()
		return nil, err
	}
	ck, err := zenport.NewCheckpointer(dir, fp)
	if err != nil {
		store.Close()
		return nil, err
	}
	c := &campaignSetup{db: db, h: h, store: store, dir: dir, opts: zenport.DefaultOptions()}
	h.OnProgress = c.comp.progress
	c.opts.Checkpointer = ck
	c.opts.Log = func(format string, _ ...any) {
		if n := len(c.marks); n < len(stageEnds) && strings.HasPrefix(format, stageEnds[n]) {
			c.marks = append(c.marks, stageMark{at: time.Now(), cpu: cpuTime(), eng: h.Metrics(), proc: tp.snap()})
		}
	}
	return c, nil
}

// discard closes the store (a second Close is a no-op) and removes the
// campaign directory.
func (c *campaignSetup) discard() {
	c.store.Close()
	os.RemoveAll(c.dir)
}

// runCampaign is a full four-stage Infer over every Zen+ scheme on a
// fresh machine at the seed, followed by the §4.5 evaluation of the
// inferred mapping. The mapping must be the same on every run of a
// seed, and byte-identical to mapping.json at the golden seed.
func runCampaign(cfg config, tr *tracer) (*outcome, error) {
	o := newOutcome()
	c, setup, err := timedSetups(func() (*campaignSetup, error) { return newCampaign(cfg, tr) },
		(*campaignSetup).discard)
	if err != nil {
		return nil, err
	}
	defer c.discard()
	o.e2e["setup_s"] = setup
	schemes := zenport.ZenSchemes(c.db)

	ctx := context.Background()
	root := tr.id()
	g0 := readGC()
	m0 := c.h.Metrics()
	c0, t0 := cpuTime(), time.Now()
	rep, err := zenport.InferContext(ctx, c.h, schemes, c.opts)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	cpu := cpuTime() - c0
	o.addGC(g0, readGC())
	if len(c.marks) != len(stageEnds) {
		return nil, fmt.Errorf("saw %d of %d stage-end log lines; the pipeline's log formats changed", len(c.marks), len(stageEnds))
	}
	journal := dirBytes(c.dir)
	tc := time.Now()
	if err := c.store.Close(); err != nil {
		return nil, fmt.Errorf("closing the persist store: %w", err)
	}
	closeDur := time.Since(tc)
	tr.interval(0, root, "persist.close", tc, tc.Add(closeDur), nil)

	o.attempted = 1
	final, err := json.MarshalIndent(rep.Final, "", "  ")
	if err != nil {
		return nil, err
	}
	o.digest = digestOf(final)
	if cfg.seed == goldenSeed {
		_, golden, err := loadMapping(cfg.root)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(final, golden) {
			o.fail(1, "the mapping at seed %d differs from mapping.json", goldenSeed)
		}
	}

	o.e2e["wall_s"] = t1.Sub(t0).Seconds()
	o.e2e["cpu_s"] = cpu.Seconds()
	o.e2e["req_per_s"] = float64(c.h.Metrics().Submitted-m0.Submitted) / t1.Sub(t0).Seconds()
	if o.e2e["truth_mape"], err = truthMAPE(c.db, rep.Final); err != nil {
		return nil, err
	}
	// The §4.5 evaluation of the inferred mapping on the campaign's
	// engine.
	te := time.Now()
	c.comp.begin()
	blocks, _, err := measureBlocks(ctx, c.h, rep.Final, cfg.seed)
	if err != nil {
		return nil, err
	}
	o.e2e["p50_us"], o.e2e["p99_us"] = c.comp.end()
	sc, err := scoreBlocks(blocks, rep.Final)
	if err != nil {
		return nil, err
	}
	evalWall := time.Since(te)
	tr.interval(0, root, "eval.blocks", te, te.Add(evalWall), nil)
	o.e2e["blocks_per_s"] = float64(len(blocks)) / evalWall.Seconds()
	o.e2e["mape"] = sc.mape
	o.layer["portmodel.predict_ns"] = sc.predictNs

	// The per-layer split, stage by stage.
	prev := stageMark{at: t0, cpu: c0, eng: m0}
	for i, mk := range c.marks {
		eng := subMetrics(mk.eng, prev.eng)
		proc := mk.proc.sub(prev.proc)
		o.layer[fmt.Sprintf("core.stage%d_s", i+1)] = mk.at.Sub(prev.at).Seconds()
		if i == 2 {
			o.layer["engine.stage3_batch_wall_s"] = eng.BatchWall.Seconds()
		}
		if tr != nil {
			id := tr.id()
			tr.interval(id, root, fmt.Sprintf("core.stage%d", i+1), prev.at, mk.at,
				map[string]float64{"cpu_s": (mk.cpu - prev.cpu).Seconds()})
			// The engine's batches inside the stage, as one span of
			// their summed wall time; its processor calls are
			// aggregated into it.
			tr.interval(0, id, "engine.batches", prev.at, prev.at.Add(eng.BatchWall), map[string]float64{
				"engine.submitted": float64(eng.Submitted), "engine.executed": float64(eng.Executed),
				"zensim.calls": float64(proc.calls), "zensim.busy_s": proc.busy.Seconds(),
			})
		}
		prev = mk
	}
	tr.interval(root, 0, "campaign", t0, t1, nil)
	o.addEngineLayer(subMetrics(prev.eng, m0))
	o.addProcLayer(prev.proc)
	o.layer["core.cegar_rounds"] = float64(rep.CEGARRounds)
	o.layer["core.anomalies"] = float64(len(rep.AnomalousBlockers))
	o.layer["core.unresolved"] = float64(len(rep.Unresolved))
	if s := rep.Supervision; s != nil {
		q := s.Solver
		o.layer["smt.queries"] = float64(q.Queries)
		o.layer["smt.theory_iterations"] = float64(q.TheoryIterations)
		o.layer["smt.lemmas"] = float64(q.LemmasLearned)
		o.layer["sat.conflicts"] = float64(q.Solver.Conflicts)
		o.layer["sat.decisions"] = float64(q.Solver.Decisions)
		o.layer["sat.propagations"] = float64(q.Solver.Propagations)
		o.layer["sat.restarts"] = float64(q.Solver.Restarts)
	}
	solve := o.layer["core.stage3_s"] - o.layer["engine.stage3_batch_wall_s"]
	o.layer["smt.solve_s"] = solve
	if solve > 0 {
		o.layer["sat.props_per_s"] = o.layer["sat.propagations"] / solve
	}
	o.layer["persist.journal_mb"] = float64(journal) / (1 << 20)
	o.layer["persist.close_s"] = closeDur.Seconds()
	return o, nil
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
