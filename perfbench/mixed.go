package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"beliefdb"
	"beliefdb/internal/bsql"
	"beliefdb/internal/core"
	"beliefdb/internal/gen"
)

// writeOp is one open-loop write of the mixed workload.
type writeOp struct {
	del bool
	st  core.Statement
}

// mixedOps draws n conflict-free writes against the reference base, which
// it advances: a new belief from the Table 2 generator on a path that
// already carries beliefs, or (as often, once there is one) the retraction
// of a belief inserted earlier in the stream. The store therefore stays near
// its preloaded size and creates no worlds through the run, so every run
// measures the same steady state whatever the seed.
func mixedOps(base *core.BeliefBase, sc scale, seed int64, n int) ([]writeOp, error) {
	g, err := gen.New(table2Config(sc.mixedN, seed))
	if err != nil {
		return nil, err
	}
	paths := map[string]bool{}
	for _, p := range base.SupportPaths() {
		paths[p.Key()] = true
	}
	r := rand.New(rand.NewSource(seed))
	var ops []writeOp
	var live []core.Statement
	for tries := 0; len(ops) < n; tries++ {
		if tries > 100*n {
			return nil, fmt.Errorf("mixed: only %d of %d writes drawn", len(ops), n)
		}
		if len(live) > 0 && r.Intn(2) == 0 {
			i := r.Intn(len(live))
			st := live[i]
			live = slices.Delete(live, i, i+1)
			if !base.Delete(st) {
				return nil, fmt.Errorf("mixed: reference lost %s", st)
			}
			ops = append(ops, writeOp{del: true, st: st})
			continue
		}
		st := g.Next()
		if !paths[st.Path.Key()] {
			continue
		}
		if changed, err := base.Insert(st); err != nil || !changed {
			continue
		}
		live = append(live, st)
		ops = append(ops, writeOp{st: st})
	}
	return ops, nil
}

// openMixed creates the durable mixed store preloaded with the Table 2
// dataset.
func openMixed(dir string, sc scale) (*beliefdb.DB, error) {
	db, err := beliefdb.OpenAt(dir, genSchema())
	if err != nil {
		return nil, err
	}
	if err := loadTable2(db, sc.mixedN, sc.referenceSeed); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// runMixed is the mixed workload: an embedded durable store with the
// default Table 2 dataset, one goroutine writing open-loop at a fixed rate
// (each write its own commit and fsync, timed from when it was due) and one
// running the Table 2 queries closed-loop through DB.Query. The final state
// is checked against the reference.
func runMixed(cfg config, tr *tracer) (*outcome, error) {
	o := newOutcome()
	sc := cfg.scale
	wp := newWALProbe(tr)
	defer wp.install()()

	reps := sc.setupReps
	if tr != nil {
		reps = 1
	}
	var (
		db     *beliefdb.DB
		setups []float64
		dir    string
	)
	for i := 0; i < reps; i++ {
		if db != nil {
			if err := db.Close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
		dir = filepath.Join(cfg.dir, fmt.Sprintf("mixed%d", i))
		start := time.Now()
		var err error
		if db, err = openMixed(dir, sc); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer os.RemoveAll(dir)
	defer db.Close()
	o.e2e["setup_s"] = median(setups)

	preload, err := db.Statements()
	if err != nil {
		return nil, err
	}
	base := core.NewBeliefBase()
	for _, st := range preload {
		if _, err := base.Insert(st); err != nil {
			return nil, fmt.Errorf("mixed: preload rejected by the reference: %w", err)
		}
	}
	nops := int(sc.mixedRate * cfg.seconds.Seconds())
	ops, err := mixedOps(base, sc, cfg.seed, max(nops, 1))
	if err != nil {
		return nil, err
	}
	qs, err := prepareTable2(db)
	if err != nil {
		return nil, err
	}
	btr := bsql.NewTranslator(db.Store())

	var (
		wg                      sync.WaitGroup
		writing                 atomic.Bool
		late, ins, del          []time.Duration
		writes, reads           []timedSample
		writeFailed, readFailed int64
		ls                      queryLayerStats
	)
	writing.Store(true)
	wp.record(true)
	runtime.GC() // every run starts its load from the same collector state
	rt0 := readRuntime()
	start := time.Now()
	interval := time.Duration(float64(time.Second) / sc.mixedRate)
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer writing.Store(false)
		l := tr.log()
		for i, op := range ops {
			due := start.Add(time.Duration(i) * interval)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			late = append(late, time.Since(due))
			root := l.begin("request", int64(i), -1)
			var err error
			var changed bool
			if op.del {
				c := l.begin("DB.DeleteBelief", int64(i), root)
				changed, err = db.DeleteBelief(op.st.Path, op.st.Sign, op.st.Tuple)
				if d := l.end(c); l != nil {
					del = append(del, d)
				}
			} else {
				c := l.begin("DB.InsertBelief", int64(i), root)
				changed, err = db.InsertBelief(op.st.Path, op.st.Sign, op.st.Tuple)
				if d := l.end(c); l != nil {
					ins = append(ins, d)
				}
			}
			l.end(root)
			if err != nil || !changed {
				writeFailed++
				writes = append(writes, timedSample{time.Since(start), failedLatency})
				continue
			}
			writes = append(writes, timedSample{time.Since(start), time.Since(due)})
		}
	}()
	go func() {
		defer wg.Done()
		l := tr.log()
		order := newQueryOrder(len(qs), cfg.seed*7919+1)
		for i := int64(1 << 40); writing.Load(); i++ {
			q := qs[order.next()]
			var err error
			if l == nil {
				_, err = db.Query(q.text)
			} else {
				root := l.begin("request", i, -1)
				var ql queryLayers
				ql, err = shadowQuery(l, i, root, btr, db, q.text)
				l.end(root)
				if err == nil {
					ls.add(q.key, ql, 0, 0)
				}
			}
			if err != nil {
				readFailed++
				reads = append(reads, timedSample{time.Since(start), failedLatency})
				continue
			}
			reads = append(reads, timedSample{time.Since(start), 0})
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	wp.record(false)
	rt1 := readRuntime()
	runtimeLayer(o, rt0, rt1)

	o.attempted = int64(len(writes) + len(reads))
	o.failed = writeFailed + readFailed
	o.tail(writes)
	o.e2e["p50_ms"] = windowP50(writes, elapsed)
	o.e2e["throughput_per_s"] = windowRate(reads, elapsed)

	got, err := db.Statements()
	if err != nil {
		return nil, err
	}
	o.check(slices.Equal(statementSet(got), statementSet(base.Statements())),
		"mixed: final store holds %d statements, the reference %d", len(got), base.Len())
	checkWorlds(o, "mixed", db, base, 25, cfg.seed)
	stats := db.Stats()
	o.layer["store.overhead"] = stats.Overhead()
	o.layer["store.states"] = float64(stats.States)
	o.e2e["heap_mb"] = heapMB()
	if tr == nil {
		return o, nil
	}

	ls.report(o)
	o.layer["store.insert_us"] = medianUS(ins)
	o.layer["store.delete_us"] = medianUS(del)
	o.layer["loadgen.late_p99_ms"] = ms(percentile(late, 0.99))
	o.samples["loadgen.late_p99_ms"] = len(late)
	spans := tr.all()
	self := byName(spans, selfTimes(spans, wp.l.id, walOverlap))
	o.layer["store.apply_self_us"] = medianUS(append(self["DB.InsertBelief"], self["DB.DeleteBelief"]...))
	wp.report(o, spans, len(ops))
	return o, nil
}
