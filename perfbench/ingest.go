package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"beliefdb"
	"beliefdb/internal/core"
	"beliefdb/internal/gen"
	"beliefdb/internal/store"
)

// ingestDepths is the ingest stream's nesting-depth distribution (depth ≤ 3).
var ingestDepths = []float64{0.3, 0.45, 0.2, 0.05}

// batch is one ExecBatch request of the ingest stream.
type batch struct {
	script string
	stmts  []core.Statement
}

// ingestStream draws the seeded, conflict-free ingest stream and cuts it
// into a seeded mix of requests: one in 16 carries 16 statements, the rest
// one, so about half of the statements arrive in each size. Rare large
// requests keep the median request in the single-statement mode, where it
// is steady, and leave the large ones to the tail.
func ingestStream(sc scale, seed int64) (*core.BeliefBase, []batch, error) {
	base, stmts, err := gen.Statements(gen.Config{
		Users:         sc.ingestUsers,
		DepthDist:     ingestDepths,
		Participation: gen.Zipf,
		KeyPool:       max(8, sc.ingestStmts/4),
		Seed:          seed,
	}, sc.ingestStmts)
	if err != nil {
		return nil, nil, err
	}
	r := rand.New(rand.NewSource(seed))
	var out []batch
	for len(stmts) > 0 {
		n := 1
		if r.Intn(16) == 0 {
			n = 16
		}
		n = min(n, len(stmts))
		var sb strings.Builder
		for _, s := range stmts[:n] {
			renderInsert(&sb, s)
			sb.WriteByte('\n')
		}
		out = append(out, batch{script: sb.String(), stmts: stmts[:n]})
		stmts = stmts[n:]
	}
	return base, out, nil
}

// ingestEpisode is one fixed-work episode: a fresh durable store served
// in-process, a whole stream pushed through two connections with a
// Checkpoint request mid-stream, then close, reopen and verify.
type ingestEpisode struct {
	setup, load, recovery time.Duration
	lats                  []timedSample // from the start of the episode's load
	ackedAt               []bool        // per batch
	acked                 int           // statements acknowledged
	ackedBatches          int
	syncs                 uint64
	rows                  int // ΔTotalRows
	diskBytes             int64
	heapMB                float64
	attempted, failed     int64
	checkpoint            time.Duration
	compile, submit, rtt  []time.Duration
}

func runIngest(cfg config, tr *tracer) (*outcome, error) {
	o := newOutcome()
	sc := cfg.scale
	wp := newWALProbe(tr)
	// A run is a fixed number of episodes, sized so that it lasts about
	// -seconds here; each episode ingests its own seeded stream.
	episodes := max(1, int(math.Round(cfg.seconds.Seconds()/sc.ingestEpisodeSec)))
	if tr == nil {
		episodes = max(episodes, sc.setupReps)
	}

	var (
		eps     []*ingestEpisode
		batches []batch
	)
	rt0 := readRuntime()
	for len(eps) < episodes {
		base, bs, err := ingestStream(sc, cfg.seed*1009+int64(len(eps)))
		if err != nil {
			return nil, err
		}
		batches = bs
		dir := filepath.Join(cfg.dir, fmt.Sprintf("ingest%d", len(eps)))
		ep, err := runIngestEpisode(o, dir, sc.ingestUsers, base, batches, tr, wp)
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
		if tr != nil {
			if err := probeRecovery(o, dir); err != nil {
				return nil, err
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	rt1 := readRuntime()
	runtimeLayer(o, rt0, rt1)

	var (
		setups, heaps, recov []float64
		p50s, rates          []float64
		lats                 []timedSample
		offset               time.Duration
		acked                int
		e                    ingestEpisode
	)
	for _, ep := range eps {
		setups = append(setups, ep.setup.Seconds())
		heaps = append(heaps, ep.heapMB)
		recov = append(recov, ep.recovery.Seconds())
		for _, x := range ep.lats {
			lats = append(lats, timedSample{offset + x.at, x.lat})
		}
		offset += ep.load
		p50s = append(p50s, ms(percentile(durations(ep.lats), 0.5)))
		rates = append(rates, float64(ep.acked)/ep.load.Seconds())
		acked += ep.acked
		o.attempted += ep.attempted
		o.failed += ep.failed
		e.compile = append(e.compile, ep.compile...)
		e.submit = append(e.submit, ep.submit...)
		e.rtt = append(e.rtt, ep.rtt...)
		e.ackedBatches += ep.ackedBatches
		e.syncs += ep.syncs
		e.rows += ep.rows
		e.diskBytes += ep.diskBytes
		e.checkpoint += ep.checkpoint
	}
	o.e2e["setup_s"] = median(setups)
	o.e2e["heap_mb"] = median(heaps)
	o.tail(lats)
	o.e2e["p50_ms"] = median(p50s)
	o.e2e["throughput_per_s"] = median(rates)
	if tr == nil {
		return o, nil
	}

	// Per-layer metrics of the traced pass.
	n := float64(len(eps))
	o.layer["recovery_s"] = median(recov)
	o.layer["disk_bytes_per_stmt"] = float64(e.diskBytes) / float64(acked)
	o.layer["snapshot.checkpoint_s"] = e.checkpoint.Seconds() / n
	o.layer["store.rows_per_stmt"] = float64(e.rows) / float64(acked)
	if e.syncs > 0 {
		o.layer["store.batches_per_round"] = float64(e.ackedBatches) / float64(e.syncs)
	}
	o.layer["bsql.compile_us"] = medianUS(e.compile)
	o.layer["store.submit_us"] = medianUS(e.submit)
	o.layer["server.exec_self_us"] = medianUS(e.rtt) - medianUS(e.compile) - medianUS(e.submit)
	spans := tr.all()
	self := byName(spans, selfTimes(spans, wp.l.id, walOverlap))
	o.layer["store.apply_self_us"] = medianUS(self["DB.SubmitBatch"])
	wp.report(o, spans, acked)
	return o, probeIngestAllocs(o, filepath.Join(cfg.dir, "ingest-allocs"), sc.ingestUsers, batches)
}

func runIngestEpisode(o *outcome, dir string, users int, base *core.BeliefBase, batches []batch, tr *tracer, wp *walProbe) (*ingestEpisode, error) {
	ep := &ingestEpisode{}
	uninstall := wp.install()
	t0 := time.Now()
	db, err := beliefdb.OpenAt(dir, genSchema())
	if err == nil {
		err = ep.serveLoad(o, db, t0, users, batches, tr, wp)
		if cerr := db.Close(); err == nil {
			err = cerr
		}
	}
	uninstall()
	if err != nil {
		return nil, err
	}

	var acked []core.Statement
	for i, b := range batches {
		if ep.ackedAt[i] {
			acked = append(acked, b.stmts...)
			ep.ackedBatches++
		}
	}
	ep.acked = len(acked)
	if ep.diskBytes, err = dirBytes(dir); err != nil {
		return nil, err
	}

	t0 = time.Now()
	db, err = beliefdb.OpenAt(dir, genSchema())
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	ep.recovery = time.Since(t0)
	got, err := db.Statements()
	if err != nil {
		db.Close()
		return nil, err
	}
	o.check(slices.Equal(statementSet(got), statementSet(acked)),
		"ingest: reopened store holds %d statements, %d were acknowledged", len(got), len(acked))
	ref := base
	if len(acked) != base.Len() {
		ref = core.NewBeliefBase()
		for _, st := range acked {
			ref.Insert(st)
		}
	}
	checkWorlds(o, "ingest", db, ref, 25, int64(len(acked)))
	ep.heapMB = heapMB()
	return ep, db.Close()
}

// serveLoad registers the users on the freshly opened db, serves it, and
// pushes the batches through two connections; t0 is when set-up began.
func (ep *ingestEpisode) serveLoad(o *outcome, db *beliefdb.DB, t0 time.Time, users int, batches []batch, tr *tracer, wp *walProbe) error {
	if err := addUsers(users, db.AddUser); err != nil {
		return err
	}
	s, err := serve(db)
	if err != nil {
		return err
	}
	clis, err := s.dial(2)
	if err != nil {
		s.stop()
		return err
	}
	ep.setup = time.Since(t0)
	rows0 := db.Stats().TotalRows
	syncs0 := db.WALSyncs()

	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
		mid  = int64(len(batches) / 2)
	)
	ep.ackedAt = make([]bool, len(batches))
	ctx := context.Background()
	runtime.GC() // every episode starts its load from the same collector state
	wp.record(true)
	loadStart := time.Now()
	for _, cli := range clis {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := tr.log()
			var lats []timedSample
			var compile, submit, rtt []time.Duration
			var attempted, failed int64
			var cp time.Duration
			for {
				i := next.Add(1) - 1
				if i >= int64(len(batches)) {
					break
				}
				if i == mid {
					attempted++
					t := time.Now()
					if err := cli.Checkpoint(ctx); err != nil {
						failed++
					}
					cp = time.Since(t)
				}
				b := batches[i]
				attempted++
				var err error
				t := time.Now()
				if l != nil && i%2 == 1 {
					// Odd requests of a traced pass bypass the wire and make
					// the two calls the server makes for an ExecBatch.
					root := l.begin("request", i, -1)
					var pb *beliefdb.Batch
					c := l.begin("DB.ParseBatch", i, root)
					pb, err = db.ParseBatch(b.script)
					compile = append(compile, l.end(c))
					if err == nil {
						c = l.begin("DB.SubmitBatch", i, root)
						_, err = db.SubmitBatch(ctx, pb)
						submit = append(submit, l.end(c))
					}
					l.end(root)
				} else {
					root := l.begin("client.ExecBatch", i, -1)
					_, err = cli.ExecBatch(ctx, b.script)
					if d := l.end(root); l != nil {
						rtt = append(rtt, d)
					}
				}
				if err != nil {
					failed++
					lats = append(lats, timedSample{time.Since(loadStart), failedLatency})
					continue
				}
				lats = append(lats, timedSample{time.Since(loadStart), time.Since(t)})
				ep.ackedAt[i] = true
			}
			mu.Lock()
			defer mu.Unlock()
			ep.lats = append(ep.lats, lats...)
			ep.compile = append(ep.compile, compile...)
			ep.submit = append(ep.submit, submit...)
			ep.rtt = append(ep.rtt, rtt...)
			ep.attempted += attempted
			ep.failed += failed
			ep.checkpoint += cp
		}()
	}
	wg.Wait()
	ep.load = time.Since(loadStart)
	wp.record(false)
	ep.syncs = db.WALSyncs() - syncs0
	stats := db.Stats()
	ep.rows = stats.TotalRows - rows0
	o.layer["store.overhead"] = stats.Overhead()
	o.layer["store.states"] = float64(stats.States)
	closeAll(clis)
	return s.stop()
}

// probeRecovery splits recovery into snapshot load and WAL replay: it
// reopens the episode's directory, checkpoints, and reopens it again, so
// the second open loads the snapshot with an empty WAL tail.
func probeRecovery(o *outcome, dir string) error {
	t0 := time.Now()
	db, err := beliefdb.OpenAt(dir, genSchema())
	if err != nil {
		return err
	}
	full := time.Since(t0)
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return err
	}
	if err := db.Close(); err != nil {
		return err
	}
	if fi, err := os.Stat(filepath.Join(dir, store.SnapshotFileName)); err == nil {
		o.layer["snapshot.bytes"] = float64(fi.Size())
	}
	t0 = time.Now()
	db, err = beliefdb.OpenAt(dir, genSchema())
	if err != nil {
		return err
	}
	load := time.Since(t0)
	o.layer["snapshot.load_s"] = load.Seconds()
	o.layer["wal.replay_s"] = (full - load).Seconds()
	return db.Close()
}

// probeIngestAllocs measures allocations per statement over a serial pass
// of the same stream through DB.ExecBatch on a fresh durable store.
func probeIngestAllocs(o *outcome, dir string, users int, batches []batch) error {
	defer os.RemoveAll(dir)
	db, err := beliefdb.OpenAt(dir, genSchema())
	if err != nil {
		return err
	}
	defer db.Close()
	if err := addUsers(users, db.AddUser); err != nil {
		return err
	}
	a := readRuntime()
	n := 0
	for _, b := range batches {
		if _, err := db.ExecBatch(b.script); err != nil {
			return err
		}
		n += len(b.stmts)
	}
	b := readRuntime()
	o.layer["store.allocs_per_stmt"] = float64(b.allocs-a.allocs) / float64(n)
	o.layer["store.alloc_bytes_per_stmt"] = float64(b.allocBytes-a.allocBytes) / float64(n)
	return db.Close()
}
