package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"beliefdb"
	"beliefdb/client"
	"beliefdb/internal/bench"
	"beliefdb/internal/bsql"
	"beliefdb/internal/query"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/wire"
)

// failedLatency stands in for the latency of a failed request: it misses
// every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// table2 is one of the paper's seven Table 2 queries with its translation.
type table2 struct {
	name, key, text, sql string
	stmt                 sqlparser.Statement
}

// prepareTable2 translates the Table 2 queries against db once, for the
// reference answers and the allocation probe.
func prepareTable2(db *beliefdb.DB) ([]table2, error) {
	var out []table2
	for _, q := range bench.Table2Queries() {
		sql, err := db.Translate(q.Query)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		out = append(out, table2{name: q.Name, key: queryKey(q.Name), text: q.Query, sql: sql, stmt: stmt})
	}
	return out, nil
}

// queryLayers is what one query spent in each layer.
type queryLayers struct {
	parse, translate, sqlparse, run time.Duration
	sqlBytes                        int
}

// shadowQuery runs a BeliefSQL SELECT through the calls DB.Query is made
// of — bsql.Parse, Translator.TranslateSelect, sqlparser.Parse and
// query.Run on the pinned snapshot — each in its own span under parent.
func shadowQuery(l *spanLog, req int64, parent int, tr *bsql.Translator, db *beliefdb.DB, text string) (queryLayers, error) {
	var ql queryLayers
	i := l.begin("bsql.Parse", req, parent)
	stmt, err := bsql.Parse(text)
	ql.parse = l.end(i)
	if err != nil {
		return ql, err
	}
	sel, ok := stmt.(bsql.Select)
	if !ok {
		return ql, fmt.Errorf("not a SELECT: %q", text)
	}
	i = l.begin("bsql.TranslateSelect", req, parent)
	sql, err := tr.TranslateSelect(sel)
	ql.translate = l.end(i)
	if err != nil {
		return ql, err
	}
	ql.sqlBytes = len(sql)
	i = l.begin("sqlparser.Parse", req, parent)
	pstmt, err := sqlparser.Parse(sql)
	ql.sqlparse = l.end(i)
	if err != nil {
		return ql, err
	}
	i = l.begin("query.Run", req, parent)
	_, err = query.Run(db.Store().DB().Snapshot(), pstmt)
	ql.run = l.end(i)
	return ql, err
}

// queryLayerStats accumulates the query-path layer samples of a pass.
type queryLayerStats struct {
	mu                         sync.Mutex
	parse, translate, sqlparse []time.Duration
	runByQuery                 map[string][]time.Duration
	serverSelf                 []time.Duration
	sqlBytes, resultBytes      []float64
}

func (s *queryLayerStats) add(key string, ql queryLayers, rtt time.Duration, resultBytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runByQuery == nil {
		s.runByQuery = map[string][]time.Duration{}
	}
	s.parse = append(s.parse, ql.parse)
	s.translate = append(s.translate, ql.translate)
	s.sqlparse = append(s.sqlparse, ql.sqlparse)
	s.runByQuery[key] = append(s.runByQuery[key], ql.run)
	s.sqlBytes = append(s.sqlBytes, float64(ql.sqlBytes))
	if rtt > 0 {
		s.serverSelf = append(s.serverSelf, rtt-ql.parse-ql.translate-ql.sqlparse-ql.run)
		s.resultBytes = append(s.resultBytes, float64(resultBytes))
	}
}

func (s *queryLayerStats) report(o *outcome) {
	o.layer["bsql.parse_us"] = medianUS(s.parse)
	o.layer["bsql.translate_us"] = medianUS(s.translate)
	o.layer["sqlparser.parse_us"] = medianUS(s.sqlparse)
	o.layer["sqlparser.sql_bytes"] = median(s.sqlBytes)
	for k, ds := range s.runByQuery {
		o.layer["query.run_us."+k] = medianUS(ds)
	}
	if len(s.serverSelf) > 0 {
		o.layer["server.query_self_us"] = medianUS(s.serverSelf)
		o.layer["wire.result_bytes_per_query"] = median(s.resultBytes)
	}
}

// probeQueries measures the query layer alone, serially and with nothing
// else running: allocations per query.Run, and EXPLAIN's per-step rows over
// the result rows.
func probeQueries(o *outcome, db *beliefdb.DB, qs []table2, reps int) error {
	var allocs, bytes uint64
	examined, results := 0, 0
	for _, q := range qs {
		snap := db.Store().DB().Snapshot()
		a := readRuntime()
		for i := 0; i < reps; i++ {
			if _, err := query.Run(snap, q.stmt); err != nil {
				return fmt.Errorf("%s: %w", q.name, err)
			}
		}
		b := readRuntime()
		allocs += b.allocs - a.allocs
		bytes += b.allocBytes - a.allocBytes
		res, err := db.Store().DB().Query(q.sql)
		if err != nil {
			return err
		}
		results += len(res.Rows)
		plan, err := db.Store().DB().Query("EXPLAIN " + q.sql)
		if err != nil {
			return fmt.Errorf("%s: EXPLAIN: %w", q.name, err)
		}
		for _, step := range plan.Rows {
			examined += int(step[len(step)-1].AsInt())
		}
	}
	n := float64(reps * len(qs))
	o.layer["query.allocs_per_query"] = float64(allocs) / n
	o.layer["query.alloc_bytes_per_query"] = float64(bytes) / n
	o.layer["query.result_rows"] = float64(results)
	if results > 0 {
		o.layer["query.rows_examined_per_row"] = float64(examined) / float64(results)
	}
	return nil
}

// queryOrder deals query indexes in rounds: every round is a fresh seeded
// permutation of all queries, so each query's share of a run is fixed and
// only the order depends on the seed.
type queryOrder struct {
	r    *rand.Rand
	n    int
	perm []int
}

func newQueryOrder(n int, seed int64) *queryOrder {
	return &queryOrder{r: rand.New(rand.NewSource(seed)), n: n}
}

func (o *queryOrder) next() int {
	if len(o.perm) == 0 {
		o.perm = o.r.Perm(o.n)
	}
	i := o.perm[0]
	o.perm = o.perm[1:]
	return i
}

// geomeanP50 is the geometric mean over the queries of each query's median
// latency, in milliseconds, as TPC-H's power metric summarizes a query set.
// The pooled median of the seven queries would fall in the gap between the
// light content queries and the heavy q2/q3, where a small shift of the mix
// moves it by a quarter; each query's own median sits in its dense middle.
func geomeanP50(byQuery map[string][]time.Duration) float64 {
	if len(byQuery) == 0 {
		return 0
	}
	var logSum float64
	for _, ds := range byQuery {
		logSum += math.Log(ms(percentile(ds, 0.5)))
	}
	return math.Exp(logSum / float64(len(byQuery)))
}

// startQuery builds the Table 2 dataset in memory and serves it.
func startQuery(sc scale) (*served, error) {
	db, err := beliefdb.Open(genSchema())
	if err != nil {
		return nil, err
	}
	if err := loadTable2(db, sc.queryN, sc.referenceSeed); err != nil {
		db.Close()
		return nil, err
	}
	s, err := serve(db)
	if err != nil {
		db.Close()
	}
	return s, err
}

// runQuery is the query workload: the paper's Table 2 dataset served
// in-process, two connections running the seven queries closed-loop in a
// seeded order. Every answer is checked against the reference computed
// through the embedded API at set-up.
func runQuery(cfg config, tr *tracer) (*outcome, error) {
	o := newOutcome()
	sc := cfg.scale
	reps := sc.setupReps
	if tr != nil {
		reps = 1
	}
	var (
		s      *served
		clis   []*client.Client
		setups []float64
	)
	for i := 0; i < reps; i++ {
		if s != nil {
			closeAll(clis)
			s.stop()
			s.db.Close()
			s, clis = nil, nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if s, err = startQuery(sc); err != nil {
			return nil, err
		}
		if clis, err = s.dial(2); err != nil {
			s.stop()
			s.db.Close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		closeAll(clis)
		s.stop()
		s.db.Close()
	}()
	o.e2e["setup_s"] = median(setups)

	qs, err := prepareTable2(s.db)
	if err != nil {
		return nil, err
	}
	refs := map[string]answer{}
	for i, q := range qs {
		res, err := s.db.Query(q.text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		refs[q.name] = fingerprint(res.Rows)
		if sc.expectedRows != nil {
			o.check(len(res.Rows) == sc.expectedRows[i], "%s: reference has %d rows, want %d", q.name, len(res.Rows), sc.expectedRows[i])
		}
	}
	if cfg.corrupt != nil {
		cfg.corrupt(refs)
	}
	stats := s.db.Stats()
	o.layer["store.overhead"] = stats.Overhead()
	o.layer["store.states"] = float64(stats.States)

	btr := bsql.NewTranslator(s.db.Store())
	var (
		mu         sync.Mutex
		lats       []timedSample
		byQuery    = map[string][]time.Duration{}
		mismatches = map[string]int{}
		ls         queryLayerStats
		wg         sync.WaitGroup
	)
	runtime.GC() // every run starts its load from the same collector state
	rt0 := readRuntime()
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	for g := range clis {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := tr.log()
			order := newQueryOrder(len(qs), cfg.seed*7919+int64(g))
			var local []timedSample
			perQuery := map[string][]time.Duration{}
			var ok, failed int64
			bad := map[string]int{}
			for i := int64(0); time.Now().Before(deadline); i++ {
				q := qs[order.next()]
				req := int64(g)<<40 | i
				root := l.begin("client.Query "+q.key, req, -1)
				t0 := time.Now()
				res, err := clis[g].Query(context.Background(), q.text)
				rtt := time.Since(t0)
				l.end(root)
				if err != nil {
					failed++
					rtt = failedLatency
				}
				local = append(local, timedSample{time.Since(start), rtt})
				perQuery[q.key] = append(perQuery[q.key], rtt)
				if err != nil {
					continue
				}
				ok++
				if fingerprint(res.Rows) != refs[q.name] {
					bad[q.name]++
				}
				if l != nil {
					shadow := l.begin("shadow", req, -1)
					ql, err := shadowQuery(l, req, shadow, btr, s.db, q.text)
					l.end(shadow)
					if err != nil {
						bad[q.name+" (shadow)"]++
						continue
					}
					size := 0
					for _, row := range res.Rows {
						size += wire.RowSize(row)
					}
					ls.add(q.key, ql, rtt, size)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			lats = append(lats, local...)
			for k, ds := range perQuery {
				byQuery[k] = append(byQuery[k], ds...)
			}
			o.attempted += ok + failed
			o.failed += failed
			for k, v := range bad {
				mismatches[k] += v
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	rt1 := readRuntime()
	runtimeLayer(o, rt0, rt1)
	for name, n := range mismatches {
		o.check(false, "%s: %d answers differ from the reference", name, n)
	}
	o.tail(lats)
	o.e2e["p50_ms"] = geomeanP50(byQuery)
	o.e2e["throughput_per_s"] = windowRate(lats, elapsed)

	if tr != nil {
		ls.report(o)
		if err := probeQueries(o, s.db, qs, sc.serialProbes); err != nil {
			return nil, err
		}
		var pings []time.Duration
		for i := 0; i < sc.pings; i++ {
			t0 := time.Now()
			if err := clis[0].Ping(context.Background()); err != nil {
				return nil, err
			}
			pings = append(pings, time.Since(t0))
		}
		o.layer["wire.ping_rtt_us"] = medianUS(pings)
	}
	o.e2e["heap_mb"] = heapMB()
	return o, nil
}
