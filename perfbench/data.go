package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"beliefdb"
	"beliefdb/client"
	"beliefdb/internal/bench"
	"beliefdb/internal/core"
	"beliefdb/internal/gen"
	"beliefdb/internal/server"
	"beliefdb/internal/val"
)

// config is one invocation of a workload.
type config struct {
	name    string
	seed    int64
	seconds time.Duration
	work    string // root for durable stores and span logs
	dir     string // this invocation's private directory under work
	scale   scale

	// corrupt, when set, receives the query workload's reference answers
	// before they are used; tests use it to plant a wrong reference.
	corrupt func(refs map[string]answer)
}

// workloadFunc runs one pass of a workload; tr is nil for an untraced pass.
type workloadFunc func(cfg config, tr *tracer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"ingest": runIngest,
	"query":  runQuery,
	"mixed":  runMixed,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// scale sizes every workload. paperScale is what the benchmark runs;
// tests use a tiny one.
type scale struct {
	setupReps int // set-ups per untraced run; setup_s is their median

	ingestStmts      int     // statements per ingest episode
	ingestEpisodeSec float64 // nominal episode length; a run has seconds/this episodes
	ingestUsers      int
	queryN           int // annotations in the query dataset
	mixedN           int // annotations preloaded in mixed
	mixedRate        float64
	serialProbes     int // serial executions per query in the allocation probe
	pings            int
	expectedRows     []int // Table 2 result sizes at queryN, seed 3; nil skips
	referenceSeed    int64 // dataset seed of query and mixed (the paper's Table 2)
}

var paperScale = scale{
	setupReps:        3,
	ingestStmts:      1200,
	ingestEpisodeSec: 4.2,
	ingestUsers:      100,
	queryN:           10000,
	mixedN:           2000,
	mixedRate:        300,
	serialProbes:     5,
	pings:            500,
	expectedRows:     []int{1654, 2446, 1998, 2437, 1999, 1493, 9},
	referenceSeed:    3,
}

// genSchema is the schema of the generator's relation S(sid, observer,
// species, date, location).
func genSchema() beliefdb.Schema {
	return beliefdb.Schema{Relations: []beliefdb.Relation{bench.GenRelation()}}
}

// addUsers registers u1..um through add, checking that ids come out 1..m as
// the generator numbers them.
func addUsers(m int, add func(name string) (beliefdb.UserID, error)) error {
	for i := 1; i <= m; i++ {
		id, err := add(fmt.Sprintf("u%d", i))
		if err != nil {
			return err
		}
		if int(id) != i {
			return fmt.Errorf("user u%d got id %d", i, id)
		}
	}
	return nil
}

// renderInsert renders a statement as a BeliefSQL INSERT over users u1..um.
func renderInsert(sb *strings.Builder, s core.Statement) {
	sb.WriteString("insert into ")
	for _, u := range s.Path {
		fmt.Fprintf(sb, "BELIEF 'u%d' ", u)
	}
	if s.Sign == core.Neg {
		sb.WriteString("not ")
	}
	sb.WriteString(s.Tuple.Rel)
	sb.WriteString(" values (")
	for i, v := range s.Tuple.Vals {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.SQL())
	}
	sb.WriteString(");")
}

// answer is an order-independent fingerprint of a result: its row count and
// a sum of mixed row hashes, so two results with the same multiset of rows
// (under the engine's value equality) fingerprint equally.
type answer struct {
	rows int
	sum  uint64
}

func fingerprint(rows [][]val.Value) answer {
	a := answer{rows: len(rows)}
	for _, r := range rows {
		h := val.HashRow(0, r)
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		a.sum += h
	}
	return a
}

// statementSet renders statements as a sorted list of their text forms.
func statementSet(stmts []core.Statement) []string {
	out := make([]string, len(stmts))
	for i, s := range stmts {
		out[i] = s.String()
	}
	slices.Sort(out)
	return out
}

// worldLines renders a belief world as sorted "tuple sign explicit" lines.
func worldLines(entries []beliefdb.BeliefEntry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = fmt.Sprintf("%s %s %v", e.Tuple, e.Sign, e.Explicit)
	}
	slices.Sort(out)
	return out
}

func refWorldLines(w *core.World) []string {
	var out []string
	for _, s := range []core.Sign{core.Pos, core.Neg} {
		for _, e := range w.Entries(s) {
			out = append(out, fmt.Sprintf("%s %s %v", e.Tuple, s, e.Explicit))
		}
	}
	slices.Sort(out)
	return out
}

// checkWorlds compares up to n sampled belief worlds of db against the
// reference belief base.
func checkWorlds(o *outcome, label string, db *beliefdb.DB, base *core.BeliefBase, n int, seed int64) {
	paths := base.SupportPaths()
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
	if len(paths) > n {
		paths = paths[:n]
	}
	for _, p := range paths {
		got, err := db.World(p)
		if err != nil {
			o.check(false, "%s: World(%s): %v", label, p, err)
			continue
		}
		o.check(slices.Equal(worldLines(got), refWorldLines(base.EntailedWorld(p))),
			"%s: World(%s) differs from the reference", label, p)
	}
}

// loadTable2 builds the Table 2 dataset (n annotations, m=10, seed) into db
// through the store's bulk loader, as beliefbench does.
func loadTable2(db *beliefdb.DB, n int, seed int64) error {
	if err := addUsers(10, db.AddUser); err != nil {
		return err
	}
	g, err := gen.New(table2Config(n, seed))
	if err != nil {
		return err
	}
	return db.Store().BulkLoad(func(insert func(core.Statement) (bool, error)) error {
		_, _, err := g.Load(n, insert)
		return err
	})
}

func table2Config(n int, seed int64) gen.Config {
	return gen.Config{
		Users:         10,
		DepthDist:     bench.Table2DepthDist,
		Participation: gen.Zipf,
		ZipfS:         bench.Table2ZipfS,
		KeyPool:       max(8, n/4),
		Seed:          seed,
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return err
	})
	return total, err
}

// queryKey turns a Table 2 query name into a metric-name suffix (q1,0 →
// q1_0).
func queryKey(name string) string { return strings.ReplaceAll(name, ",", "_") }

// served is a beliefdb.DB behind an in-process server on a loopback port.
type served struct {
	db       *beliefdb.DB
	srv      *server.Server
	addr     string
	serveErr chan error
}

// serve starts a server over db with beliefserver's defaults (its commit
// window and request timeout).
func serve(db *beliefdb.DB) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{db: db, srv: server.New(db, server.WithRequestTimeout(30*time.Second)),
		addr: ln.Addr().String(), serveErr: make(chan error, 1)}
	go func() { s.serveErr <- s.srv.Serve(ln) }()
	return s, nil
}

// dial opens n single-connection clients to the server.
func (s *served) dial(n int) ([]*client.Client, error) {
	clis := make([]*client.Client, 0, n)
	for i := 0; i < n; i++ {
		c, err := client.Dial(s.addr, client.Options{PoolSize: 1})
		if err != nil {
			closeAll(clis)
			return nil, err
		}
		clis = append(clis, c)
	}
	return clis, nil
}

func closeAll(clis []*client.Client) {
	for _, c := range clis {
		c.Close()
	}
}

// stop drains the server; the database stays open.
func (s *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.serveErr; err == nil {
		err = serr
	}
	return err
}
