package store_test

// A semantic oracle for the store's write path: random histories of
// inserts, deletes, replaces and multi-statement groups (with intra-group
// conflicts), committed through Store.Apply in rounds of several groups,
// must leave every store shape — eager, lazy, durable after reopen — in the
// state the paper's reference semantics prescribes: the declarative closure
// of core.BeliefBase and the canonical Kripke structure of internal/kripke.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"beliefdb/internal/core"
	"beliefdb/internal/gen"
	"beliefdb/internal/kripke"
	"beliefdb/internal/store"
	"beliefdb/internal/val"
	"beliefdb/internal/wal"
)

// history is a random write history plus what the oracle expects of it.
type history struct {
	rounds [][]store.Group
	want   [][]oracleOutcome
	base   *core.BeliefBase // the reference state after the whole history
	paths  []core.Path      // every path an applied insert named
}

// oracleOutcome is the reference outcome of one group.
type oracleOutcome struct {
	res  store.BatchResult
	fail bool
}

// newHistory draws about n groups over users, applying each to the
// reference base as it goes so deletes and replaces can target statements
// that exist.
func newHistory(r *rand.Rand, users []core.UserID, n int) *history {
	h := &history{base: core.NewBeliefBase()}
	for drawn := 0; drawn < n; {
		round := make([]store.Group, 1+r.Intn(3))
		want := make([]oracleOutcome, len(round))
		for i := range round {
			round[i].Ops = h.randomOps(r, users)
			nb, res, err := oracleApply(h.base, round[i].Ops)
			want[i] = oracleOutcome{res: res, fail: err != nil}
			if err == nil {
				h.base = nb
				for _, op := range round[i].Ops {
					if op.Kind == wal.KindInsert {
						h.paths = append(h.paths, op.Stmt.Path)
					}
				}
			}
		}
		h.rounds = append(h.rounds, round)
		h.want = append(h.want, want)
		drawn += len(round)
	}
	return h
}

// randomOps draws one group: usually a single statement, otherwise two to
// four. A small key pool and two attribute variants make conflicts — Γ1
// between different tuples of one key, Γ2 between signs — common, inside a
// group as well as across groups.
func (h *history) randomOps(r *rand.Rand, users []core.UserID) []wal.Op {
	n := 1
	if r.Intn(2) == 0 {
		n = 2 + r.Intn(3)
	}
	stated := h.base.Statements()
	ops := make([]wal.Op, n)
	for i := range ops {
		k := r.Intn(10)
		switch {
		case k < 6 || len(stated) == 0:
			ops[i] = wal.Insert(randomStatement(r, users))
		case k < 8:
			victim := stated[r.Intn(len(stated))]
			if r.Intn(5) == 0 {
				victim = randomStatement(r, users) // usually absent: a no-op
			}
			ops[i] = wal.Delete(victim)
		default:
			old := stated[r.Intn(len(stated))]
			vals := slices.Clone(old.Tuple.Vals)
			vals[2] = val.Str(fmt.Sprintf("v%d", r.Intn(2)))
			if r.Intn(3) == 0 {
				vals[0] = val.Str(fmt.Sprintf("k%d", r.Intn(4)))
			}
			ops[i] = wal.Replace(old, vals)
		}
	}
	return ops
}

func randomStatement(r *rand.Rand, users []core.UserID) core.Statement {
	cols := gen.RelColumns()
	vals := make([]val.Value, len(cols))
	vals[0] = val.Str(fmt.Sprintf("k%d", r.Intn(4)))
	for j := 1; j < len(vals); j++ {
		vals[j] = val.Str(fmt.Sprintf("v%d", r.Intn(2)))
	}
	sign := core.Pos
	if r.Intn(10) < 3 {
		sign = core.Neg
	}
	return core.Statement{Path: randomPath(r, users), Sign: sign, Tuple: core.Tuple{Rel: gen.DefaultRel, Vals: vals}}
}

// oracleApply applies a group to a copy of base with the reference
// semantics: statements in order, all-or-nothing.
func oracleApply(base *core.BeliefBase, ops []wal.Op) (*core.BeliefBase, store.BatchResult, error) {
	nb := base.Clone()
	res := store.BatchResult{Applied: len(ops), ChangedOps: make([]bool, len(ops))}
	for i, op := range ops {
		var changed bool
		var err error
		switch op.Kind {
		case wal.KindInsert:
			changed, err = nb.Insert(op.Stmt)
		case wal.KindDelete:
			changed = nb.Delete(op.Stmt)
		case wal.KindReplace:
			if changed = nb.Delete(op.Stmt); changed {
				_, err = nb.Insert(core.Statement{Path: op.Stmt.Path, Sign: op.Stmt.Sign,
					Tuple: core.Tuple{Rel: op.Stmt.Tuple.Rel, Vals: op.NewVals}})
			}
		}
		if err != nil {
			return base, store.BatchResult{}, err
		}
		if changed {
			res.ChangedOps[i] = true
			res.Changed++
		}
	}
	return nb, res, nil
}

// run commits the history on st round by round and checks every group's
// outcome against the oracle's.
func (h *history) run(t *testing.T, label string, st *store.Store) bool {
	t.Helper()
	for ri, round := range h.rounds {
		outs := st.Apply(round)
		for i, o := range outs {
			want := h.want[ri][i]
			if (o.Err != nil) != want.fail {
				t.Logf("%s: round %d group %d %v: err=%v, oracle fails=%v", label, ri, i, round[i].Ops, o.Err, want.fail)
				return false
			}
			if o.Err == nil && fmt.Sprint(o.Res) != fmt.Sprint(want.res) {
				t.Logf("%s: round %d group %d %v: result %+v, oracle %+v", label, ri, i, round[i].Ops, o.Res, want.res)
				return false
			}
		}
	}
	return true
}

// matchesOracle compares a store with the reference state base. The
// store keeps every state a committed insert ever created (states are never
// garbage-collected), so its states and edges are checked against the
// canonical structure over paths — the prefix closure of every path an
// applied insert named — and its world contents against base's closure:
// on every state (with explicitness flags where the state supports current
// statements), on random off-state paths, and as the explicit statement
// set.
func matchesOracle(t *testing.T, label string, st *store.Store, base *core.BeliefBase, paths []core.Path, users []core.UserID, r *rand.Rand) bool {
	t.Helper()
	shapeBase := core.NewBeliefBase()
	for _, p := range paths {
		if _, err := shapeBase.Insert(core.Statement{Path: p, Sign: core.Pos,
			Tuple: core.NewTuple("shape", val.Str(p.Key()))}); err != nil {
			t.Fatal(err)
		}
	}
	shape := kripke.Build(shapeBase, users)
	content := kripke.Build(base, users)

	stats := st.Stats()
	if stats.States != shape.Len() {
		t.Logf("%s: N store=%d oracle=%d", label, stats.States, shape.Len())
		return false
	}
	if stats.TableRows["_e"] != shape.EdgeCount() {
		t.Logf("%s: |E| store=%d oracle=%d", label, stats.TableRows["_e"], shape.EdgeCount())
		return false
	}
	res, err := st.DB().Query("select wid1, uid, wid2 from _e")
	if err != nil {
		t.Fatal(err)
	}
	edges := make(map[[3]int64]bool, len(res.Rows))
	for _, row := range res.Rows {
		edges[[3]int64{row[0].AsInt(), row[1].AsInt(), row[2].AsInt()}] = true
	}
	for _, s := range shape.States() {
		wid, ok := st.WidOf(s.Path)
		if !ok {
			t.Logf("%s: state %s missing from the store", label, s.Path)
			return false
		}
		for u, target := range s.Edges {
			to, _ := st.WidOf(shape.State(target).Path)
			if !edges[[3]int64{wid, int64(u), to}] {
				t.Logf("%s: edge %s -%d-> %s missing", label, s.Path, u, shape.State(target).Path)
				return false
			}
		}
	}

	for _, s := range shape.States() {
		w, err := st.WorldContent(s.Path)
		if err != nil {
			t.Fatal(err)
		}
		if !w.Equal(base.EntailedWorld(s.Path)) {
			t.Logf("%s: world %s differs:\n store=%s\n oracle=%s", label, s.Path, w, base.EntailedWorld(s.Path))
			return false
		}
		if ks, ok := content.StateOf(s.Path); ok && !w.EqualWithFlags(ks.World) {
			t.Logf("%s: world %s differs from kripke:\n store=%s\n kripke=%s", label, s.Path, w, ks.World)
			return false
		}
	}
	for probe := 0; probe < 20; probe++ {
		p := randomPath(r, users)
		w, err := st.WorldContent(p)
		if err != nil {
			t.Fatal(err)
		}
		if !w.Equal(base.EntailedWorld(p)) {
			t.Logf("%s: off-state world %s differs", label, p)
			return false
		}
	}

	stmts, err := st.ExplicitStatements()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := statementSet(stmts), statementSet(base.Statements()); got != want || st.Len() != base.Len() {
		t.Logf("%s: explicit statements differ (Len %d vs %d):\n store=%s\n oracle=%s", label, st.Len(), base.Len(), got, want)
		return false
	}
	return true
}

func statementSet(stmts []core.Statement) string {
	out := make([]string, len(stmts))
	for i, s := range stmts {
		out[i] = s.String()
	}
	slices.Sort(out)
	return fmt.Sprint(out)
}

// storeShapes opens each store shape the oracle histories run on. A
// shape's reopen is nil when it has no durable directory.
func storeShapes(t *testing.T) []struct {
	name   string
	open   func() (*store.Store, error)
	reopen func() (*store.Store, error)
} {
	dir := t.TempDir()
	rels := []store.Relation{genRelation()}
	return []struct {
		name   string
		open   func() (*store.Store, error)
		reopen func() (*store.Store, error)
	}{
		{"eager", func() (*store.Store, error) { return store.Open(rels) }, nil},
		{"lazy", func() (*store.Store, error) { return store.OpenLazy(rels) }, nil},
		{"durable", func() (*store.Store, error) { return store.OpenAt(dir, rels) },
			func() (*store.Store, error) { return store.OpenAt(dir, rels) }},
	}
}

// checkHistory runs one random history on every store shape.
func checkHistory(t *testing.T, seed int64, r *rand.Rand, m int) bool {
	t.Helper()
	users := make([]core.UserID, m)
	for i := range users {
		users[i] = core.UserID(i + 1)
	}
	h := newHistory(r, users, 10+r.Intn(25))
	for _, shape := range storeShapes(t) {
		label := fmt.Sprintf("seed %d %s", seed, shape.name)
		st, err := shape.open()
		if err != nil {
			t.Fatal(err)
		}
		for i := range users {
			if uid, err := st.AddUser(fmt.Sprintf("user%d", i+1)); err != nil || uid != users[i] {
				t.Fatalf("%s: AddUser = %d, %v", label, uid, err)
			}
		}
		if !h.run(t, label, st) || !matchesOracle(t, label, st, h.base, h.paths, users, r) {
			return false
		}
		if shape.reopen == nil {
			continue
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := shape.reopen()
		if err != nil {
			t.Fatal(err)
		}
		ok := matchesOracle(t, label+" reopened", re, h.base, h.paths, users, r)
		re.Close()
		if !ok {
			return false
		}
	}
	return true
}
