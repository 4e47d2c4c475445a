package store

// Tests for the group-commit batch pipeline: equivalence with the
// per-statement update algorithms, all-or-nothing rollback, crash
// injection across batch commit boundaries, and the WAL-ordering fixes
// (journal-after-Begin, durable truncation) this PR ships with it.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"beliefdb/internal/core"
	"beliefdb/internal/gen"
	"beliefdb/internal/val"
	"beliefdb/internal/wal"
)

// batchStep is one unit of the batch crash script: a single-statement op or
// a whole batch, each atomic on its own.
type batchStep struct {
	name string
	do   func(st *Store) error
}

func insStep(p core.Path, sg core.Sign, rel, k, a string) batchStep {
	return batchStep{fmt.Sprintf("insert %v %s", p, k), func(st *Store) error {
		_, err := st.Insert(crashStmt(p, sg, rel, k, a))
		return err
	}}
}

func batchStepOf(name string, ops ...wal.Op) batchStep {
	return batchStep{name, func(st *Store) error {
		_, err := applyOps(st, ops)
		return err
	}}
}

func bIns(p core.Path, sg core.Sign, rel, k, a string) wal.Op {
	return wal.Insert(crashStmt(p, sg, rel, k, a))
}

func bDel(p core.Path, sg core.Sign, rel, k, a string) wal.Op {
	return wal.Delete(crashStmt(p, sg, rel, k, a))
}

// applyOps commits ops through Apply as one untokened group.
func applyOps(st *Store, ops []wal.Op) (BatchResult, error) {
	return applyOpsToken(st, ops, "")
}

// applyOpsToken commits ops through Apply as one group carrying token.
func applyOpsToken(st *Store, ops []wal.Op, token string) (BatchResult, error) {
	o := st.Apply([]Group{{Ops: ops, Token: token}})[0]
	return o.Res, o.Err
}

// applyRound commits several groups through one Apply round; tokens are
// absent or parallel to groups.
func applyRound(st *Store, groups [][]wal.Op, tokens ...string) []Outcome {
	gs := make([]Group, len(groups))
	for i, ops := range groups {
		gs[i].Ops = ops
		if len(tokens) > 0 {
			gs[i].Token = tokens[i]
		}
	}
	return st.Apply(gs)
}

// batchScript mixes single-statement mutations with batches that insert,
// delete, create worlds mid-batch, and touch several relations and keys —
// every group-commit shape the recovery path must reproduce.
func batchScript() []batchStep {
	return []batchStep{
		{"adduser u1", func(st *Store) error { _, err := st.AddUser("u1"); return err }},
		{"adduser u2", func(st *Store) error { _, err := st.AddUser("u2"); return err }},
		insStep(nil, core.Pos, "S", "k1", "bald eagle"),
		batchStepOf("batch ingest",
			bIns(core.Path{1}, core.Neg, "S", "k1", "bald eagle"),
			bIns(core.Path{1}, core.Pos, "S", "k2", "crow"),
			bIns(core.Path{2, 1}, core.Pos, "C", "c1", "found feathers"),
			bIns(core.Path{2}, core.Pos, "S", "k2", "raven"),
		),
		batchStepOf("batch mixed insert+delete",
			bIns(nil, core.Pos, "C", "c2", "root note"),
			bDel(core.Path{1}, core.Pos, "S", "k2", "crow"),
			bIns(core.Path{1, 2}, core.Pos, "S", "k3", "osprey"),
			bDel(nil, core.Pos, "S", "never-there", "x"), // no-op delete inside a batch
		),
		insStep(core.Path{2}, core.Neg, "S", "k3", "osprey"),
		batchStepOf("batch same-slice dedup",
			bIns(nil, core.Pos, "S", "k4", "heron"),
			bDel(nil, core.Pos, "S", "k4", "heron"),
			bIns(nil, core.Pos, "S", "k4", "grey heron"),
		),
		{"adduser u3", func(st *Store) error { _, err := st.AddUser("u3"); return err }},
		batchStepOf("batch new user world",
			bIns(core.Path{3}, core.Pos, "C", "c3", "late note"),
			bIns(core.Path{3, 1}, core.Pos, "S", "k1", "fish eagle"),
		),
	}
}

func buildBatchShadow(t *testing.T, n int) *Store {
	t.Helper()
	st, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range batchScript()[:n] {
		if err := s.do(st); err != nil {
			t.Fatalf("shadow step %d (%s): %v", i, s.name, err)
		}
	}
	return st
}

// TestApplyBatchMatchesSingles: the deferred, deduplicated reconciliation
// of a multi-statement Apply group must be observably identical to applying the same
// statements one at a time — on a generated workload (chunked at several
// sizes) and on the hand-written script with mid-batch deletes and world
// creation.
func TestApplyBatchMatchesSingles(t *testing.T) {
	_, stmts, err := gen.Statements(gen.Config{
		Users: 8, DepthDist: []float64{0.3, 0.4, 0.2, 0.1},
		Participation: gen.Zipf, KeyPool: 40, Seed: 17,
	}, 150)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Open([]Relation{GenTestRelation()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		single.AddUser(fmt.Sprintf("u%d", i))
	}
	for _, s := range stmts {
		if _, err := single.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, size := range []int{2, 7, 64, len(stmts)} {
		batched, err := Open([]Relation{GenTestRelation()})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 8; i++ {
			batched.AddUser(fmt.Sprintf("u%d", i))
		}
		for i := 0; i < len(stmts); i += size {
			end := min(i+size, len(stmts))
			ops := make([]wal.Op, 0, end-i)
			for _, s := range stmts[i:end] {
				ops = append(ops, wal.Insert(s))
			}
			res, err := applyOps(batched, ops)
			if err != nil {
				t.Fatalf("size %d: %v", size, err)
			}
			if res.Applied != len(ops) {
				t.Fatalf("size %d: applied %d of %d", size, res.Applied, len(ops))
			}
		}
		assertSameStore(t, fmt.Sprintf("batch size %d", size), single, batched)
	}

	// The scripted mix (deletes, no-ops, new worlds) agrees with applying
	// each batch's statements as singles.
	script := batchScript()
	viaBatches := buildBatchShadow(t, len(script))
	singles, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	singles.AddUser("u1")
	singles.AddUser("u2")
	apply := func(ops ...wal.Op) {
		for _, op := range ops {
			if op.Kind == wal.KindDelete {
				singles.Delete(op.Stmt)
			} else {
				if _, err := singles.Insert(op.Stmt); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	apply(bIns(nil, core.Pos, "S", "k1", "bald eagle"))
	apply(bIns(core.Path{1}, core.Neg, "S", "k1", "bald eagle"),
		bIns(core.Path{1}, core.Pos, "S", "k2", "crow"),
		bIns(core.Path{2, 1}, core.Pos, "C", "c1", "found feathers"),
		bIns(core.Path{2}, core.Pos, "S", "k2", "raven"))
	apply(bIns(nil, core.Pos, "C", "c2", "root note"),
		bDel(core.Path{1}, core.Pos, "S", "k2", "crow"),
		bIns(core.Path{1, 2}, core.Pos, "S", "k3", "osprey"),
		bDel(nil, core.Pos, "S", "never-there", "x"))
	apply(bIns(core.Path{2}, core.Neg, "S", "k3", "osprey"))
	apply(bIns(nil, core.Pos, "S", "k4", "heron"),
		bDel(nil, core.Pos, "S", "k4", "heron"),
		bIns(nil, core.Pos, "S", "k4", "grey heron"))
	singles.AddUser("u3")
	apply(bIns(core.Path{3}, core.Pos, "C", "c3", "late note"),
		bIns(core.Path{3, 1}, core.Pos, "S", "k1", "fish eagle"))
	assertSameStore(t, "scripted mix", singles, viaBatches)
}

// GenTestRelation mirrors bench.GenRelation without importing it (the
// bench package imports store).
func GenTestRelation() Relation {
	cols := make([]Column, 0, len(gen.RelColumns()))
	for _, c := range gen.RelColumns() {
		cols = append(cols, Column{Name: c, Type: val.KindString})
	}
	return Relation{Name: gen.DefaultRel, Columns: cols}
}

// TestBatchConflictRollsBackWhole: a mid-batch Γ2 conflict rolls back every
// statement of the batch — including worlds created by earlier members,
// whose logical catalog entries must be rewound alongside the table undo —
// and, on a durable store, replays to the same rollback after reopen.
func TestBatchConflictRollsBackWhole(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	st.AddUser("u1")
	st.AddUser("u2")
	if _, err := st.Insert(crashStmt(core.Path{1}, core.Pos, "S", "k1", "crow")); err != nil {
		t.Fatal(err)
	}

	before := st.Stats()
	_, err = applyOps(st, []wal.Op{
		bIns(nil, core.Pos, "S", "k9", "first"),
		bIns(core.Path{2, 1}, core.Pos, "C", "c9", "creates two worlds"),
		bIns(core.Path{1}, core.Neg, "S", "k1", "crow"), // Γ2: explicit positive exists
		bIns(nil, core.Pos, "S", "k10", "never reached"),
	})
	if err == nil {
		t.Fatal("conflicting batch should fail")
	}
	var conflict *ErrConflict
	if !errors.As(err, &conflict) {
		t.Errorf("error %v should wrap ErrConflict", err)
	}
	after := st.Stats()
	if before.String() != after.String() {
		t.Errorf("failed batch changed state:\nbefore %safter  %s", before, after)
	}

	// The batch is journaled; replay must reach the identical rollback.
	moreOps := []wal.Op{bIns(nil, core.Pos, "S", "k11", "post-conflict")}
	if _, err := applyOps(st, moreOps); err != nil {
		t.Fatal(err)
	}
	st.Close()

	re, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	shadow, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	shadow.AddUser("u1")
	shadow.AddUser("u2")
	shadow.Insert(crashStmt(core.Path{1}, core.Pos, "S", "k1", "crow"))
	shadow.Insert(crashStmt(nil, core.Pos, "S", "k11", "post-conflict"))
	assertSameStore(t, "conflict batch replay", shadow, re)
}

// TestBatchValidationRejectsWhole: validation failures surface before
// anything is journaled or applied.
func TestBatchValidationRejectsWhole(t *testing.T) {
	st, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	st.AddUser("u1")
	before := st.Stats()
	cases := [][]wal.Op{
		{bIns(nil, core.Pos, "S", "ok", "x"), bIns(nil, core.Pos, "Nope", "k", "x")},
		{bIns(nil, core.Pos, "S", "ok", "x"), bIns(core.Path{9}, core.Pos, "S", "k", "x")},
		{bIns(nil, core.Pos, "S", "ok", "x"), bIns(core.Path{1, 1}, core.Pos, "S", "k", "x")},
	}
	for i, ops := range cases {
		if _, err := applyOps(st, ops); err == nil {
			t.Errorf("case %d: invalid batch accepted", i)
		}
	}
	if after := st.Stats(); before.String() != after.String() {
		t.Errorf("rejected batches changed state:\nbefore %safter  %s", before, after)
	}
	if res, err := applyOps(st, nil); err != nil || res.Applied != 0 {
		t.Errorf("empty batch: %+v, %v", res, err)
	}
}

// TestBatchCrashInjectionSweep kills the WAL sink after every byte budget
// across a script of singles and batches, reopens, and asserts the
// recovered state equals the committed step prefix — a batch is recovered
// whole or not at all, never partially.
func TestBatchCrashInjectionSweep(t *testing.T) {
	script := batchScript()
	runSteps := func(t *testing.T, dir string, limit int64) int {
		t.Helper()
		wrapWALSink = func(s wal.Sink) wal.Sink { return &wal.LimitSink{W: s, Limit: limit} }
		defer func() { wrapWALSink = nil }()
		st, err := OpenAt(dir, crashRels())
		if err != nil {
			return -1
		}
		defer st.Close()
		committed := 0
		for _, step := range script {
			if err := step.do(st); err != nil {
				return committed
			}
			committed++
		}
		return committed
	}

	cleanDir := t.TempDir()
	if full := runSteps(t, cleanDir, 1<<30); full != len(script) {
		t.Fatalf("clean run committed %d/%d steps", full, len(script))
	}
	walSize, err := os.Stat(filepath.Join(cleanDir, WALFileName))
	if err != nil {
		t.Fatal(err)
	}

	shadows := map[int]*Store{}
	for limit := int64(0); limit <= walSize.Size(); limit += 11 {
		dir := t.TempDir()
		committed := runSteps(t, dir, limit)
		re, err := OpenAt(dir, crashRels())
		if err != nil {
			t.Fatalf("limit %d: reopen after crash: %v", limit, err)
		}
		wantN := max(committed, 0)
		shadow, ok := shadows[wantN]
		if !ok {
			shadow = buildBatchShadow(t, wantN)
			shadows[wantN] = shadow
		}
		assertSameStore(t, fmt.Sprintf("limit %d (%d steps committed)", limit, wantN), shadow, re)
		// The recovered store accepts new batches on its clean tail.
		if _, err := applyOps(re, []wal.Op{bIns(nil, core.Pos, "C", "post", "crash")}); err != nil {
			t.Fatalf("limit %d: batch after recovery: %v", limit, err)
		}
		re.Close()
	}
}

// TestBatchCheckpointRoundTrip: batches survive checkpoint + reopen, and a
// snapshot taken right after a batch skips exactly the batch's records
// (marker included) when the WAL was never truncated.
func TestBatchCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	script := batchScript()
	for _, s := range script[:5] {
		if err := s.do(st); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, s := range script[5:] {
		if err := s.do(st); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	re, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	assertSameStore(t, "checkpoint mid-script", buildBatchShadow(t, len(script)), re)
	re.Close()
}

// TestBeginFailureNotJournaled is the satellite-2 regression: a mutation
// whose engine transaction cannot open (here: a raw-SQL BEGIN holds the
// catalog's single transaction slot) must not leave a WAL record behind —
// before the fix the record was durable but never applied, and reopening
// resurrected the statement the caller saw fail.
func TestBeginFailureNotJournaled(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	st.AddUser("u1")
	if _, err := st.Insert(crashStmt(nil, core.Pos, "S", "k1", "kept")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.DB().Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert(crashStmt(nil, core.Pos, "S", "k2", "must fail")); err == nil {
		t.Fatal("Insert inside a foreign transaction should fail")
	}
	if _, err := st.Delete(crashStmt(nil, core.Pos, "S", "k1", "kept")); err == nil {
		t.Fatal("Delete inside a foreign transaction should fail")
	}
	if _, err := st.Replace(crashStmt(nil, core.Pos, "S", "k1", "kept"),
		core.Tuple{Rel: "S", Vals: []val.Value{val.Str("k1"), val.Str("renamed")}}); err == nil {
		t.Fatal("Replace inside a foreign transaction should fail")
	}
	if _, err := applyOps(st, []wal.Op{bIns(nil, core.Pos, "S", "k3", "batch must fail")}); err == nil {
		t.Fatal("a multi-statement group inside a foreign transaction should fail")
	}
	if _, err := st.DB().Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert(crashStmt(nil, core.Pos, "S", "k4", "after")); err != nil {
		t.Fatal(err)
	}
	st.Close()

	re, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	shadow, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	shadow.AddUser("u1")
	shadow.Insert(crashStmt(nil, core.Pos, "S", "k1", "kept"))
	shadow.Insert(crashStmt(nil, core.Pos, "S", "k4", "after"))
	assertSameStore(t, "begin-failure divergence", shadow, re)
}

// TestConflictRollbackRewindsWorlds: a single conflicting insert whose
// target world was created on the way must not leave the world registered
// in the path catalogs after the rollback (the map entries previously
// outlived their undone D/E/S rows).
func TestConflictRollbackRewindsWorlds(t *testing.T) {
	st, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	st.AddUser("u1")
	st.AddUser("u2")
	if _, err := st.Insert(crashStmt(nil, core.Pos, "S", "k1", "heron")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert(crashStmt(core.Path{1}, core.Pos, "S", "k2", "crow")); err != nil {
		t.Fatal(err)
	}
	before := st.Stats()
	if _, err := st.Insert(crashStmt(core.Path{1}, core.Neg, "S", "k2", "crow")); err == nil {
		t.Fatal("conflicting insert should fail")
	}
	if after := st.Stats(); before.String() != after.String() {
		t.Errorf("conflict changed state:\nbefore %safter  %s", before, after)
	}
	// Now a conflict inside a batch that first creates a brand-new world.
	before = st.Stats()
	_, err = applyOps(st, []wal.Op{
		bIns(core.Path{2, 1}, core.Pos, "C", "c1", "new worlds"),
		bIns(core.Path{1}, core.Neg, "S", "k2", "crow"),
	})
	if err == nil {
		t.Fatal("conflicting batch should fail")
	}
	if after := st.Stats(); before.String() != after.String() {
		t.Errorf("batch conflict leaked worlds:\nbefore %safter  %s", before, after)
	}
	if _, ok := st.WidOf(core.Path{2, 1}); ok {
		t.Error("rolled-back world {2,1} still registered in the path catalog")
	}
}

// TestBatchLazyStore: the lazy representation (explicit statements only)
// accepts batches too — deferral is a no-op there, but the commit boundary
// and atomicity are identical.
func TestBatchLazyStore(t *testing.T) {
	lazyB, err := OpenLazy(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	lazyS, err := OpenLazy(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{lazyB, lazyS} {
		st.AddUser("u1")
		st.AddUser("u2")
	}
	ops := []wal.Op{
		bIns(nil, core.Pos, "S", "k1", "bald eagle"),
		bIns(core.Path{1}, core.Neg, "S", "k1", "bald eagle"),
		bIns(core.Path{2, 1}, core.Pos, "C", "c1", "feathers"),
		bDel(nil, core.Pos, "S", "k1", "bald eagle"),
	}
	if _, err := applyOps(lazyB, ops); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if op.Kind == wal.KindDelete {
			if _, err := lazyS.Delete(op.Stmt); err != nil {
				t.Fatal(err)
			}
		} else if _, err := lazyS.Insert(op.Stmt); err != nil {
			t.Fatal(err)
		}
	}
	assertSameStore(t, "lazy batch", lazyS, lazyB)
}
