package store

// Exactly-once idempotency-token tests: dedup on the single-batch and
// group-commit paths, retry collisions inside one group-commit round, the
// FIFO bound, and table reconstruction from journaled markers on replay.

import (
	"fmt"
	"testing"

	"beliefdb/internal/core"
	"beliefdb/internal/wal"
)

func tokenStore(t *testing.T) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, dir
}

func countKey(t *testing.T, st *Store, key string) int {
	t.Helper()
	stmts, err := st.ExplicitStatements()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range stmts {
		if s.Tuple.Vals[0].AsString() == key {
			n++
		}
	}
	return n
}

func TestTokenDedupSingleBatch(t *testing.T) {
	st, _ := tokenStore(t)
	batch := []wal.Op{bIns(core.Path{}, core.Pos, "S", "s1", "eagle")}
	res1, err := applyOpsToken(st, batch, "tok-a")
	if err != nil {
		t.Fatal(err)
	}
	// The retry reports the original outcome without re-applying.
	res2, err := applyOpsToken(st, batch, "tok-a")
	if err != nil {
		t.Fatal(err)
	}
	if res1.Applied != res2.Applied || res1.Changed != res2.Changed {
		t.Errorf("retry result %+v, want original %+v", res2, res1)
	}
	if n := countKey(t, st, "s1"); n != 1 {
		t.Errorf("key s1 applied %d times, want 1", n)
	}
	// A different token is a different batch: the duplicate insert is a
	// no-op at the engine level but goes through the full apply path.
	if _, err := applyOpsToken(st, batch, "tok-b"); err != nil {
		t.Fatal(err)
	}
}

func TestTokenDedupWithinGroupRound(t *testing.T) {
	// A retry landing in the same group-commit round as its original: the
	// duplicate must not be journaled or applied twice, and both callers
	// must see the same outcome.
	st, dir := tokenStore(t)
	batch := []wal.Op{bIns(core.Path{}, core.Pos, "S", "s2", "crow")}
	other := []wal.Op{bIns(core.Path{}, core.Pos, "S", "s3", "raven")}
	out := applyRound(st,
		[][]wal.Op{batch, other, batch},
		"tok-r", "", "tok-r",
	)
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("group %d: %v", i, o.Err)
		}
	}
	if out[0].Res.Applied != out[2].Res.Applied || out[0].Res.Changed != out[2].Res.Changed {
		t.Errorf("duplicate outcomes diverge: %+v vs %+v", out[0].Res, out[2].Res)
	}
	if n := countKey(t, st, "s2"); n != 1 {
		t.Errorf("key s2 applied %d times, want 1", n)
	}

	// The journal must carry tok-r exactly once: reopening replays every
	// marker, so a double journal would double-apply.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := countKey(t, re, "s2"); n != 1 {
		t.Errorf("after replay key s2 applied %d times, want 1", n)
	}
}

func TestTokenTableSurvivesReplay(t *testing.T) {
	st, dir := tokenStore(t)
	batch := []wal.Op{bIns(core.Path{}, core.Pos, "S", "s4", "owl")}
	res1, err := applyOpsToken(st, batch, "tok-replay")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery rebuilds the dedup table from the journaled markers: the
	// same token retried against the reopened store short-circuits.
	re, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	res2, err := applyOpsToken(re, batch, "tok-replay")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Applied != res1.Applied || res2.Changed != res1.Changed {
		t.Errorf("post-replay retry %+v, want original %+v", res2, res1)
	}
	if n := countKey(t, re, "s4"); n != 1 {
		t.Errorf("key s4 applied %d times, want 1", n)
	}
}

func TestTokenTableFIFOBound(t *testing.T) {
	st, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < maxAppliedTokens+10; i++ {
		batch := []wal.Op{bIns(core.Path{}, core.Pos, "S", "k", "v")}
		if _, err := applyOpsToken(st, batch, tokenName(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(st.appliedTokens) != maxAppliedTokens || len(st.tokenOrder) != maxAppliedTokens {
		t.Errorf("table holds %d/%d entries, want %d", len(st.appliedTokens), len(st.tokenOrder), maxAppliedTokens)
	}
	// The oldest tokens were evicted, the newest survive.
	if _, ok := st.appliedTokens[tokenName(0)]; ok {
		t.Error("oldest token still present after eviction")
	}
	if _, ok := st.appliedTokens[tokenName(maxAppliedTokens+9)]; !ok {
		t.Error("newest token missing")
	}
}

func tokenName(i int) string { return fmt.Sprintf("tok-%06d", i) }
