package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"beliefdb/internal/engine"
)

// explainSteps runs EXPLAIN over sql and renders each recorded step as
// "access_path detail" for assertion.
func explainSteps(t *testing.T, cat *engine.Catalog, sql string) []string {
	t.Helper()
	res := exec(t, cat, "EXPLAIN "+sql)
	want := []string{"binding", "access_path", "detail", "rows"}
	if !reflect.DeepEqual(res.Columns, want) {
		t.Fatalf("EXPLAIN columns = %v, want %v", res.Columns, want)
	}
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		s := r[1].AsString()
		if d := r[2].AsString(); d != "" {
			s += " " + d
		}
		out = append(out, s)
	}
	return out
}

// planFixture builds a 100-row table with a hash index on a low-cardinality
// column, a hash index on a unique column, and an ordered index.
func planFixture(t *testing.T) *engine.Catalog {
	t.Helper()
	cat := engine.NewCatalog()
	exec(t, cat, `
		CREATE TABLE ev (id INT PRIMARY KEY, grp INT, uniq INT, ts INT);
		CREATE INDEX ev_grp ON ev (grp);
		CREATE INDEX ev_uniq ON ev (uniq);
		CREATE ORDERED INDEX ev_ts ON ev (ts);
	`)
	for i := 0; i < 100; i++ {
		exec(t, cat, fmt.Sprintf("INSERT INTO ev VALUES (%d, %d, %d, %d)", i, i%2, 1000+i, i))
	}
	return cat
}

func wantStep(t *testing.T, steps []string, substr string) {
	t.Helper()
	for _, s := range steps {
		if strings.Contains(s, substr) {
			return
		}
	}
	t.Fatalf("no EXPLAIN step contains %q: %v", substr, steps)
}

func TestExplainAccessPaths(t *testing.T) {
	cat := planFixture(t)

	wantStep(t, explainSteps(t, cat, "SELECT * FROM ev"), "full scan")
	wantStep(t, explainSteps(t, cat, "SELECT * FROM ev WHERE id = 42"), "pk probe")
	wantStep(t, explainSteps(t, cat, "SELECT * FROM ev WHERE grp = 1"), "eq probe index=ev_grp")

	// A 10%-selective range on the ordered column beats a full scan.
	steps := explainSteps(t, cat, "SELECT * FROM ev WHERE ts >= 90")
	wantStep(t, steps, "range walk index=ev_ts")

	// An unselective range (covers every row) must fall back to the scan:
	// walking the whole tree costs more than the sequential pass.
	wantStep(t, explainSteps(t, cat, "SELECT * FROM ev WHERE ts >= 0"), "full scan")
}

// TestIndexSelectivityTieBreak is the regression test for the old bestIndex
// bug: with both ev_grp (2 distinct keys) and ev_uniq (100 distinct keys)
// applicable, the planner picked whichever the map iteration order yielded.
// The cost model must prefer the selective one.
func TestIndexSelectivityTieBreak(t *testing.T) {
	cat := planFixture(t)
	for i := 0; i < 20; i++ {
		steps := explainSteps(t, cat, "SELECT * FROM ev WHERE grp = 1 AND uniq = 1042")
		wantStep(t, steps, "index=ev_uniq")
		for _, s := range steps {
			if strings.Contains(s, "index=ev_grp") {
				t.Fatalf("planner chose low-cardinality index: %v", steps)
			}
		}
	}
}

func TestExplainOrderedWalk(t *testing.T) {
	cat := planFixture(t)

	steps := explainSteps(t, cat, "SELECT * FROM ev ORDER BY ts DESC LIMIT 5")
	wantStep(t, steps, "ordered walk index=ev_ts")
	wantStep(t, steps, "desc")
	wantStep(t, steps, "limit=5")

	// Range plus order, still one walk.
	wantStep(t, explainSteps(t, cat, "SELECT * FROM ev WHERE ts > 50 ORDER BY ts LIMIT 3"),
		"ordered walk index=ev_ts")

	// ORDER BY a column with no ordered index sorts after a normal path.
	wantStep(t, explainSteps(t, cat, "SELECT * FROM ev ORDER BY grp"), "full scan")
}

func TestOrderedWalkResults(t *testing.T) {
	cat := planFixture(t)

	res := exec(t, cat, "SELECT ts FROM ev WHERE ts > 50 ORDER BY ts DESC LIMIT 4")
	var got []int64
	for _, r := range res.Rows {
		got = append(got, r[0].AsInt())
	}
	if want := []int64{99, 98, 97, 96}; !reflect.DeepEqual(got, want) {
		t.Fatalf("top-k walk = %v, want %v", got, want)
	}

	// Residual filters still apply during the walk.
	res = exec(t, cat, "SELECT ts FROM ev WHERE grp = 0 ORDER BY ts LIMIT 3")
	got = nil
	for _, r := range res.Rows {
		got = append(got, r[0].AsInt())
	}
	if want := []int64{0, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("filtered walk = %v, want %v", got, want)
	}
}

func TestExplainJoin(t *testing.T) {
	cat := fixture(t)
	steps := explainSteps(t, cat, "SELECT u.name, o.item FROM users u, orders o WHERE u.uid = o.uid")
	joined := strings.Join(steps, " | ")
	if !strings.Contains(joined, "join") {
		t.Fatalf("EXPLAIN of a join shows no join step: %v", steps)
	}
}

// TestRangeScanMatchesFullScan is the property test: on random data, a range
// query (whatever path the planner picks) returns exactly the rows a
// filtered full scan would.
func TestRangeScanMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cat := engine.NewCatalog()
	exec(t, cat, `
		CREATE TABLE pts (id INT PRIMARY KEY, k INT, tag TEXT);
		CREATE ORDERED INDEX pts_k ON pts (k);
	`)
	type rec struct {
		id, k int64
	}
	var model []rec
	for i := 0; i < 400; i++ {
		k := int64(rng.Intn(60))
		model = append(model, rec{id: int64(i), k: k})
		exec(t, cat, fmt.Sprintf("INSERT INTO pts VALUES (%d, %d, 't%d')", i, k, k))
	}

	ops := []string{"<", "<=", ">", ">="}
	for trial := 0; trial < 200; trial++ {
		var conds []string
		match := func(k int64) bool { return true }
		if rng.Intn(4) > 0 {
			b := int64(rng.Intn(60))
			op := ops[rng.Intn(len(ops))]
			conds = append(conds, fmt.Sprintf("k %s %d", op, b))
			prev := match
			match = func(k int64) bool { return prev(k) && cmpOp(k, op, b) }
		}
		if rng.Intn(2) == 0 {
			b := int64(rng.Intn(60))
			op := ops[rng.Intn(len(ops))]
			conds = append(conds, fmt.Sprintf("k %s %d", op, b))
			prev := match
			match = func(k int64) bool { return prev(k) && cmpOp(k, op, b) }
		}
		sql := "SELECT id FROM pts"
		if len(conds) > 0 {
			sql += " WHERE " + strings.Join(conds, " AND ")
		}
		res := exec(t, cat, sql)
		got := make(map[int64]bool, len(res.Rows))
		for _, r := range res.Rows {
			got[r[0].AsInt()] = true
		}
		want := make(map[int64]bool)
		for _, m := range model {
			if match(m.k) {
				want[m.id] = true
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d %q: got %d rows, want %d", trial, sql, len(got), len(want))
		}
	}
}

func cmpOp(a int64, op string, b int64) bool {
	switch op {
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	return false
}

// TestExplainRowsAfterResidual pins what EXPLAIN's rows mean for a join
// step: the rows that survive the residuals the step applies in its probe.
// The query has the shape of the Table 2 conflict and user queries: two
// belief worlds reached over edge rows, joined on the key, and a residual
// that keeps keys whose values disagree.
func TestExplainRowsAfterResidual(t *testing.T) {
	cat := engine.NewCatalog()
	exec(t, cat, `
		CREATE TABLE e (w1 INT, u INT, w2 INT);
		CREATE TABLE v (w INT, k INT, s INT);
		CREATE INDEX e_w1u ON e (w1, u);
		CREATE INDEX v_wk ON v (w, k);
	`)
	// User u believes world u; world w states value val(w, k) for keys 0..9.
	val := func(w, k int) int {
		switch w {
		case 3:
			return k % 2
		case 4:
			return (k + 1) % 3
		}
		return k % 3
	}
	conflicts, disagree := 0, map[int]bool{}
	for w := 1; w <= 4; w++ {
		exec(t, cat, fmt.Sprintf("INSERT INTO e VALUES (0, %d, %d)", w, w))
		for k := 0; k < 10; k++ {
			exec(t, cat, fmt.Sprintf("INSERT INTO v VALUES (%d, %d, %d)", w, k, val(w, k)))
			if val(w, k) != val(1, k) {
				conflicts++
				disagree[w] = true
			}
		}
	}
	const sql = `SELECT DISTINCT e2.u FROM e e1, v v1, e e2, v v2
		WHERE e1.w1 = 0 AND e1.u = 1 AND v1.w = e1.w2
		AND e2.w1 = 0 AND v2.w = e2.w2 AND v2.k = v1.k AND v2.s <> v1.s`

	res := exec(t, cat, sql)
	if len(res.Rows) != len(disagree) {
		t.Fatalf("users in conflict = %v, want %d", rowsAsStrings(res), len(disagree))
	}
	plan := exec(t, cat, "EXPLAIN "+sql)
	last := -1 // the step joining the later of v1 and v2 applies the residual
	for i, r := range plan.Rows {
		if b := r[0].AsString(); (b == "v1" || b == "v2") && strings.HasSuffix(r[1].AsString(), "join") {
			last = i
		}
	}
	if last < 0 {
		t.Fatalf("no join step for v1/v2: %v", rowsAsStrings(plan))
	}
	if got := plan.Rows[last][3].AsInt(); got != int64(conflicts) {
		t.Fatalf("EXPLAIN rows of the residual step %v = %d, want the %d conflicting keys (the equi-join alone yields 40)",
			plan.Rows[last], got, conflicts)
	}
}
