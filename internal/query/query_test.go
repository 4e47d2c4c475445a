package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"beliefdb/internal/engine"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/val"
)

// exec is a test helper running SQL against a catalog.
func exec(t *testing.T, cat *engine.Catalog, sql string) *Result {
	t.Helper()
	res, err := execErr(cat, sql)
	if err != nil {
		t.Fatalf("exec(%q): %v", sql, err)
	}
	return res
}

func execErr(cat *engine.Catalog, sql string) (*Result, error) {
	stmts, err := sqlparser.ParseAll(sql)
	if err != nil {
		return nil, err
	}
	var res *Result
	for _, s := range stmts {
		res, err = Run(cat, s)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

func fixture(t *testing.T) *engine.Catalog {
	t.Helper()
	cat := engine.NewCatalog()
	exec(t, cat, `
		CREATE TABLE users (uid INT PRIMARY KEY, name TEXT);
		CREATE TABLE orders (oid INT PRIMARY KEY, uid INT, amount FLOAT, item TEXT);
		CREATE INDEX orders_uid ON orders (uid);
		INSERT INTO users VALUES (1, 'alice'), (2, 'bob'), (3, 'carol');
		INSERT INTO orders VALUES
			(10, 1, 5.0, 'apple'),
			(11, 1, 7.5, 'pear'),
			(12, 2, 1.0, 'fig'),
			(13, 3, 2.25, 'apple');
	`)
	return cat
}

// rowsAsStrings renders result rows for order-insensitive comparison.
func rowsAsStrings(res *Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.String()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

func TestSelectAll(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, "SELECT * FROM users")
	if !reflect.DeepEqual(res.Columns, []string{"uid", "name"}) {
		t.Errorf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestSelectWhere(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, "SELECT name FROM users WHERE uid = 2")
	if got := rowsAsStrings(res); !reflect.DeepEqual(got, []string{"bob"}) {
		t.Errorf("got %v", got)
	}
	res = exec(t, cat, "SELECT name FROM users WHERE uid <> 2 AND uid < 3")
	if got := rowsAsStrings(res); !reflect.DeepEqual(got, []string{"alice"}) {
		t.Errorf("got %v", got)
	}
}

func TestSelectJoin(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, `
		SELECT u.name, o.item FROM users u, orders o
		WHERE u.uid = o.uid AND o.amount > 2.0`)
	want := []string{"alice|apple", "alice|pear", "carol|apple"}
	if got := rowsAsStrings(res); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestSelfJoin(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, `
		SELECT a.oid, b.oid FROM orders a, orders b
		WHERE a.item = b.item AND a.oid < b.oid`)
	want := []string{"10|13"}
	if got := rowsAsStrings(res); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestThreeWayJoinWithDisjunction(t *testing.T) {
	cat := fixture(t)
	// Shape of the Algorithm 1 translation: join chain plus nested OR.
	res := exec(t, cat, `
		SELECT DISTINCT u.name FROM users u, orders o, orders o2
		WHERE u.uid = o.uid AND o2.uid = u.uid
		AND (o.item = 'apple' AND o2.item <> 'apple' OR o.item = 'fig')`)
	want := []string{"alice", "bob"}
	if got := rowsAsStrings(res); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestCrossJoin(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, "SELECT u.uid, o.oid FROM users u, orders o")
	if len(res.Rows) != 12 {
		t.Errorf("cross product size = %d", len(res.Rows))
	}
}

func TestDistinct(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, "SELECT DISTINCT item FROM orders")
	if len(res.Rows) != 3 {
		t.Errorf("distinct items = %v", rowsAsStrings(res))
	}
}

func TestOrderByLimit(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, "SELECT item, amount FROM orders ORDER BY amount DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0].AsString() != "pear" || res.Rows[1][0].AsString() != "apple" {
		t.Errorf("rows = %v", res.Rows)
	}
	// ORDER BY on a non-projected column.
	res = exec(t, cat, "SELECT item FROM orders ORDER BY amount")
	if res.Rows[0][0].AsString() != "fig" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, "SELECT COUNT(*), MIN(amount), MAX(amount), SUM(amount), AVG(amount) FROM orders")
	r := res.Rows[0]
	if r[0].AsInt() != 4 || r[1].AsFloat() != 1.0 || r[2].AsFloat() != 7.5 {
		t.Errorf("row = %v", r)
	}
	if r[3].AsFloat() != 15.75 || r[4].AsFloat() != 15.75/4 {
		t.Errorf("sum/avg = %v", r)
	}
}

func TestGroupBy(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, `
		SELECT u.name, COUNT(*) AS n FROM users u, orders o
		WHERE u.uid = o.uid GROUP BY u.name ORDER BY n DESC, u.name`)
	if !reflect.DeepEqual(res.Columns, []string{"name", "n"}) {
		t.Errorf("columns = %v", res.Columns)
	}
	want := []string{"alice|2", "bob|1", "carol|1"}
	got := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		got[i] = r[0].String() + "|" + r[1].String()
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestAggregateOverEmpty(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, "SELECT COUNT(*) FROM orders WHERE amount > 100")
	if res.Rows[0][0].AsInt() != 0 {
		t.Errorf("count = %v", res.Rows)
	}
	res = exec(t, cat, "SELECT MAX(amount) FROM orders WHERE amount > 100")
	if !res.Rows[0][0].IsNull() {
		t.Errorf("max = %v", res.Rows)
	}
}

func TestInsertDeleteUpdate(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, "INSERT INTO users (uid, name) VALUES (4, 'dave')")
	if res.Affected != 1 {
		t.Errorf("affected = %d", res.Affected)
	}
	res = exec(t, cat, "UPDATE users SET name = 'dora' WHERE uid = 4")
	if res.Affected != 1 {
		t.Errorf("update affected = %d", res.Affected)
	}
	res = exec(t, cat, "SELECT name FROM users WHERE uid = 4")
	if res.Rows[0][0].AsString() != "dora" {
		t.Errorf("rows = %v", res.Rows)
	}
	res = exec(t, cat, "DELETE FROM users WHERE uid = 4")
	if res.Affected != 1 {
		t.Errorf("delete affected = %d", res.Affected)
	}
	res = exec(t, cat, "SELECT COUNT(*) FROM users")
	if res.Rows[0][0].AsInt() != 3 {
		t.Errorf("count = %v", res.Rows)
	}
}

func TestMultiRowInsertAtomic(t *testing.T) {
	cat := fixture(t)
	_, err := execErr(cat, "INSERT INTO users VALUES (5, 'eve'), (1, 'dup')")
	if err == nil {
		t.Fatal("duplicate pk insert succeeded")
	}
	res := exec(t, cat, "SELECT COUNT(*) FROM users")
	if res.Rows[0][0].AsInt() != 3 {
		t.Errorf("partial insert leaked: %v", res.Rows)
	}
}

func TestTransactions(t *testing.T) {
	cat := fixture(t)
	exec(t, cat, "BEGIN")
	exec(t, cat, "INSERT INTO users VALUES (9, 'zoe')")
	exec(t, cat, "DELETE FROM orders WHERE uid = 1")
	exec(t, cat, "ROLLBACK")
	res := exec(t, cat, "SELECT COUNT(*) FROM users")
	if res.Rows[0][0].AsInt() != 3 {
		t.Errorf("rollback failed: %v", res.Rows)
	}
	res = exec(t, cat, "SELECT COUNT(*) FROM orders")
	if res.Rows[0][0].AsInt() != 4 {
		t.Errorf("rollback failed: %v", res.Rows)
	}
	exec(t, cat, "BEGIN")
	exec(t, cat, "INSERT INTO users VALUES (9, 'zoe')")
	exec(t, cat, "COMMIT")
	res = exec(t, cat, "SELECT COUNT(*) FROM users")
	if res.Rows[0][0].AsInt() != 4 {
		t.Errorf("commit failed: %v", res.Rows)
	}
	if _, err := execErr(cat, "COMMIT"); err == nil {
		t.Error("COMMIT outside txn accepted")
	}
	if _, err := execErr(cat, "ROLLBACK"); err == nil {
		t.Error("ROLLBACK outside txn accepted")
	}
}

func TestIsNullHandling(t *testing.T) {
	cat := fixture(t)
	exec(t, cat, "INSERT INTO orders VALUES (14, 1, NULL, NULL)")
	res := exec(t, cat, "SELECT oid FROM orders WHERE item IS NULL")
	if got := rowsAsStrings(res); !reflect.DeepEqual(got, []string{"14"}) {
		t.Errorf("got %v", got)
	}
	res = exec(t, cat, "SELECT COUNT(item) FROM orders")
	if res.Rows[0][0].AsInt() != 4 {
		t.Errorf("COUNT(col) should skip NULLs: %v", res.Rows)
	}
	// Comparisons with NULL are never satisfied.
	res = exec(t, cat, "SELECT oid FROM orders WHERE amount > 0 OR amount <= 0")
	if len(res.Rows) != 4 {
		t.Errorf("NULL compare leaked: %v", rowsAsStrings(res))
	}
}

func TestArithmetic(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, "SELECT amount * 2 + 1 FROM orders WHERE oid = 10")
	if res.Rows[0][0].AsFloat() != 11.0 {
		t.Errorf("rows = %v", res.Rows)
	}
	if _, err := execErr(cat, "SELECT 1/0 FROM users"); err == nil {
		t.Error("division by zero succeeded")
	}
}

func TestErrors(t *testing.T) {
	cat := fixture(t)
	bad := []string{
		"SELECT * FROM missing",
		"SELECT zzz FROM users",
		"SELECT u.zzz FROM users u",
		"SELECT name FROM users u, orders u",
		"INSERT INTO users (zzz) VALUES (1)",
		"UPDATE users SET zzz = 1",
		"DELETE FROM missing",
		"CREATE TABLE users (uid INT)",
		"CREATE INDEX i ON missing (x)",
		"SELECT uid FROM users, orders", // ambiguous unqualified column
		"SELECT MAX(MAX(uid)) FROM users",
	}
	for _, sql := range bad {
		if _, err := execErr(cat, sql); err == nil {
			t.Errorf("exec(%q) succeeded, want error", sql)
		}
	}
}

func TestConstantPredicate(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, "SELECT name FROM users WHERE 1 = 2")
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v", res.Rows)
	}
	res = exec(t, cat, "SELECT name FROM users WHERE 1 = 1")
	if len(res.Rows) != 3 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestLiteralProjection(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, "SELECT 'x', uid FROM users WHERE uid = 1")
	if res.Rows[0][0].AsString() != "x" {
		t.Errorf("rows = %v", res.Rows)
	}
}

// naiveSelect evaluates a conjunctive filter over the full cross product,
// as a reference for the planner.
func naiveJoin(tables [][][]val.Value, pred func(row []val.Value) bool) [][]val.Value {
	rows := [][]val.Value{{}}
	for _, tb := range tables {
		var next [][]val.Value
		for _, acc := range rows {
			for _, r := range tb {
				row := append(append([]val.Value{}, acc...), r...)
				next = append(next, row)
			}
		}
		rows = next
	}
	var out [][]val.Value
	for _, r := range rows {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// plannerCols names the columns of the three generated tables a(x, y),
// b(u, v) and c(w, z), in naiveJoin row order. Names are unique across the
// tables, so a query may leave any reference unqualified.
var plannerCols = [6]struct{ rel, name string }{
	{"a", "x"}, {"a", "y"}, {"b", "u"}, {"b", "v"}, {"c", "w"}, {"c", "z"},
}

// checkPlannerAgainstNaive builds a random three-table database and a
// random join query from seed, runs it through the planner, and compares
// the answer with naive cross-product evaluation. Optional indexes, an
// optional primary key, edges and a disconnected table drive the
// index-join, PK-join, hash-join and cross-join paths; a random projected
// subset, COUNT(*) (no live column), DISTINCT and ORDER BY a non-projected
// column with LIMIT drive column pruning; an OR residual spans all three
// bindings.
func checkPlannerAgainstNaive(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	cat := engine.NewCatalog()
	// c.w is sometimes a primary key (distinct values), for the PK join.
	pk := r.Intn(3) == 0
	setup := "CREATE TABLE a (x INT, y INT); CREATE TABLE b (u INT, v INT); CREATE TABLE c (w INT, z INT);"
	if pk {
		setup = strings.Replace(setup, "w INT", "w INT PRIMARY KEY", 1)
	}
	for _, idx := range []string{"CREATE INDEX a_x ON a (x);", "CREATE INDEX b_u ON b (u);", "CREATE INDEX c_w ON c (w);"} {
		if r.Intn(2) == 0 {
			setup += " " + idx
		}
	}
	if _, err := execErr(cat, setup); err != nil {
		return err
	}
	tables := make([][][]val.Value, 3)
	for ti, name := range []string{"a", "b", "c"} {
		for i, n := 0, r.Intn(8)+1; i < n; i++ {
			p, q := int64(r.Intn(4)), int64(r.Intn(4))
			if pk && name == "c" {
				p = int64(i)
			}
			tables[ti] = append(tables[ti], []val.Value{val.Int(p), val.Int(q)})
			if _, err := execErr(cat, fmt.Sprintf("INSERT INTO %s VALUES (%d, %d)", name, p, q)); err != nil {
				return err
			}
		}
	}

	ref := func(i int) string {
		if r.Intn(2) == 0 {
			return plannerCols[i].name
		}
		return plannerCols[i].rel + "." + plannerCols[i].name
	}
	var conds []string
	var preds []func(row []val.Value) bool
	eq := func(i, j int) {
		conds = append(conds, ref(i)+" = "+ref(j))
		preds = append(preds, func(row []val.Value) bool { return row[i].AsInt() == row[j].AsInt() })
	}
	if r.Intn(4) > 0 {
		eq(0, 2) // a.x = b.u
	}
	switch r.Intn(3) {
	case 0:
		eq(3, 4) // b.v = c.w
	case 1:
		eq(1, 4) // a.y = c.w
	} // else c joins by cross product
	k1, k2, k3 := int64(r.Intn(4)), int64(r.Intn(4)), int64(r.Intn(4))
	conds = append(conds, fmt.Sprintf("(%s > %d OR %s = %d OR %s < %d)", ref(1), k1, ref(3), k2, ref(5), k3))
	preds = append(preds, func(row []val.Value) bool {
		return row[1].AsInt() > k1 || row[3].AsInt() == k2 || row[5].AsInt() < k3
	})
	want := naiveJoin(tables, func(row []val.Value) bool {
		for _, p := range preds {
			if !p(row) {
				return false
			}
		}
		return true
	})

	// A random non-empty subset of the columns other than skip, in random order.
	subset := func(skip int) []int {
		var cols []int
		for _, i := range r.Perm(6) {
			if i != skip && (len(cols) == 0 || r.Intn(2) == 0) {
				cols = append(cols, i)
			}
		}
		return cols
	}
	refs := func(cols []int) string {
		parts := make([]string, len(cols))
		for i, c := range cols {
			parts[i] = ref(c)
		}
		return strings.Join(parts, ", ")
	}
	project := func(rows [][]val.Value, cols []int) [][]val.Value {
		out := make([][]val.Value, len(rows))
		for i, row := range rows {
			for _, c := range cols {
				out[i] = append(out[i], row[c])
			}
		}
		return out
	}
	where := " FROM a, b, c WHERE " + strings.Join(conds, " AND ")

	var sql string
	var check func(res *Result) bool
	switch r.Intn(4) {
	case 0:
		cols := subset(-1)
		sql = "SELECT " + refs(cols) + where
		check = func(res *Result) bool { return multisetEqual(res.Rows, project(want, cols)) }
	case 1:
		sql = "SELECT COUNT(*)" + where
		check = func(res *Result) bool {
			return len(res.Rows) == 1 && res.Rows[0][0].AsInt() == int64(len(want))
		}
	case 2:
		cols := subset(-1)
		sql = "SELECT DISTINCT " + refs(cols) + where
		seen := make(map[string]bool)
		var distinct [][]val.Value
		for _, row := range project(want, cols) {
			if k := val.RowKey(row); !seen[k] {
				seen[k] = true
				distinct = append(distinct, row)
			}
		}
		check = func(res *Result) bool { return multisetEqual(res.Rows, distinct) }
	default:
		// ORDER BY a column that is not projected, then by every projected
		// column so that rows tied on the whole key are indistinguishable
		// in the output and the expected order is exact.
		key := r.Intn(6)
		cols := subset(key)
		desc := r.Intn(2) == 0
		limit := r.Intn(10)
		dir := ""
		if desc {
			dir = " DESC"
		}
		sql = fmt.Sprintf("SELECT %s%s ORDER BY %s%s, %s LIMIT %d", refs(cols), where, ref(key), dir, refs(cols), limit)
		sorted := append([][]val.Value(nil), want...)
		sort.SliceStable(sorted, func(i, j int) bool {
			if c, _ := val.Compare(sorted[i][key], sorted[j][key]); c != 0 {
				return (c < 0) != desc
			}
			for _, col := range cols {
				if c, _ := val.Compare(sorted[i][col], sorted[j][col]); c != 0 {
					return c < 0
				}
			}
			return false
		})
		if len(sorted) > limit {
			sorted = sorted[:limit]
		}
		check = func(res *Result) bool {
			exp := project(sorted, cols)
			if len(res.Rows) != len(exp) {
				return false
			}
			for i := range exp {
				if val.RowKey(res.Rows[i]) != val.RowKey(exp[i]) {
					return false
				}
			}
			return true
		}
	}
	res, err := execErr(cat, sql)
	if err != nil {
		return fmt.Errorf("seed %d: %s: %v", seed, sql, err)
	}
	if !check(res) {
		return fmt.Errorf("seed %d: %s: planner returned %d rows %v, naive evaluation disagrees", seed, sql, len(res.Rows), rowsAsStrings(res))
	}
	return nil
}

// Property: for random small databases and random equi-join + filter
// queries, the planner agrees with naive cross-product evaluation.
func TestQuickPlannerAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		if err := checkPlannerAgainstNaive(seed); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// FuzzPlannerAgainstNaive drives the same generator as
// TestQuickPlannerAgainstNaive from a fuzzed seed.
func FuzzPlannerAgainstNaive(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1009, -3, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := checkPlannerAgainstNaive(seed); err != nil {
			t.Fatal(err)
		}
	})
}

func execMust(cat *engine.Catalog, sql string) {
	if _, err := execErr(cat, sql); err != nil {
		panic(err)
	}
}

func multisetEqual(a, b [][]val.Value) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[string]int)
	for _, r := range a {
		count[val.RowKey(r)]++
	}
	for _, r := range b {
		count[val.RowKey(r)]--
	}
	for _, n := range count {
		if n != 0 {
			return false
		}
	}
	return true
}

// Property: the same query with and without secondary indexes returns the
// same rows (index scans and index joins agree with full scans).
func TestQuickIndexEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		build := func(withIndex bool) *engine.Catalog {
			cat := engine.NewCatalog()
			execMust(cat, "CREATE TABLE e (w1 INT, u INT, w2 INT)")
			if withIndex {
				execMust(cat, "CREATE INDEX e_w1u ON e (w1, u); CREATE INDEX e_w1 ON e (w1)")
			}
			rr := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				execMust(cat, fmt.Sprintf("INSERT INTO e VALUES (%d, %d, %d)",
					rr.Intn(5), rr.Intn(4), rr.Intn(5)))
			}
			return cat
		}
		sql := fmt.Sprintf(`SELECT e1.w2, e2.w2 FROM e e1, e e2
			WHERE e1.w1 = %d AND e1.u = %d AND e2.w1 = e1.w2 AND e2.u = %d`,
			r.Intn(5), r.Intn(4), r.Intn(4))
		r1, err := execErr(build(true), sql)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := execErr(build(false), sql)
		if err != nil {
			t.Fatal(err)
		}
		return multisetEqual(r1.Rows, r2.Rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
