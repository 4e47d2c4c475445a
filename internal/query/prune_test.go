package query

import (
	"reflect"
	"strings"
	"testing"

	"beliefdb/internal/engine"
	"beliefdb/internal/sqlparser"
)

// joinSchema plans the FROM/WHERE of sql the way runSelectPlan does and
// returns the column names of the joined row set as "rel.name", with the
// number of joined rows.
func joinSchema(t *testing.T, cat *engine.Catalog, sql string) ([]string, int) {
	t.Helper()
	stmts, err := sqlparser.ParseAll(sql)
	if err != nil {
		t.Fatal(err)
	}
	s := stmts[0].(sqlparser.Select)
	var bindings []binding
	for _, ref := range s.From {
		bindings = append(bindings, binding{alias: ref.Name(), table: cat.Table(ref.Table)})
	}
	rs, err := planJoins(bindings, s.Where, liveExprs(s, s.Items), nil)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]string, len(rs.schema))
	for i, c := range rs.schema {
		cols[i] = c.rel + "." + c.name
	}
	return cols, len(rs.rows)
}

// TestJoinKeepsOnlyLiveColumns pins the live-column rule: after the last
// join step only the columns the select list, GROUP BY and ORDER BY can
// reference remain; an unqualified reference keeps every same-named column.
func TestJoinKeepsOnlyLiveColumns(t *testing.T) {
	cat := fixture(t)
	for _, tc := range []struct {
		sql  string
		cols []string
		rows int
	}{
		{"SELECT o.item FROM users u, orders o WHERE u.uid = o.uid AND u.name <> o.item",
			[]string{"o.item"}, 4},
		{"SELECT COUNT(*) FROM users u, orders o WHERE u.uid = o.uid", []string{}, 4},
		{"SELECT u.name FROM users u, orders o WHERE u.uid = o.uid GROUP BY u.name ORDER BY o.amount",
			[]string{"u.name", "o.amount"}, 4},
		{"SELECT name FROM users u, orders o WHERE u.uid = o.uid ORDER BY uid",
			[]string{"u.uid", "u.name", "o.uid"}, 4},
		{"SELECT u.name FROM users u, orders o", []string{"u.name"}, 12},
	} {
		cols, rows := joinSchema(t, cat, tc.sql)
		if !reflect.DeepEqual(cols, tc.cols) || rows != tc.rows {
			t.Errorf("%s: joined columns %v (%d rows), want %v (%d rows)", tc.sql, cols, rows, tc.cols, tc.rows)
		}
	}
}

// TestPrunedNameResolution pins the name-resolution and error behaviour
// that column pruning must leave unchanged.
func TestPrunedNameResolution(t *testing.T) {
	cat := fixture(t)

	// An unqualified column present in both bindings is ambiguous in SELECT,
	// even though the join edge on it is consumed before projection.
	_, err := execErr(cat, "SELECT uid FROM users u, orders o WHERE u.uid = o.uid")
	if err == nil || !strings.Contains(err.Error(), "ambiguous column uid") {
		t.Errorf("ambiguous SELECT column: err = %v", err)
	}

	// In ORDER BY the same ambiguity falls back to the output alias: rows
	// sort by o.item (aliased uid), not by either uid column.
	res := exec(t, cat, "SELECT o.item AS uid FROM users u, orders o WHERE u.uid = o.uid ORDER BY uid DESC")
	var got []string
	for _, r := range res.Rows {
		got = append(got, r[0].AsString())
	}
	if want := []string{"pear", "fig", "apple", "apple"}; !reflect.DeepEqual(got, want) {
		t.Errorf("ORDER BY alias fallback = %v, want %v", got, want)
	}

	// A cross-binding residual that is not boolean fails the same way it
	// did when residuals ran after the join.
	_, err = execErr(cat, "SELECT u.name FROM users u, orders o WHERE u.uid = o.uid AND u.uid + o.oid")
	if err == nil || !strings.Contains(err.Error(), "predicate evaluated to INT, not BOOL") {
		t.Errorf("non-BOOL residual: err = %v", err)
	}

	// COUNT(*) over a join keeps no column at all and still counts rows.
	exec(t, cat, `
		CREATE TABLE a (x INT, y INT);
		CREATE TABLE b (u INT, v INT);
		INSERT INTO a VALUES (1, 0), (1, 1), (2, 0), (3, 0);
		INSERT INTO b VALUES (1, 5), (1, 6), (2, 7), (4, 8);
	`)
	res = exec(t, cat, "SELECT COUNT(*) FROM a, b WHERE a.x = b.u")
	if n := res.Rows[0][0].AsInt(); n != 5 {
		t.Errorf("COUNT(*) over join = %d, want 5", n)
	}
}
