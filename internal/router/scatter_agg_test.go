package router

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"beliefdb"
	"beliefdb/client"
	"beliefdb/internal/bsql"
	"beliefdb/internal/shard"
	"beliefdb/internal/val"
)

// aggPool is the select-item pool of the scattered-aggregate property: every
// aggregate over an int and a float column, NULL-bearing inputs, and
// arithmetic over aggregates.
var aggPool = []string{
	"count(*)", "count(T.i)", "count(T.f)",
	"sum(T.i)", "sum(T.f)", "avg(T.i)", "avg(T.f)",
	"min(T.i)", "max(T.f)", "min(T.g)", "max(T.g)",
	"sum(T.i) + count(*)", "avg(T.f) * 2", "max(T.i) - min(T.i)",
}

// checkScatterAggregate builds a random belief database twice over: whole,
// in one DB, and partitioned by key over 2–3 DBs with the router's
// partition map. A random aggregate query scattered over the partitions
// (planAggregate, each partition runs the scatter text, merge) must answer
// what the whole DB answers. Floats are dyadic (k/4), so sums are exact in
// any order, and a WHERE threshold may empty some partitions, whose
// partials are then NULL or 0.
func checkScatterAggregate(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	sch, err := beliefdb.ParseSchemaSpec("M(k:text,g:text,i:int,f:float)")
	if err != nil {
		return err
	}
	smap := shard.Map{Count: 2 + r.Intn(2), Seed: uint64(r.Int63())}
	dbs := make([]*beliefdb.DB, smap.Count+1) // the partitions, then the whole
	for i := range dbs {
		db, err := beliefdb.Open(sch)
		if err != nil {
			return err
		}
		defer db.Close()
		for _, u := range []string{"Alice", "Bob"} {
			if _, err := db.AddUser(u); err != nil {
				return err
			}
		}
		dbs[i] = db
	}
	parts, whole := dbs[:smap.Count], dbs[smap.Count]

	num := func(float bool) string {
		if r.Intn(5) == 0 {
			return "null"
		}
		if float {
			return fmt.Sprintf("%.2f", float64(r.Intn(17)-8)/4)
		}
		return fmt.Sprint(r.Intn(9) - 3)
	}
	for n := r.Intn(14); n > 0; n-- {
		k := fmt.Sprintf("k%d", r.Intn(8))
		target := []string{"", "BELIEF 'Alice' ", "BELIEF 'Bob' "}[r.Intn(3)]
		stmt := fmt.Sprintf("insert into %sM values ('%s','%c',%s,%s);",
			target, k, 'a'+r.Intn(3), num(false), num(true))
		if _, err := whole.ExecScript(stmt); err != nil {
			continue // a key conflict refuses on the whole DB and the owner alike
		}
		if _, err := parts[smap.Owner("M", val.Str(k))].ExecScript(stmt); err != nil {
			return fmt.Errorf("%s: whole DB accepted, owning partition refused: %v", stmt, err)
		}
	}

	var items []string
	grouped := r.Intn(2) == 0
	if grouped && r.Intn(3) > 0 {
		items = append(items, "T.g")
	}
	for n := 1 + r.Intn(3); n > 0; n-- {
		items = append(items, aggPool[r.Intn(len(aggPool))])
	}
	q := "select " + strings.Join(items, ", ") + " from " + []string{"M T", "BELIEF 'Alice' M T"}[r.Intn(2)]
	if r.Intn(2) == 0 {
		q += fmt.Sprintf(" where T.i > %d", r.Intn(8)-2)
	}
	if grouped {
		q += " group by T.g"
	}

	st, err := bsql.Parse(q)
	if err != nil {
		return err
	}
	p, err := planAggregate(st.(bsql.Select))
	if err != nil {
		return fmt.Errorf("%s: plan: %v", q, err)
	}
	results := make([]*client.Result, len(parts))
	for i, db := range parts {
		if results[i], err = db.ExecScript(p.scatterText); err != nil {
			return fmt.Errorf("%s: partition %d: %v", p.scatterText, i, err)
		}
	}
	got, err := p.merge(results)
	if err != nil {
		return fmt.Errorf("%s: merge: %v", q, err)
	}
	want, err := whole.ExecScript(q)
	if err != nil {
		return fmt.Errorf("%s: whole DB: %v", q, err)
	}
	if g, w := canonRows(got), canonRows(want); g != w {
		return fmt.Errorf("%s (seed %d, %d partitions):\nscattered:\n%s\nwhole DB:\n%s", q, seed, smap.Count, g, w)
	}
	return nil
}

// canonRows renders a result's header and its rows as a sorted multiset,
// every value with its kind, so an integral SUM never equals a float one.
func canonRows(res *client.Result) string {
	rows := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		vs := make([]string, len(row))
		for j, v := range row {
			vs[j] = v.Kind().String() + ":" + v.String()
		}
		rows[i] = strings.Join(vs, " | ")
	}
	slices.Sort(rows)
	return strings.Join(res.Columns, " | ") + "\n" + strings.Join(rows, "\n")
}

func TestQuickScatterAggregate(t *testing.T) {
	f := func(seed int64) bool {
		if err := checkScatterAggregate(seed); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzScatterAggregate drives the same generator as
// TestQuickScatterAggregate from a fuzzed seed.
func FuzzScatterAggregate(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1009, -3, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := checkScatterAggregate(seed); err != nil {
			t.Fatal(err)
		}
	})
}
