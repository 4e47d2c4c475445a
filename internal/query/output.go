package query

import (
	"sort"

	"beliefdb/internal/sqlparser"
	"beliefdb/internal/val"
)

// This file exports the pieces of the executor's post-processing pipeline
// that the scatter-gather merge (internal/router) reuses, so cross-shard
// DISTINCT and ORDER BY are the single-node stages themselves. The
// aggregate accumulator the merge shares (AggAcc) sits beside the
// executor's aggregate operator in exec.go.

// DedupeRows removes duplicate rows, keeping first occurrences in order:
// the hash-bucketed machinery behind SELECT DISTINCT (rows that hash
// together are verified with real value equality, so colliding distinct
// rows are both kept). The input slice is not modified.
func DedupeRows(rows [][]val.Value) [][]val.Value {
	return dedupeRows(rows)
}

// ItemName reports the output column name of a select item, exactly as the
// executor names result columns: the alias when present, a bare column
// reference's column name, otherwise the expression's text.
func ItemName(it sqlparser.SelectItem) string { return itemName(it) }

// OutputExpr evaluates an expression over one already-projected output row.
type OutputExpr func(row []val.Value) (val.Value, error)

// CompileOutput resolves an expression against a result's output columns
// (unqualified names, as they appear in a row header) and returns an
// evaluator over output rows. Aggregate calls are rejected — by the time a
// result has output columns, aggregation has already happened.
func CompileOutput(e sqlparser.Expr, cols []string) (OutputExpr, error) {
	schema := make(relSchema, len(cols))
	for i, n := range cols {
		schema[i] = colID{name: n}
	}
	ce, err := compileExpr(e, schema)
	if err != nil {
		return nil, err
	}
	return OutputExpr(ce), nil
}

// SortRows stable-sorts already-projected rows by the ORDER BY list,
// resolving each order expression exactly as the executor does once source
// rows are gone (after DISTINCT or aggregation): first against the output
// columns, then by matching the expression textually against a select
// item. items carries the select list the rows were projected from; cols
// their output column names.
func SortRows(orderBy []sqlparser.OrderItem, items []sqlparser.SelectItem, cols []string, rows [][]val.Value) error {
	type keyFn struct {
		e    OutputExpr
		desc bool
	}
	fns := make([]keyFn, 0, len(orderBy))
	for _, ob := range orderBy {
		ce, err := CompileOutput(ob.Expr, cols)
		if err != nil {
			// Match the expression against a select item textually (covers
			// ORDER BY u.name over aggregated or deduplicated output).
			want := ob.Expr.String()
			found := -1
			for i, it := range items {
				if it.Expr != nil && it.Expr.String() == want {
					found = i
					break
				}
			}
			if found < 0 {
				return err
			}
			pos := found
			ce = func(row []val.Value) (val.Value, error) { return row[pos], nil }
		}
		fns = append(fns, keyFn{e: ce, desc: ob.Desc})
	}
	var sortErr error
	sort.SliceStable(rows, func(a, b int) bool {
		for _, f := range fns {
			va, err := f.e(rows[a])
			if err != nil {
				sortErr = err
				return false
			}
			vb, err := f.e(rows[b])
			if err != nil {
				sortErr = err
				return false
			}
			cmp, ok := val.Compare(va, vb)
			if !ok || cmp == 0 {
				continue
			}
			if f.desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	return sortErr
}
