package bsql

import (
	"fmt"

	"beliefdb/internal/core"
	"beliefdb/internal/query"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/store"
	"beliefdb/internal/val"
	"beliefdb/internal/wal"
)

// Exec parses and executes one BeliefSQL statement: SELECTs are translated
// to SQL (Algorithm 1) and run on the embedded engine; INSERT/DELETE/UPDATE
// route to the store's update algorithms.
func (tr *Translator) Exec(src string) (*query.Result, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return tr.ExecStmt(stmt)
}

// ExecScript executes a semicolon-separated BeliefSQL script, returning the
// last statement's result. Consecutive runs of INSERT statements are
// applied as one store batch — a single writer-lock acquisition and a
// single WAL commit (group commit) — which is observably identical to
// statement-at-a-time execution except on failure, where the whole run
// rolls back instead of its prefix surviving. Other statements execute at
// their position in script order.
func (tr *Translator) ExecScript(src string) (*query.Result, error) {
	stmts, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("bsql: empty script")
	}
	var res *query.Result
	for i := 0; i < len(stmts); {
		j := i
		for j < len(stmts) {
			if _, ok := stmts[j].(Insert); !ok {
				break
			}
			j++
		}
		if j-i >= 2 {
			res, err = tr.execInsertRun(stmts[i:j])
			if err != nil {
				return nil, err
			}
			i = j
			continue
		}
		res, err = tr.ExecStmt(stmts[i])
		if err != nil {
			return nil, err
		}
		i++
	}
	return res, nil
}

// ExecBatch executes a semicolon-separated BeliefSQL script of INSERT and
// DELETE statements as one atomic batch: everything is resolved up front
// (DELETE ... WHERE matches against the pre-batch state), applied under a
// single writer-lock acquisition and a single WAL commit, and rolled back
// whole if any statement fails.
func (tr *Translator) ExecBatch(src string) (store.BatchResult, error) {
	ops, err := tr.CompileBatch(src)
	if err != nil {
		return store.BatchResult{}, err
	}
	return tr.apply(ops)
}

// apply commits ops as one untokened group.
func (tr *Translator) apply(ops []wal.Op) (store.BatchResult, error) {
	o := tr.st.Apply([]store.Group{{Ops: ops}})[0]
	return o.Res, o.Err
}

// CompileBatch resolves a batch script into store operations without
// applying them: the ExecBatch front half, split out so callers can route
// the compiled batch through a different commit path — the network server
// compiles each client's script outside the writer lock and submits the
// operations to its group-commit coalescer.
func (tr *Translator) CompileBatch(src string) ([]wal.Op, error) {
	stmts, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("bsql: empty batch")
	}
	var ops []wal.Op
	for _, s := range stmts {
		switch s := s.(type) {
		case Insert:
			ins, err := tr.insertOps(s)
			if err != nil {
				return nil, err
			}
			ops = append(ops, ins...)
		case Delete:
			targets, _, err := tr.matchTargets(s.Target, s.Where)
			if err != nil {
				return nil, err
			}
			for _, t := range targets {
				ops = append(ops, wal.Delete(t))
			}
		default:
			return nil, fmt.Errorf("bsql: a batch supports INSERT and DELETE only, got %T", s)
		}
	}
	return ops, nil
}

// ExecStmt executes one parsed BeliefSQL statement.
func (tr *Translator) ExecStmt(stmt Statement) (*query.Result, error) {
	switch s := stmt.(type) {
	case Select:
		sql, err := tr.TranslateSelect(s)
		if err != nil {
			return nil, err
		}
		return tr.st.DB().Query(sql)
	case Explain:
		sql, err := tr.TranslateSelect(s.Query)
		if err != nil {
			return nil, err
		}
		return tr.st.DB().Query("EXPLAIN " + sql)
	case Insert:
		return tr.execInsert(s)
	case Delete:
		return tr.execDelete(s)
	case Update:
		return tr.execUpdate(s)
	default:
		return nil, fmt.Errorf("bsql: unsupported statement %T", stmt)
	}
}

// targetPathSign resolves a DML target's belief path (literal users only)
// and sign.
func (tr *Translator) targetPathSign(ref BeliefRef) (core.Path, core.Sign, error) {
	var p core.Path
	for _, e := range ref.Path {
		if e.IsRef {
			return nil, 0, fmt.Errorf("bsql: BELIEF in data manipulation must name users literally, got %s", e.Ref)
		}
		uid, ok := tr.st.UserID(e.Literal)
		if !ok {
			return nil, 0, fmt.Errorf("bsql: unknown user %q", e.Literal)
		}
		p = append(p, uid)
	}
	if !p.Valid() {
		return nil, 0, fmt.Errorf("bsql: invalid belief path in %s", ref)
	}
	sign := core.Pos
	if ref.Negated {
		sign = core.Neg
	}
	return p, sign, nil
}

// ConstValue folds a VALUES expression to a constant: a literal, or a
// negated numeric literal. The batch compiler and the router's INSERT
// partitioning both fold keys through it, so the router and the shard's
// owner check hash identical key values.
func ConstValue(e sqlparser.Expr) (val.Value, error) {
	switch ex := e.(type) {
	case sqlparser.Literal:
		return ex.Val, nil
	case sqlparser.UnaryExpr:
		if ex.Op == "-" {
			v, err := ConstValue(ex.X)
			if err != nil {
				return val.Null(), err
			}
			switch v.Kind() {
			case val.KindInt:
				return val.Int(-v.AsInt()), nil
			case val.KindFloat:
				return val.Float(-v.AsFloat()), nil
			}
		}
	}
	return val.Null(), fmt.Errorf("bsql: VALUES entries must be constants, got %s", e.String())
}

// insertOps resolves one INSERT statement into batch operations (the VALUES
// rows are constants, so resolution needs no store state beyond the user
// and relation catalogs).
func (tr *Translator) insertOps(ins Insert) ([]wal.Op, error) {
	p, sign, err := tr.targetPathSign(ins.Target)
	if err != nil {
		return nil, err
	}
	rel, ok := tr.st.Relation(ins.Target.Table)
	if !ok {
		return nil, fmt.Errorf("bsql: unknown belief relation %q", ins.Target.Table)
	}
	ops := make([]wal.Op, 0, len(ins.Rows))
	for _, row := range ins.Rows {
		if len(row) != len(rel.Columns) {
			return nil, fmt.Errorf("bsql: %d values for %d columns of %s", len(row), len(rel.Columns), rel.Name)
		}
		vals := make([]val.Value, len(row))
		for i, e := range row {
			v, err := ConstValue(e)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		ops = append(ops, wal.Insert(core.Statement{
			Path: p, Sign: sign, Tuple: core.Tuple{Rel: rel.Name, Vals: vals},
		}))
	}
	return ops, nil
}

func (tr *Translator) execInsert(ins Insert) (*query.Result, error) {
	ops, err := tr.insertOps(ins)
	if err != nil {
		return nil, err
	}
	// The VALUES rows commit as one group: atomic, one fsync.
	br, err := tr.apply(ops)
	if err != nil {
		return nil, err
	}
	return &query.Result{Affected: br.Changed}, nil
}

// execInsertRun applies a run of consecutive INSERT statements as one store
// batch. The returned Affected count covers the last statement of the run,
// matching what sequential execution would have reported.
func (tr *Translator) execInsertRun(inss []Statement) (*query.Result, error) {
	var ops []wal.Op
	lastN := 0
	for _, s := range inss {
		stmtOps, err := tr.insertOps(s.(Insert))
		if err != nil {
			return nil, err
		}
		ops = append(ops, stmtOps...)
		lastN = len(stmtOps)
	}
	br, err := tr.apply(ops)
	if err != nil {
		return nil, err
	}
	affected := 0
	for _, changed := range br.ChangedOps[len(br.ChangedOps)-lastN:] {
		if changed {
			affected++
		}
	}
	return &query.Result{Affected: affected}, nil
}

// matchTargets returns the explicit statements in the target world matching
// the WHERE clause.
func (tr *Translator) matchTargets(target BeliefRef, where sqlparser.Expr) ([]core.Statement, []string, error) {
	p, sign, err := tr.targetPathSign(target)
	if err != nil {
		return nil, nil, err
	}
	rel, ok := tr.st.Relation(target.Table)
	if !ok {
		return nil, nil, fmt.Errorf("bsql: unknown belief relation %q", target.Table)
	}
	cols := make([]string, len(rel.Columns))
	for i, c := range rel.Columns {
		cols[i] = c.Name
	}
	all, err := tr.st.ExplicitStatements()
	if err != nil {
		return nil, nil, err
	}
	var out []core.Statement
	for _, st := range all {
		if st.Tuple.Rel != rel.Name || st.Sign != sign || !st.Path.Equal(p) {
			continue
		}
		ok, err := query.PredicateOnRow(where, target.Table, cols, st.Tuple.Vals)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			out = append(out, st)
		}
	}
	return out, cols, nil
}

func (tr *Translator) execDelete(del Delete) (*query.Result, error) {
	targets, _, err := tr.matchTargets(del.Target, del.Where)
	if err != nil {
		return nil, err
	}
	affected := 0
	for _, st := range targets {
		changed, err := tr.st.Delete(st)
		if err != nil {
			return nil, err
		}
		if changed {
			affected++
		}
	}
	return &query.Result{Affected: affected}, nil
}

func (tr *Translator) execUpdate(upd Update) (*query.Result, error) {
	targets, cols, err := tr.matchTargets(upd.Target, upd.Where)
	if err != nil {
		return nil, err
	}
	colPos := make(map[string]int, len(cols))
	for i, c := range cols {
		colPos[c] = i
	}
	affected := 0
	for _, st := range targets {
		newVals := append([]val.Value(nil), st.Tuple.Vals...)
		for _, a := range upd.Set {
			pos, ok := colPos[a.Column]
			if !ok {
				return nil, fmt.Errorf("bsql: no column %q in %s", a.Column, upd.Target.Table)
			}
			v, err := query.EvalOnRow(a.Value, upd.Target.Table, cols, st.Tuple.Vals)
			if err != nil {
				return nil, err
			}
			newVals[pos] = v
		}
		changed, err := tr.st.Replace(st, core.Tuple{Rel: st.Tuple.Rel, Vals: newVals})
		if err != nil {
			return nil, err
		}
		if changed {
			affected++
		}
	}
	return &query.Result{Affected: affected}, nil
}
