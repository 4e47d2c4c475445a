package query

import (
	"fmt"
	"strings"

	"beliefdb/internal/engine"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/val"
)

// rowSet is a materialized intermediate relation.
type rowSet struct {
	schema relSchema
	rows   [][]val.Value
}

// binding ties a FROM-list alias to its table.
type binding struct {
	alias string
	table *engine.Table
}

// joinEdge is an equi-join conjunct between two bindings.
type joinEdge struct {
	a, b       string // aliases
	aCol, bCol string // column names on each side
	consumed   bool
}

// residual is a conjunct that needs several bindings before it can run.
type residual struct {
	refs map[string]bool
	expr sqlparser.Expr
	done bool
}

// constEq is a column = literal conjunct usable for index access.
type constEq struct {
	col string
	v   val.Value
}

// rangeBound is one inequality conjunct on a column, normalized to
// column-on-left form: col <op> v.
type rangeBound struct {
	col string
	op  string // "<", "<=", ">", ">="
	v   val.Value
}

// tableCtx is the per-binding planning state.
type tableCtx struct {
	b        binding
	schema   relSchema // single-table schema (qualified by alias)
	constEqs []constEq
	bounds   []rangeBound     // inequality conjuncts usable for range access
	filters  []sqlparser.Expr // all single-table conjuncts (includes constEqs/bounds)
	mat      *rowSet          // materialized filtered rows, lazily computed
	path     *accessPath      // chosen access path, lazily computed
	rec      *planRecorder    // EXPLAIN sink; nil when not explaining
}

func tableSchema(b binding) relSchema {
	cols := b.table.Schema().Columns
	s := make(relSchema, len(cols))
	for i, c := range cols {
		s[i] = colID{rel: b.alias, name: c.Name}
	}
	return s
}

// splitAnd flattens a conjunction into its conjuncts.
func splitAnd(e sqlparser.Expr, out []sqlparser.Expr) []sqlparser.Expr {
	if be, ok := e.(sqlparser.BinaryExpr); ok && be.Op == "AND" {
		out = splitAnd(be.L, out)
		return splitAnd(be.R, out)
	}
	return append(out, e)
}

// asConstEq recognizes col = literal (either order) conjuncts.
func asConstEq(e sqlparser.Expr) (sqlparser.ColumnRef, val.Value, bool) {
	be, ok := e.(sqlparser.BinaryExpr)
	if !ok || be.Op != "=" {
		return sqlparser.ColumnRef{}, val.Value{}, false
	}
	if c, ok := be.L.(sqlparser.ColumnRef); ok {
		if l, ok := be.R.(sqlparser.Literal); ok {
			return c, l.Val, true
		}
	}
	if c, ok := be.R.(sqlparser.ColumnRef); ok {
		if l, ok := be.L.(sqlparser.Literal); ok {
			return c, l.Val, true
		}
	}
	return sqlparser.ColumnRef{}, val.Value{}, false
}

// asRangeBound recognizes col <op> literal inequality conjuncts (either
// order; a literal on the left flips the operator).
func asRangeBound(e sqlparser.Expr) (sqlparser.ColumnRef, string, val.Value, bool) {
	be, ok := e.(sqlparser.BinaryExpr)
	if !ok {
		return sqlparser.ColumnRef{}, "", val.Value{}, false
	}
	switch be.Op {
	case "<", "<=", ">", ">=":
	default:
		return sqlparser.ColumnRef{}, "", val.Value{}, false
	}
	if c, ok := be.L.(sqlparser.ColumnRef); ok {
		if l, ok := be.R.(sqlparser.Literal); ok {
			return c, be.Op, l.Val, true
		}
	}
	if c, ok := be.R.(sqlparser.ColumnRef); ok {
		if l, ok := be.L.(sqlparser.Literal); ok {
			flip := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<="}
			return c, flip[be.Op], l.Val, true
		}
	}
	return sqlparser.ColumnRef{}, "", val.Value{}, false
}

// colInterval is the merged interval of every range bound on one column.
type colInterval struct {
	lo, hi         *val.Value // nil = open side
	loIncl, hiIncl bool
}

// interval folds tc's range bounds on the named column into one interval,
// keeping the tightest bound per side.
func (tc *tableCtx) interval(col string) colInterval {
	var iv colInterval
	for i := range tc.bounds {
		rb := &tc.bounds[i]
		if rb.col != col {
			continue
		}
		switch rb.op {
		case ">", ">=":
			incl := rb.op == ">="
			if iv.lo == nil {
				iv.lo, iv.loIncl = &rb.v, incl
			} else if c, ok := val.Compare(rb.v, *iv.lo); ok &&
				(c > 0 || (c == 0 && !incl)) {
				iv.lo, iv.loIncl = &rb.v, incl
			}
		case "<", "<=":
			incl := rb.op == "<="
			if iv.hi == nil {
				iv.hi, iv.hiIncl = &rb.v, incl
			} else if c, ok := val.Compare(rb.v, *iv.hi); ok &&
				(c < 0 || (c == 0 && !incl)) {
				iv.hi, iv.hiIncl = &rb.v, incl
			}
		}
	}
	return iv
}

// asJoinEdge recognizes colref = colref conjuncts across two bindings.
func asJoinEdge(e sqlparser.Expr, schema relSchema) (joinEdge, bool) {
	be, ok := e.(sqlparser.BinaryExpr)
	if !ok || be.Op != "=" {
		return joinEdge{}, false
	}
	lc, lok := be.L.(sqlparser.ColumnRef)
	rc, rok := be.R.(sqlparser.ColumnRef)
	if !lok || !rok {
		return joinEdge{}, false
	}
	li, err := schema.find(lc)
	if err != nil {
		return joinEdge{}, false
	}
	ri, err := schema.find(rc)
	if err != nil {
		return joinEdge{}, false
	}
	if schema[li].rel == schema[ri].rel {
		return joinEdge{}, false
	}
	return joinEdge{
		a: schema[li].rel, aCol: schema[li].name,
		b: schema[ri].rel, bCol: schema[ri].name,
	}, true
}

// pathKind enumerates the candidate access paths for one base table.
type pathKind int

const (
	pathScan    pathKind = iota // full table scan
	pathPK                      // primary-key point lookup
	pathEqProbe                 // secondary index probe, all columns const-eq bound
	pathRange                   // ordered-index range walk (eq prefix + interval)
)

func (k pathKind) String() string {
	switch k {
	case pathPK:
		return "pk probe"
	case pathEqProbe:
		return "eq probe"
	case pathRange:
		return "range walk"
	default:
		return "full scan"
	}
}

// rangeWalkPenalty is the per-row multiplier charged to an ordered-index
// range walk relative to a sequential scan: walked rows are fetched through
// the id indirection in key order rather than streamed page by page. With a
// factor of 3 a predicate selecting more than a third of the table falls
// back to the full scan.
const rangeWalkPenalty = 3.0

// accessPath is one costed way to produce a base table's filtered rows.
type accessPath struct {
	kind           pathKind
	idx            *engine.Index // pathEqProbe/pathRange
	pkVal          val.Value     // pathPK
	eqVals         []val.Value   // pathEqProbe: one value per index column
	lo, hi         []val.Value   // pathRange: composite bounds (possibly prefix, possibly nil)
	loIncl, hiIncl bool
	est            float64 // estimated rows fetched before residual filters
	cost           float64 // estimated work
}

// detail renders the path for EXPLAIN output.
func (p *accessPath) detail() string {
	var sb strings.Builder
	if p.idx != nil {
		fmt.Fprintf(&sb, "index=%s", p.idx.Name())
	}
	if p.kind == pathRange {
		bound := func(vs []val.Value) string {
			parts := make([]string, len(vs))
			for i, v := range vs {
				parts[i] = v.SQL()
			}
			return strings.Join(parts, ",")
		}
		sb.WriteString(" range=")
		if p.lo != nil {
			if p.loIncl {
				sb.WriteString("[")
			} else {
				sb.WriteString("(")
			}
			sb.WriteString(bound(p.lo))
		} else {
			sb.WriteString("(")
		}
		sb.WriteString("..")
		if p.hi != nil {
			sb.WriteString(bound(p.hi))
			if p.hiIncl {
				sb.WriteString("]")
			} else {
				sb.WriteString(")")
			}
		} else {
			sb.WriteString(")")
		}
	}
	if sb.Len() > 0 {
		fmt.Fprintf(&sb, " est=%d", int(p.est))
	} else {
		fmt.Fprintf(&sb, "est=%d", int(p.est))
	}
	return sb.String()
}

// accessPath chooses the cheapest candidate path for the binding, caching
// the result. Candidates are costed from the exact distinct-key counts the
// indexes maintain (Index.Len, ordered-index range ranks) and the table
// cardinality; ties between equally cheap index probes break toward the
// more selective index (higher Len), then toward the wider one.
func (tc *tableCtx) accessPath() *accessPath {
	if tc.path != nil {
		return tc.path
	}
	t := tc.b.table
	sch := t.Schema()
	n := float64(t.Len())
	best := &accessPath{kind: pathScan, est: n, cost: n}

	better := func(p *accessPath) bool {
		if p.cost != best.cost {
			return p.cost < best.cost
		}
		if best.kind == pathScan {
			return true
		}
		pl, bl := 0, 0
		if p.idx != nil {
			pl = p.idx.Len()
		}
		if best.idx != nil {
			bl = best.idx.Len()
		}
		if pl != bl {
			return pl > bl // more distinct keys = more selective
		}
		if p.idx != nil && best.idx != nil {
			return len(p.idx.Cols()) > len(best.idx.Cols())
		}
		return false
	}
	consider := func(p *accessPath) {
		if better(p) {
			best = p
		}
	}

	eqOn := make(map[int]val.Value, len(tc.constEqs))
	for _, ce := range tc.constEqs {
		eqOn[sch.ColumnIndex(ce.col)] = ce.v
	}
	if pk := t.PKCol(); pk >= 0 {
		if v, ok := eqOn[pk]; ok {
			consider(&accessPath{kind: pathPK, pkVal: v, est: 1, cost: 1})
		}
	}
	for _, idx := range t.Indexes() {
		cols := idx.Cols()
		perKey := n
		if k := idx.Len(); k > 0 {
			perKey = n / float64(k)
		}
		// Longest prefix of the index columns bound by const-eq conjuncts.
		p := 0
		for p < len(cols) {
			if _, ok := eqOn[cols[p]]; !ok {
				break
			}
			p++
		}
		if p == len(cols) {
			vals := make([]val.Value, len(cols))
			for i, c := range cols {
				vals[i] = eqOn[c]
			}
			consider(&accessPath{kind: pathEqProbe, idx: idx, eqVals: vals, est: perKey, cost: perKey})
			continue
		}
		if !idx.Ordered() {
			continue
		}
		// Ordered index with a partial prefix: an eq prefix and/or an
		// interval on the next column yield a bounded range walk.
		iv := tc.interval(sch.Columns[cols[p]].Name)
		if p == 0 && iv.lo == nil && iv.hi == nil {
			continue
		}
		prefix := make([]val.Value, p)
		for i := 0; i < p; i++ {
			prefix[i] = eqOn[cols[i]]
		}
		ap := &accessPath{kind: pathRange, idx: idx, loIncl: true, hiIncl: true}
		if iv.lo != nil {
			ap.lo = append(append([]val.Value(nil), prefix...), *iv.lo)
			ap.loIncl = iv.loIncl
		} else if p > 0 {
			ap.lo = prefix
		}
		if iv.hi != nil {
			ap.hi = append(append([]val.Value(nil), prefix...), *iv.hi)
			ap.hiIncl = iv.hiIncl
		} else if p > 0 {
			ap.hi = prefix
		}
		keys := float64(idx.RangeKeys(ap.lo, ap.loIncl, ap.hi, ap.hiIncl))
		ap.est = keys * perKey
		ap.cost = rangeWalkPenalty * ap.est
		consider(ap)
	}
	tc.path = best
	return best
}

// estimate guesses the post-filter cardinality of a base table.
func (tc *tableCtx) estimate() int {
	if tc.mat != nil {
		return len(tc.mat.rows)
	}
	n := tc.b.table.Len()
	switch p := tc.accessPath(); p.kind {
	case pathPK:
		return 1
	case pathEqProbe, pathRange:
		return int(p.est) + 1
	default:
		if len(tc.constEqs) > 0 {
			return n/3 + 1
		}
		if len(tc.filters) > 0 {
			return n/2 + 1
		}
		return n
	}
}

// pointwise reports whether the chosen path is a point-ish lookup cheap
// enough to materialize eagerly during singleton folding.
func (tc *tableCtx) pointwise() bool {
	switch tc.accessPath().kind {
	case pathPK, pathEqProbe:
		return true
	}
	return false
}

// materialize produces the base table's filtered rows via the chosen
// access path and caches the result.
func (tc *tableCtx) materialize() (*rowSet, error) {
	if tc.mat != nil {
		return tc.mat, nil
	}
	t := tc.b.table
	var preds []compiledExpr
	for _, f := range tc.filters {
		p, err := compileExpr(f, tc.schema)
		if err != nil {
			return nil, err
		}
		preds = append(preds, p)
	}
	out := &rowSet{schema: tc.schema}
	emit := func(row []val.Value) (bool, error) {
		for _, p := range preds {
			ok, err := truthy(p, row)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
		out.rows = append(out.rows, row)
		return true, nil
	}
	ap := tc.accessPath()
	switch ap.kind {
	case pathPK:
		if id, ok := t.LookupPK(ap.pkVal); ok {
			if _, err := emit(t.Get(id)); err != nil {
				return nil, err
			}
		}
	case pathEqProbe:
		for _, id := range ap.idx.Lookup(ap.eqVals) {
			if _, err := emit(t.Get(id)); err != nil {
				return nil, err
			}
		}
	case pathRange:
		var walkErr error
		ap.idx.AscendRange(ap.lo, ap.loIncl, ap.hi, ap.hiIncl, func(_ []val.Value, ids []engine.RowID) bool {
			for _, id := range ids {
				if _, err := emit(t.Get(id)); err != nil {
					walkErr = err
					return false
				}
			}
			return true
		})
		if walkErr != nil {
			return nil, walkErr
		}
	default:
		var scanErr error
		t.Scan(func(_ engine.RowID, row []val.Value) bool {
			if _, err := emit(row); err != nil {
				scanErr = err
				return false
			}
			return true
		})
		if scanErr != nil {
			return nil, scanErr
		}
	}
	tc.rec.record(tc.b.alias, ap.kind.String(), ap.detail(), len(out.rows))
	tc.mat = out
	return out, nil
}

// buildCtxs creates the per-binding planning state for a FROM list.
func buildCtxs(bindings []binding, rec *planRecorder) (map[string]*tableCtx, []string, relSchema, error) {
	full := relSchema{}
	ctxs := make(map[string]*tableCtx, len(bindings))
	var order []string
	for _, b := range bindings {
		if _, dup := ctxs[b.alias]; dup {
			return nil, nil, nil, fmt.Errorf("query: duplicate table binding %q", b.alias)
		}
		tc := &tableCtx{b: b, schema: tableSchema(b), rec: rec}
		ctxs[b.alias] = tc
		order = append(order, b.alias)
		full = append(full, tc.schema...)
	}
	return ctxs, order, full, nil
}

// classifyWhere splits a WHERE conjunction into per-binding filters
// (recording const-eq and range conjuncts on their tableCtx), join edges,
// residual predicates, and a constant-truth verdict.
func classifyWhere(where sqlparser.Expr, full relSchema, ctxs map[string]*tableCtx) (edges []*joinEdge, residuals []*residual, constTrue bool, err error) {
	constTrue = true
	if where == nil {
		return nil, nil, true, nil
	}
	for _, conj := range splitAnd(where, nil) {
		refs := make(map[string]bool)
		if err := exprRefs(conj, full, refs); err != nil {
			return nil, nil, false, err
		}
		switch len(refs) {
		case 0:
			p, err := compileExpr(conj, relSchema{})
			if err != nil {
				return nil, nil, false, err
			}
			ok, err := truthy(p, nil)
			if err != nil {
				return nil, nil, false, err
			}
			if !ok {
				constTrue = false
			}
		case 1:
			var alias string
			for a := range refs {
				alias = a
			}
			tc := ctxs[alias]
			tc.filters = append(tc.filters, conj)
			if c, v, ok := asConstEq(conj); ok {
				// Resolve the unqualified case to be sure of the column.
				i, err := full.find(c)
				if err == nil && full[i].rel == alias {
					tc.constEqs = append(tc.constEqs, constEq{col: full[i].name, v: v})
				}
			} else if c, op, v, ok := asRangeBound(conj); ok {
				i, err := full.find(c)
				if err == nil && full[i].rel == alias {
					tc.bounds = append(tc.bounds, rangeBound{col: full[i].name, op: op, v: v})
				}
			}
		case 2:
			if e, ok := asJoinEdge(conj, full); ok {
				edges = append(edges, &e)
				continue
			}
			residuals = append(residuals, &residual{refs: refs, expr: conj})
		default:
			residuals = append(residuals, &residual{refs: refs, expr: conj})
		}
	}
	return edges, residuals, constTrue, nil
}

// colNeeds is the set of columns a later pipeline stage can still read.
// Qualified references are keyed by binding and name; unqualified ones by
// name alone (empty rel).
type colNeeds map[colID]bool

// addRefs records every column reference in e.
func (n colNeeds) addRefs(e sqlparser.Expr) {
	switch ex := e.(type) {
	case sqlparser.ColumnRef:
		n[colID{rel: ex.Table, name: ex.Column}] = true
	case sqlparser.BinaryExpr:
		n.addRefs(ex.L)
		n.addRefs(ex.R)
	case sqlparser.UnaryExpr:
		n.addRefs(ex.X)
	case sqlparser.IsNull:
		n.addRefs(ex.X)
	case sqlparser.FuncCall:
		for _, a := range ex.Args {
			n.addRefs(a)
		}
	}
}

// keeps reports whether column c is live. An unqualified reference keeps
// every same-named column, so relSchema.find on a pruned schema returns
// the same column, or the same ambiguity error, as on the full schema.
func (n colNeeds) keeps(c colID) bool {
	return n[c] || n[colID{name: c.name}]
}

// planJoins materializes and joins all FROM bindings, applying pushdown,
// join edges, and residual conjuncts. It returns the joined row set. live
// holds the expressions evaluated after the join (select list, GROUP BY,
// ORDER BY): each join step keeps only the columns these, the unconsumed
// join edges and the residuals not yet applied can still reference. When
// rec is non-nil every access-path and join decision is recorded for
// EXPLAIN output.
func planJoins(bindings []binding, where sqlparser.Expr, live []sqlparser.Expr, rec *planRecorder) (*rowSet, error) {
	ctxs, order, full, err := buildCtxs(bindings, rec)
	if err != nil {
		return nil, err
	}
	edges, residuals, constTrue, err := classifyWhere(where, full, ctxs)
	if err != nil {
		return nil, err
	}
	if !constTrue {
		// A constant-false conjunct empties the result.
		rec.record("", "empty", "constant-false predicate", 0)
		return &rowSet{schema: full}, nil
	}

	// Greedy left-deep join order: start from the cheapest binding; then
	// repeatedly add the cheapest binding connected by a join edge, falling
	// back to a cross product when the join graph is disconnected.
	joined := make(map[string]bool)
	pick := func(candidates []string) string {
		best, bestCard := "", int(^uint(0)>>1)
		for _, a := range candidates {
			if c := ctxs[a].estimate(); c < bestCard || best == "" {
				best, bestCard = a, c
			}
		}
		return best
	}
	remaining := append([]string(nil), order...)
	removeRemaining := func(alias string) {
		for i, a := range remaining {
			if a == alias {
				remaining = append(remaining[:i], remaining[i+1:]...)
				return
			}
		}
	}

	start := pick(remaining)
	cur, err := ctxs[start].materialize()
	if err != nil {
		return nil, err
	}
	joined[start] = true
	removeRemaining(start)

	// joinStep joins binding a into cur over every unconsumed edge between
	// a and the joined set. Residuals whose bindings are all joined once a
	// joins run inside the probe; the output keeps only live columns.
	joinStep := func(a string) error {
		var active []*joinEdge
		for _, e := range edges {
			if !e.consumed && ((e.a == a && joined[e.b]) || (e.b == a && joined[e.a])) {
				active = append(active, e)
				e.consumed = true
			}
		}
		joined[a] = true
		removeRemaining(a)
		var ready []sqlparser.Expr
	nextResidual:
		for _, r := range residuals {
			if r.done {
				continue
			}
			for ra := range r.refs {
				if !joined[ra] {
					continue nextResidual
				}
			}
			ready = append(ready, r.expr)
			r.done = true
		}
		need := colNeeds{}
		for _, e := range live {
			need.addRefs(e)
		}
		for _, e := range edges {
			if !e.consumed {
				need[colID{rel: e.a, name: e.aCol}] = true
				need[colID{rel: e.b, name: e.bCol}] = true
			}
		}
		for _, r := range residuals {
			if !r.done {
				need.addRefs(r.expr)
			}
		}
		var err error
		cur, err = joinNext(cur, ctxs[a], active, ready, need)
		return err
	}

	// Eagerly fold in near-singleton tables (point lookups on constants):
	// crossing with at most a couple of rows is free and seeds join edges
	// that keep later fanouts bound — e.g. the E-chain anchors of
	// translated belief queries, which must join before the much larger V
	// tables. Tables whose constant predicates are fully index-covered are
	// materialized first so the estimate is exact.
	for _, a := range remaining {
		tc := ctxs[a]
		if tc.mat != nil || len(tc.constEqs) == 0 {
			continue
		}
		if tc.pointwise() {
			if _, err := tc.materialize(); err != nil {
				return nil, err
			}
		}
	}
	for {
		folded := false
		for _, a := range append([]string(nil), remaining...) {
			if ctxs[a].mat == nil || ctxs[a].estimate() > 2 {
				continue
			}
			if err := joinStep(a); err != nil {
				return nil, err
			}
			folded = true
		}
		if !folded {
			break
		}
	}

	// fanout estimates the per-left-row output of joining candidate a next:
	// near 1 for PK or selective index joins, the filtered table size for
	// hash joins.
	fanout := func(a string) float64 {
		tc := ctxs[a]
		sch := tc.b.table.Schema()
		joinCols := make(map[int]bool)
		for _, e := range edges {
			if e.consumed {
				continue
			}
			if e.a == a && joined[e.b] {
				joinCols[sch.ColumnIndex(e.aCol)] = true
			} else if e.b == a && joined[e.a] {
				joinCols[sch.ColumnIndex(e.bCol)] = true
			}
		}
		if pk := tc.b.table.PKCol(); pk >= 0 && joinCols[pk] {
			return 1
		}
		constCols := make(map[int]bool)
		for _, ce := range tc.constEqs {
			constCols[sch.ColumnIndex(ce.col)] = true
		}
		best := 0
		for _, idx := range tc.b.table.Indexes() {
			usable, hasJoin := true, false
			for _, c := range idx.Cols() {
				switch {
				case joinCols[c]:
					hasJoin = true
				case constCols[c]:
				default:
					usable = false
				}
			}
			if usable && hasJoin && idx.Len() > best {
				best = idx.Len()
			}
		}
		if best > 0 {
			return float64(tc.b.table.Len()) / float64(best)
		}
		return float64(tc.estimate())
	}

	for len(remaining) > 0 {
		var connected []string
		for _, a := range remaining {
			for _, e := range edges {
				if e.consumed {
					continue
				}
				if (e.a == a && joined[e.b]) || (e.b == a && joined[e.a]) {
					connected = append(connected, a)
					break
				}
			}
		}
		var next string
		if len(connected) > 0 {
			next = connected[0]
			bestF := fanout(next)
			for _, a := range connected[1:] {
				if f := fanout(a); f < bestF {
					next, bestF = a, f
				}
			}
		} else {
			next = pick(remaining)
		}
		if err := joinStep(next); err != nil {
			return nil, err
		}
	}
	for _, r := range residuals {
		if !r.done {
			return nil, fmt.Errorf("query: internal error: residual predicate %s never applied", r.expr)
		}
	}
	return cur, nil
}

// joinPair maps one equi-join edge to a left row offset and a right table
// column position.
type joinPair struct{ leftIdx, rightIdx int }

// Slab chunks start small, so a point query allocates little, and double
// per chunk up to slabMaxRows rows.
const slabMinRows, slabMaxRows = 16, 1024

// joinOut is the output side of one join step. Each candidate pair is
// checked against the step's residuals on a reused scratch row before
// anything is allocated; a surviving pair copies only the live columns
// into a row cut from a chunked slab.
type joinOut struct {
	preds        []compiledExpr // compiled against cur.schema ++ tc.schema
	scratch      []val.Value    // the concatenated candidate row, when preds exist
	keepL, keepR []int          // live column offsets in the left and right rows
	slab         []val.Value    // unused tail of the current chunk
	chunk        int            // rows per chunk
	rows         [][]val.Value
}

// emit tests the candidate pair (l, r) against the residuals and, when
// every one holds, appends the pair's live columns as one output row.
func (o *joinOut) emit(l, r []val.Value) error {
	if len(o.preds) > 0 {
		copy(o.scratch, l)
		copy(o.scratch[len(l):], r)
		for _, p := range o.preds {
			ok, err := truthy(p, o.scratch)
			if err != nil || !ok {
				return err
			}
		}
	}
	n := len(o.keepL) + len(o.keepR)
	if len(o.slab) < n {
		o.chunk = min(max(2*o.chunk, slabMinRows), slabMaxRows)
		o.slab = make([]val.Value, o.chunk*n)
	}
	row := o.slab[:n:n]
	o.slab = o.slab[n:]
	for i, c := range o.keepL {
		row[i] = l[c]
	}
	for i, c := range o.keepR {
		row[len(o.keepL)+i] = r[c]
	}
	o.rows = append(o.rows, row)
	return nil
}

// joinNext joins the accumulated row set with one more base table using the
// given equi-join edges: by index nested loop when the new table has a
// matching index, otherwise by hash join (or cross product with no edges).
// The ready residuals filter inside the probe, and the output keeps only
// the columns need marks live.
func joinNext(cur *rowSet, tc *tableCtx, edges []*joinEdge, ready []sqlparser.Expr, need colNeeds) (*rowSet, error) {
	pairs := make([]joinPair, 0, len(edges))
	sch := tc.b.table.Schema()
	for _, e := range edges {
		leftAlias, leftCol, rightCol := e.a, e.aCol, e.bCol
		if e.a == tc.b.alias {
			leftAlias, leftCol, rightCol = e.b, e.bCol, e.aCol
		}
		li, err := cur.schema.find(sqlparser.ColumnRef{Table: leftAlias, Column: leftCol})
		if err != nil {
			return nil, err
		}
		ri := sch.ColumnIndex(rightCol)
		if ri < 0 {
			return nil, fmt.Errorf("query: no column %s in %s", rightCol, tc.b.alias)
		}
		pairs = append(pairs, joinPair{leftIdx: li, rightIdx: ri})
	}

	in := append(append(relSchema{}, cur.schema...), tc.schema...)
	o := &joinOut{}
	for _, e := range ready {
		p, err := compileExpr(e, in)
		if err != nil {
			return nil, err
		}
		o.preds = append(o.preds, p)
	}
	if len(o.preds) > 0 {
		o.scratch = make([]val.Value, len(in))
	}
	out := &rowSet{}
	for i, c := range in {
		if !need.keeps(c) {
			continue
		}
		out.schema = append(out.schema, c)
		if i < len(cur.schema) {
			o.keepL = append(o.keepL, i)
		} else {
			o.keepR = append(o.keepR, i-len(cur.schema))
		}
	}
	done := func(op, detail string) (*rowSet, error) {
		out.rows = o.rows
		tc.rec.record(tc.b.alias, op, detail, len(out.rows))
		return out, nil
	}

	if len(pairs) == 0 {
		rs, err := tc.materialize()
		if err != nil {
			return nil, err
		}
		for _, l := range cur.rows {
			for _, r := range rs.rows {
				if err := o.emit(l, r); err != nil {
					return nil, err
				}
			}
		}
		return done("cross join", "")
	}

	// Index nested-loop join: usable when the table has not yet been
	// materialized and an index (or the primary key) covers a subset of the
	// join/const columns.
	if tc.mat == nil {
		ok, detail, err := indexJoin(cur, tc, pairs, o.emit)
		if err != nil {
			return nil, err
		}
		if ok {
			return done("index join", detail)
		}
	}

	rs, err := tc.materialize()
	if err != nil {
		return nil, err
	}
	// Hash join: build on the new (right) side, probe with cur. Buckets are
	// keyed by the 64-bit composite hash of the join columns; the probe
	// re-verifies value equality so hash collisions never join unequal rows.
	build := make(map[uint64][][]val.Value, len(rs.rows))
	for _, r := range rs.rows {
		h := val.HashSeed()
		for _, p := range pairs {
			h = val.Hash64(h, r[p.rightIdx])
		}
		build[h] = append(build[h], r)
	}
	for _, l := range cur.rows {
		h := val.HashSeed()
		for _, p := range pairs {
			h = val.Hash64(h, l[p.leftIdx])
		}
	probe:
		for _, r := range build[h] {
			for _, p := range pairs {
				if !val.Equal(l[p.leftIdx], r[p.rightIdx]) {
					continue probe
				}
			}
			if err := o.emit(l, r); err != nil {
				return nil, err
			}
		}
	}
	return done("hash join", "")
}

// indexJoin attempts an index nested-loop join, calling emit for every
// joined row pair; it reports ok=false when no suitable index exists. The
// detail string names the probe structure for EXPLAIN.
func indexJoin(cur *rowSet, tc *tableCtx, pairs []joinPair, emit func(l, r []val.Value) error) (bool, string, error) {
	t := tc.b.table
	sch := t.Schema()
	joinCols := make(map[int]int) // right col -> left offset
	for _, p := range pairs {
		joinCols[p.rightIdx] = p.leftIdx
	}
	constCols := make(map[int]val.Value)
	for _, ce := range tc.constEqs {
		constCols[sch.ColumnIndex(ce.col)] = ce.v
	}
	// Compile leftover single-table filters to apply after the lookup.
	var preds []compiledExpr
	for _, f := range tc.filters {
		p, err := compileExpr(f, tc.schema)
		if err != nil {
			return false, "", err
		}
		preds = append(preds, p)
	}
	checkEmit := func(l, r []val.Value) error {
		for _, p := range preds {
			ok, err := truthy(p, r)
			if err != nil || !ok {
				return err
			}
		}
		// Verify join columns not covered by the index.
		for _, pr := range pairs {
			if !val.Equal(l[pr.leftIdx], r[pr.rightIdx]) {
				return nil
			}
		}
		return emit(l, r)
	}

	// Primary key join when the pk column participates in the join.
	if pk := t.PKCol(); pk >= 0 {
		if leftOff, ok := joinCols[pk]; ok {
			for _, l := range cur.rows {
				if id, found := t.LookupPK(l[leftOff]); found {
					if err := checkEmit(l, t.Get(id)); err != nil {
						return false, "", err
					}
				}
			}
			return true, "pk", nil
		}
	}
	// Secondary index whose columns are all join or const columns; prefer
	// the most selective one (smallest expected bucket: highest distinct
	// key count), breaking ties toward wider indexes.
	var best *engine.Index
	for _, idx := range t.Indexes() {
		usable, hasJoin := true, false
		for _, c := range idx.Cols() {
			if _, ok := joinCols[c]; ok {
				hasJoin = true
				continue
			}
			if _, ok := constCols[c]; ok {
				continue
			}
			usable = false
			break
		}
		if !usable || !hasJoin {
			continue
		}
		if best == nil || idx.Len() > best.Len() ||
			(idx.Len() == best.Len() && len(idx.Cols()) > len(best.Cols())) {
			best = idx
		}
	}
	if best == nil {
		return false, "", nil
	}
	vals := make([]val.Value, len(best.Cols()))
	for _, l := range cur.rows {
		for i, c := range best.Cols() {
			if off, ok := joinCols[c]; ok {
				vals[i] = l[off]
			} else {
				vals[i] = constCols[c]
			}
		}
		for _, id := range best.Lookup(vals) {
			if err := checkEmit(l, t.Get(id)); err != nil {
				return false, "", err
			}
		}
	}
	return true, "index=" + best.Name(), nil
}
