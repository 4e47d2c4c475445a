package store

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"beliefdb/internal/core"
	"beliefdb/internal/val"
	"beliefdb/internal/wal"
)

// Group is one atomic unit of belief mutations: its ops apply in order and
// all-or-nothing. Each op is a wal.KindInsert, wal.KindDelete or
// wal.KindReplace record — the same value the WAL journals, so replay
// feeds recovered records back in unchanged. Token is the client's
// idempotency token ("" for none). A single statement is a group of one.
type Group struct {
	Ops   []wal.Op
	Token string
}

// BatchResult reports a group's outcome. On error nothing was applied (a
// group is all-or-nothing) and the zero BatchResult is returned.
type BatchResult struct {
	Applied    int    // statements applied: the whole group on success
	Changed    int    // statements that changed state (non-duplicate, non-no-op)
	ChangedOps []bool // per-statement changed flags, parallel to the group
}

// Outcome is one group's result within an Apply round: its BatchResult on
// success, or the error that rolled it (alone) back.
type Outcome struct {
	Res BatchResult
	Err error
}

// Apply is the store's write path: every belief mutation — a single
// Insert, Delete or Replace, a client batch, a coalesced round of many
// clients' batches, a bulk load, WAL replay — commits through it. One
// writer-lock hold covers the whole round:
//
//  1. a round opened inside a raw-SQL transaction is refused whole;
//  2. a group whose token was already applied reports its original result
//     without being journaled again, and a retry that lands in the same
//     round as its original rides along as an alias of it;
//  3. every group is validated, and an invalid one fails alone before
//     anything is journaled;
//  4. the valid groups are journaled write-ahead in one write and one
//     fsync (wal.Log.AppendGroups: a group of one untokened op as its bare
//     record, any other behind a BatchBegin marker);
//  5. each group applies atomically through the update algorithms, with
//     dependent-world reconciliation deferred to one pass per group;
//  6. the tokens of groups that succeeded are recorded;
//  7. one snapshot is published.
//
// Outcomes are positional: outcome i belongs to groups[i]. An empty group
// succeeds vacuously; a journaling failure fails every group of the round
// (nothing was applied).
//
// The deferral in step 5 is the algorithmic half of group commit: instead
// of re-deriving every dependent world's key slice after each statement
// (Algorithm 4 lines 8-14), the affected (relation, world, key) anchors are
// collected across the group and each distinct dependent slice is
// reconciled once, in the ascending-depth order Algorithm 4 requires. The
// result is identical to applying the statements one by one;
// the store's batch tests assert the equivalence.
//
// A failing statement — an ErrConflict, an arity or type error — rolls its
// whole group back: tables through the engine transaction's undo log, the
// logical world catalogs through an explicit rewind. The failure is
// deterministic (a function of the store state and the group alone), and
// the group is already journaled, so crash replay re-runs it, reaches the
// same failure, and rolls back identically. Only successful groups enter
// the token table; a failed group re-derives its failure on retry.
func (st *Store) Apply(groups []Group) []Outcome {
	st.mu.Lock()
	defer st.mu.Unlock()
	defer st.publishLocked()
	return st.applyLocked(groups)
}

// applyOne commits a single statement as a group of one — journaled as a
// bare WAL record — and reports whether it changed state.
func (st *Store) applyOne(op wal.Op) (bool, error) {
	return changed(st.Apply(single(op)))
}

// single wraps one statement as a group of one.
func single(op wal.Op) []Group { return []Group{{Ops: []wal.Op{op}}} }

// changed reports a one-group round's outcome as (changed, error).
func changed(outs []Outcome) (bool, error) { return outs[0].Res.Changed > 0, outs[0].Err }

// applyLocked is Apply under the already-held writer lock. It never
// publishes: Apply publishes once per round, BulkLoad once per load.
func (st *Store) applyLocked(groups []Group) []Outcome {
	out := make([]Outcome, len(groups))
	// An open raw-SQL transaction would make every Begin below fail after
	// the groups were already journaled, leaving durable records that were
	// never applied; refuse the round up front instead.
	if st.cat.InTxn() {
		err := fmt.Errorf("store: cannot apply inside an open transaction")
		for i := range out {
			out[i].Err = err
		}
		return out
	}

	var validBuf [8]int // keeps small rounds — single statements above all — off the heap
	valid := validBuf[:0]
	// A retry can land in the same round as its original (the first
	// attempt still queued when the resend arrives): journaling both would
	// put the token in the WAL twice and replay would apply it twice.
	// Aliases ride along un-journaled and copy the original's outcome.
	var inRound map[string]int
	var aliases [][2]int // {alias, original}
	for i, g := range groups {
		if len(g.Ops) == 0 {
			continue // vacuous success: nothing to journal or apply
		}
		if g.Token != "" {
			if res, ok := st.appliedTokens[g.Token]; ok {
				out[i].Res = res // exactly-once: retry of an applied group
				continue
			}
			if first, ok := inRound[g.Token]; ok {
				aliases = append(aliases, [2]int{i, first})
				continue
			}
		}
		if err := st.validateLocked(g.Ops); err != nil {
			out[i].Err = err
			continue
		}
		if g.Token != "" {
			if inRound == nil {
				inRound = make(map[string]int)
			}
			inRound[g.Token] = i
		}
		valid = append(valid, i)
	}

	if err := st.journalLocked(groups, valid); err != nil {
		for _, i := range valid {
			out[i].Err = err
		}
		valid = nil
	}
	for _, i := range valid {
		out[i].Res, out[i].Err = st.applyGroupLocked(groups[i].Ops)
		if t := groups[i].Token; t != "" && out[i].Err == nil {
			st.recordTokenLocked(t, out[i].Res)
		}
	}
	for _, a := range aliases {
		out[a[0]] = out[a[1]]
	}
	return out
}

// opError attributes a statement's error to its position in a
// multi-statement group; a group of one reports the error as is.
func opError(ops []wal.Op, i int, err error) error {
	if len(ops) == 1 {
		return err
	}
	return fmt.Errorf("store: batch statement %d (%s): %w", i, ops[i].Stmt, err)
}

// isStatement reports whether k is a belief-statement record, the only
// kind a Group holds.
func isStatement(k wal.Kind) bool {
	return k == wal.KindInsert || k == wal.KindDelete || k == wal.KindReplace
}

// validateLocked checks a group before anything is journaled or any table
// touched, so a malformed group is rejected whole with no journal record.
// Deletes and replaces are lenient: an unknown world or absent statement is
// a no-op at apply time, so only the relation and the path's shape must be
// valid.
func (st *Store) validateLocked(ops []wal.Op) error {
	for i, op := range ops {
		var err error
		switch {
		case !isStatement(op.Kind):
			err = fmt.Errorf("store: %s is not a belief statement", op.Kind)
		case st.rels[op.Stmt.Tuple.Rel] == nil:
			err = fmt.Errorf("store: unknown relation %q", op.Stmt.Tuple.Rel)
		case !op.Stmt.Path.Valid():
			err = fmt.Errorf("store: invalid belief path %s", op.Stmt.Path)
		case op.Kind == wal.KindInsert:
			for _, u := range op.Stmt.Path {
				if _, ok := st.usersByID[u]; !ok {
					err = fmt.Errorf("store: unknown user %d in path %s", u, op.Stmt.Path)
					break
				}
			}
		}
		if err != nil {
			return opError(ops, i, err)
		}
	}
	return nil
}

// journalLocked appends the valid groups of a round to the WAL in one
// write and one fsync.
func (st *Store) journalLocked(groups []Group, valid []int) error {
	if len(valid) == 0 || st.wal == nil {
		return nil // nothing to journal, or an in-memory store (or recovery replaying its log)
	}
	ops := make([][]wal.Op, len(valid))
	tokens := make([]string, len(valid))
	for k, i := range valid {
		ops[k], tokens[k] = groups[i].Ops, groups[i].Token
	}
	return st.journal(ops, tokens)
}

// applyGroupLocked runs an already-validated, already-journaled group
// through the update algorithms inside one engine transaction:
// all-or-nothing, with dependent-world reconciliation deferred to one pass
// at the end.
func (st *Store) applyGroupLocked(ops []wal.Op) (BatchResult, error) {
	txn, err := st.cat.Begin()
	if err != nil {
		return BatchResult{}, err // unreachable under the lock after the InTxn check
	}
	mark := st.markLogical()
	fail := func(err error) (BatchResult, error) {
		txn.Rollback()
		st.rewindLogical(mark)
		return BatchResult{}, err
	}
	var pend pendingReconcile
	res := BatchResult{ChangedOps: make([]bool, len(ops))}
	for i, op := range ops {
		changed, delta, err := st.applyOpLocked(op, &pend)
		if err != nil {
			return fail(opError(ops, i, err))
		}
		if changed {
			res.ChangedOps[i] = true
			res.Changed++
		}
		st.n += delta
	}
	if err := st.flushReconcile(&pend); err != nil {
		return fail(err)
	}
	if err := txn.Commit(); err != nil {
		return fail(err)
	}
	res.Applied = len(ops)
	return res, nil
}

// applyOpLocked applies one statement of a group, reporting whether it
// changed state and by how much it moved the explicit-statement count n.
// Deletes and replaces resolve their target at apply time — an earlier
// statement of the same group may have created or removed it — and are
// no-ops when it is absent.
func (st *Store) applyOpLocked(op wal.Op, pend *pendingReconcile) (changed bool, delta int, err error) {
	ri := st.rels[op.Stmt.Tuple.Rel]
	if op.Kind == wal.KindInsert {
		changed, err = st.insertLocked(ri, op.Stmt, pend)
		if changed {
			delta = 1
		}
		return changed, delta, err
	}
	y, key, target := st.resolveExplicit(ri, op.Stmt)
	if target == nil {
		return false, 0, nil
	}
	if err := st.deleteLocked(ri, y, key, *target, pend); err != nil {
		return false, 0, err
	}
	if op.Kind == wal.KindDelete {
		return true, -1, nil
	}
	// Replace: the new tuple takes the old statement's place (BeliefSQL
	// UPDATE = delete + insert). It may already be stated explicitly, in
	// which case the statement count drops by the deleted one.
	added, err := st.insertLocked(ri, core.Statement{
		Path: op.Stmt.Path, Sign: op.Stmt.Sign,
		Tuple: core.Tuple{Rel: op.Stmt.Tuple.Rel, Vals: op.NewVals},
	}, pend)
	if added {
		delta = 1
	}
	return true, delta - 1, err
}

// maxAppliedTokens bounds the exactly-once dedup table. FIFO eviction
// caps the retry horizon: a retry older than the last maxAppliedTokens
// successful groups can no longer be deduplicated, which is far beyond
// any client's backoff schedule. Checkpoint truncation bounds it too —
// tokens are journaled in the WAL, not the snapshot, so only groups
// since the last checkpoint survive a restart.
const maxAppliedTokens = 4096

// recordTokenLocked enters a successfully applied group's token into the
// dedup table, evicting the oldest entries past the bound.
func (st *Store) recordTokenLocked(token string, res BatchResult) {
	if _, ok := st.appliedTokens[token]; ok {
		return
	}
	if st.appliedTokens == nil {
		st.appliedTokens = make(map[string]BatchResult)
	}
	st.appliedTokens[token] = res
	st.tokenOrder = append(st.tokenOrder, token)
	for len(st.tokenOrder) > maxAppliedTokens {
		delete(st.appliedTokens, st.tokenOrder[0])
		st.tokenOrder = st.tokenOrder[1:]
	}
}

// logicalMark snapshots the logical world catalogs so a rollback can undo
// them alongside the engine transaction's table undo log: idWorld registers
// new worlds in widByPath/pathByWid (and bumps nextWid/nextTid) outside any
// table, and leaving those entries behind after a rollback would let later
// statements resolve paths to worlds whose D/E/S rows were undone.
type logicalMark struct {
	nextWid, nextTid int64
	n                int
}

func (st *Store) markLogical() logicalMark {
	return logicalMark{nextWid: st.nextWid, nextTid: st.nextTid, n: st.n}
}

// rewindLogical drops every world registered since the mark (idWorld only
// ever adds worlds, with ascending ids) and restores the counters.
func (st *Store) rewindLogical(m logicalMark) {
	if m.nextWid != st.nextWid {
		st.worldsGen++
	}
	for wid := m.nextWid; wid < st.nextWid; wid++ {
		if p, ok := st.pathByWid[wid]; ok {
			delete(st.widByPath, p.Key())
			delete(st.pathByWid, wid)
		}
	}
	st.nextWid, st.nextTid, st.n = m.nextWid, m.nextTid, m.n
}

// pendingReconcile collects the (relation, world, key) anchors a group's
// statements touched, so dependent-world reconciliation runs once per
// distinct slice when the group commits instead of once per statement.
type pendingReconcile struct {
	anchors []anchor
}

// anchor is one touched key slice. self marks an anchor whose own world
// must be re-derived too: a delete may unblock rows the world inherits,
// whereas an insert already settled its world's implicit rows (Algorithm 4
// lines 3-6) and only its dependents inherit the change.
type anchor struct {
	ri   *relInfo
	wid  int64
	key  val.Value
	self bool
}

func (p *pendingReconcile) add(ri *relInfo, wid int64, key val.Value, self bool) {
	p.anchors = append(p.anchors, anchor{ri: ri, wid: wid, key: key, self: self})
}

// reconcileSlice is one key slice to re-derive: an anchor's (relation,
// key) in world wid, with the rest of its sort key — depth and path key —
// computed once.
type reconcileSlice struct {
	anchor    int // index into the pending anchors
	wid       int64
	depth     int
	path, end int // arena[path:end] holds the world's Path.Key bytes
}

// flushReconcile expands the collected anchors to every affected slice —
// the anchor world itself where needed plus all its dependents, computed
// after the whole group so worlds created mid-group are included — sorts
// and deduplicates them, and reconciles each once in ascending depth order.
// Depth order is what Algorithm 4 requires: reconcileKeySlice re-derives a
// world's implicit beliefs from its deepest suffix state, which is strictly
// shallower and, being in the same anchor's closure, has already been
// reconciled. Ties break on path key, relation and row key, so replay
// assigns row ids deterministically.
func (st *Store) flushReconcile(p *pendingReconcile) error {
	if len(p.anchors) == 0 || st.lazy {
		return nil
	}
	// Stack buffers keep the common small flush off the heap.
	var (
		todoBuf  [16]reconcileSlice
		arenaBuf [128]byte
	)
	todo, arena := todoBuf[:0], arenaBuf[:0]
	add := func(anchor int, wid int64, path core.Path) {
		start := len(arena)
		arena = appendPathKey(arena, path)
		todo = append(todo, reconcileSlice{anchor: anchor, wid: wid, depth: len(path), path: start, end: len(arena)})
	}
	// Row keys only order slices of different anchors.
	var rowKeys []string
	if len(p.anchors) > 1 {
		rowKeys = make([]string, len(p.anchors))
	}
	for i, a := range p.anchors {
		if rowKeys != nil {
			rowKeys[i] = a.key.Key()
		}
		w := st.pathByWid[a.wid]
		if a.self {
			add(i, a.wid, w)
		}
		for wid, z := range st.pathByWid {
			if len(z) > len(w) && z.HasSuffix(w) {
				add(i, wid, z)
			}
		}
	}
	// sameSlice reports whether anchors i and j name the same (relation,
	// key).
	sameSlice := func(i, j int) bool {
		return i == j || p.anchors[i].ri == p.anchors[j].ri && rowKeys[i] == rowKeys[j]
	}
	slices.SortFunc(todo, func(a, b reconcileSlice) int {
		if c := cmp.Compare(a.depth, b.depth); c != 0 {
			return c
		}
		if c := bytes.Compare(arena[a.path:a.end], arena[b.path:b.end]); c != 0 {
			return c
		}
		if a.anchor == b.anchor {
			return 0
		}
		if c := cmp.Compare(p.anchors[a.anchor].ri.def.Name, p.anchors[b.anchor].ri.def.Name); c != 0 {
			return c
		}
		return cmp.Compare(rowKeys[a.anchor], rowKeys[b.anchor])
	})
	for i, s := range todo {
		if i > 0 && todo[i-1].wid == s.wid && sameSlice(todo[i-1].anchor, s.anchor) {
			continue // the same slice reached from two anchors
		}
		a := p.anchors[s.anchor]
		if err := st.reconcileKeySlice(a.ri, s.wid, a.key); err != nil {
			return err
		}
	}
	return nil
}

// appendPathKey appends p.Key() to dst without building the string.
func appendPathKey(dst []byte, p core.Path) []byte {
	for i, u := range p {
		if i > 0 {
			dst = append(dst, '.')
		}
		dst = strconv.AppendInt(dst, int64(u), 10)
	}
	return dst
}
