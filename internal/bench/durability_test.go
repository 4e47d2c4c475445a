package bench

import (
	"fmt"
	"testing"

	"beliefdb/internal/core"
	"beliefdb/internal/gen"
	"beliefdb/internal/store"
	"beliefdb/internal/val"
	"beliefdb/internal/wal"
)

// coreStatement wraps generated values in a root-world insert.
func coreStatement(vals []val.Value) core.Statement {
	return core.Statement{Sign: core.Pos, Tuple: core.Tuple{Rel: gen.DefaultRel, Vals: vals}}
}

// TestRunDurability smoke-tests the harness at a small scale and sanity
// checks the invariants the report relies on.
func TestRunDurability(t *testing.T) {
	res, err := RunDurability(200, 8, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops <= res.N {
		t.Errorf("ops = %d, want > n = %d (users are journaled too)", res.Ops, res.N)
	}
	if res.WALBytes <= 0 || res.SnapshotBytes <= 0 {
		t.Errorf("file sizes not measured: wal=%d snapshot=%d", res.WALBytes, res.SnapshotBytes)
	}
	if res.WALReplayNs <= 0 || res.SnapshotLoadNs <= 0 || res.CheckpointNs <= 0 {
		t.Errorf("timings not measured: %+v", res)
	}
	if r := res.Render(); r == "" {
		t.Error("empty render")
	}
}

// durableBenchDir builds a durable database for the recovery benchmarks
// and returns its directory. checkpoint selects whether the state ends up
// in the snapshot (empty WAL) or in the WAL (no snapshot).
func durableBenchDir(b *testing.B, n int, checkpoint bool) string {
	b.Helper()
	dir := b.TempDir()
	st, _, err := buildDurable(dir, durabilityConfig(10, 7, n), n)
	if err != nil {
		b.Fatal(err)
	}
	if checkpoint {
		if err := st.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkWALReplay measures cold recovery from the write-ahead log
// alone: OpenAt parses, checksums, and re-executes every journaled
// operation through the paper's update algorithms.
func BenchmarkWALReplay(b *testing.B) {
	for _, n := range []int{100, 500} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			dir := durableBenchDir(b, n, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := store.OpenAt(dir, []store.Relation{GenRelation()})
				if err != nil {
					b.Fatal(err)
				}
				st.Close()
			}
		})
	}
}

// BenchmarkSnapshotLoad measures cold recovery from a checkpointed
// snapshot: OpenAt verifies the checksum and bulk-loads the tables without
// re-running any update algorithm.
func BenchmarkSnapshotLoad(b *testing.B) {
	for _, n := range []int{100, 500} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			dir := durableBenchDir(b, n, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := store.OpenAt(dir, []store.Relation{GenRelation()})
				if err != nil {
					b.Fatal(err)
				}
				st.Close()
			}
		})
	}
}

// BenchmarkWALAppend measures the per-operation journaling tax (encode +
// frame + write + fsync) on the insert path.
func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	st, err := store.OpenAt(dir, []store.Relation{GenRelation()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if _, err := st.AddUser("u1"); err != nil {
		b.Fatal(err)
	}
	cols := gen.RelColumns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals := make([]val.Value, len(cols))
		vals[0] = val.Str(fmt.Sprintf("k%d", i))
		for j := 1; j < len(cols); j++ {
			vals[j] = val.Str("x")
		}
		if _, err := st.Insert(coreStatement(vals)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkInsertBatch measures the per-statement cost of durable root
// inserts flushed in groups of size: size 1 is the classic one-fsync-per-
// statement path, larger sizes amortize the WAL sync over the whole group
// (one writer-lock acquisition, one write, one fsync). The reported
// fsyncs/op metric drops from 1 to 1/size.
func benchmarkInsertBatch(b *testing.B, size int) {
	dir := b.TempDir()
	st, err := store.OpenAt(dir, []store.Relation{GenRelation()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if _, err := st.AddUser("u1"); err != nil {
		b.Fatal(err)
	}
	cols := gen.RelColumns()
	stmt := func(i int) core.Statement {
		vals := make([]val.Value, len(cols))
		vals[0] = val.Str(fmt.Sprintf("k%d", i))
		for j := 1; j < len(cols); j++ {
			vals[j] = val.Str("x")
		}
		return coreStatement(vals)
	}
	syncs0 := st.WALSyncs()
	b.ResetTimer()
	if size == 1 {
		for i := 0; i < b.N; i++ {
			if _, err := st.Insert(stmt(i)); err != nil {
				b.Fatal(err)
			}
		}
	} else {
		ops := make([]wal.Op, 0, size)
		for i := 0; i < b.N; i++ {
			ops = append(ops, wal.Insert(stmt(i)))
			if len(ops) == size {
				if err := st.Apply([]store.Group{{Ops: ops}})[0].Err; err != nil {
					b.Fatal(err)
				}
				ops = ops[:0]
			}
		}
		if len(ops) > 0 {
			if err := st.Apply([]store.Group{{Ops: ops}})[0].Err; err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(st.WALSyncs()-syncs0)/float64(b.N), "fsyncs/op")
}

// BenchmarkInsertBatch1 is the single-statement durable insert baseline:
// one WAL fsync per statement.
func BenchmarkInsertBatch1(b *testing.B) { benchmarkInsertBatch(b, 1) }

// BenchmarkInsertBatch16 flushes durable inserts 16 per WAL commit.
func BenchmarkInsertBatch16(b *testing.B) { benchmarkInsertBatch(b, 16) }

// BenchmarkInsertBatch256 flushes durable inserts 256 per WAL commit; on
// sync-bound storage ns/op drops by roughly the batch factor relative to
// BenchmarkInsertBatch1.
func BenchmarkInsertBatch256(b *testing.B) { benchmarkInsertBatch(b, 256) }

// TestRunBatchIngest smoke-tests the group-commit ingest harness and its
// headline claim: batched ingest issues 1/size fsyncs per statement.
func TestRunBatchIngest(t *testing.T) {
	rows, err := RunBatchIngest(120, 6, 11, []int{1, 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].SyncsPerOp < 1 {
		t.Errorf("size-1 ingest shows %.3f fsyncs/stmt, want >= 1", rows[0].SyncsPerOp)
	}
	if rows[1].SyncsPerOp > 1.0/8+0.05 {
		t.Errorf("size-8 ingest shows %.3f fsyncs/stmt, want about %.3f", rows[1].SyncsPerOp, 1.0/8)
	}
	if r := RenderBatchIngest(rows, 120, 6); r == "" {
		t.Error("empty render")
	}
}

// BenchmarkCheckpoint measures snapshot write + WAL truncation.
func BenchmarkCheckpoint(b *testing.B) {
	dir := durableBenchDir(b, 300, false)
	st, err := store.OpenAt(dir, []store.Relation{GenRelation()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}
