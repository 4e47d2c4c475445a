// Group-commit ingest benchmark: the same durable workload applied one
// statement per WAL fsync versus batched under one fsync per group. The
// paper's update algorithms (Sect. 5.3) are per-statement; this harness
// quantifies how much of a durable bulk load — the community-database
// ingest workload the paper motivates — is disk-sync tax rather than
// belief-propagation work.
package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"beliefdb/internal/core"
	"beliefdb/internal/gen"
	"beliefdb/internal/store"
	"beliefdb/internal/wal"
)

// BatchIngestResult is one measured ingest configuration.
type BatchIngestResult struct {
	Size       int     // statements per batch (1 = the single-statement path)
	Stmts      int     // statements ingested
	NsPerStmt  float64 // wall time per statement
	SyncsPerOp float64 // WAL fsyncs per statement (→ 1/Size for batches)
	WALBytes   int64   // WAL size after the load
}

// RunBatchIngest loads the same n-statement generated workload into a fresh
// durable store once per batch size and measures the per-statement cost and
// fsync count. Size 1 uses the single-statement insert path (one journaled
// record and one fsync per call); larger sizes commit each batch as one
// Apply group.
func RunBatchIngest(n, m int, seed int64, sizes []int, progress func(string)) ([]BatchIngestResult, error) {
	cfg := durabilityConfig(m, seed, n)
	// gen.Statements yields a conflict-free sequence (every statement was
	// accepted by a belief base in order), so batches never roll back and
	// each configuration applies the identical workload.
	_, stmts, err := gen.Statements(cfg, n)
	if err != nil {
		return nil, err
	}
	var out []BatchIngestResult
	for _, size := range sizes {
		if size < 1 {
			return nil, fmt.Errorf("bench: batch size %d", size)
		}
		dir, err := os.MkdirTemp("", "beliefdb-batch-*")
		if err != nil {
			return nil, err
		}
		res, err := ingestOnce(dir, cfg, stmts, size)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
		if progress != nil {
			progress(fmt.Sprintf("batch size=%-4d %10.1f µs/stmt %6.3f fsyncs/stmt wal=%dB",
				res.Size, res.NsPerStmt/1e3, res.SyncsPerOp, res.WALBytes))
		}
	}
	return out, nil
}

func ingestOnce(dir string, cfg gen.Config, stmts []core.Statement, size int) (BatchIngestResult, error) {
	st, err := store.OpenAt(dir, []store.Relation{GenRelation()})
	if err != nil {
		return BatchIngestResult{}, err
	}
	defer st.Close()
	for i := 1; i <= cfg.Users; i++ {
		if _, err := st.AddUser(fmt.Sprintf("u%d", i)); err != nil {
			return BatchIngestResult{}, err
		}
	}
	syncs0 := st.WALSyncs()
	start := time.Now()
	if size == 1 {
		for _, s := range stmts {
			if _, err := st.Insert(s); err != nil {
				return BatchIngestResult{}, err
			}
		}
	} else {
		ops := make([]wal.Op, 0, size)
		for i := 0; i < len(stmts); i += size {
			end := min(i+size, len(stmts))
			ops = ops[:0]
			for _, s := range stmts[i:end] {
				ops = append(ops, wal.Insert(s))
			}
			if err := st.Apply([]store.Group{{Ops: ops}})[0].Err; err != nil {
				return BatchIngestResult{}, err
			}
		}
	}
	elapsed := time.Since(start)
	res := BatchIngestResult{
		Size:       size,
		Stmts:      len(stmts),
		NsPerStmt:  float64(elapsed) / float64(len(stmts)),
		SyncsPerOp: float64(st.WALSyncs()-syncs0) / float64(len(stmts)),
	}
	if err := st.Close(); err != nil {
		return BatchIngestResult{}, err
	}
	if fi, err := os.Stat(filepath.Join(dir, store.WALFileName)); err == nil {
		res.WALBytes = fi.Size()
	}
	return res, nil
}

// RenderBatchIngest prints the ingest comparison as a short report.
func RenderBatchIngest(rows []BatchIngestResult, n, m int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Group commit: durable ingest of n=%d statements (m=%d users), one fsync per batch\n\n", n, m)
	fmt.Fprintf(&sb, "  %10s %14s %14s %12s\n", "batch", "µs/stmt", "fsyncs/stmt", "WAL bytes")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %10d %14.1f %14.3f %12d\n", r.Size, r.NsPerStmt/1e3, r.SyncsPerOp, r.WALBytes)
	}
	return sb.String()
}
