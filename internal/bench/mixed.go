package bench

// The mixed read-under-write benchmark: parallel content queries race a
// writer streaming insert batches through the same store. Under the MVCC
// snapshot-read model the readers resolve against published epochs and
// never contend with the writer lock, so read latency should stay near the
// writer-idle baseline; under a reader-writer mutex every commit round
// stalls the whole read side. beliefbench records both sides so the
// benchdiff trajectory tracks reader latency under ingest across PRs.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"beliefdb/internal/bsql"
	"beliefdb/internal/core"
	"beliefdb/internal/gen"
	"beliefdb/internal/store"
	"beliefdb/internal/val"
	"beliefdb/internal/wal"
)

// MixedRow is one measured reader-count configuration.
type MixedRow struct {
	Readers     int
	ReadNs      float64 // mean wall time per content query per reader
	Reads       int     // total queries executed across readers
	WriteNs     float64 // mean wall time per written statement, under read load
	WriterStmts int     // statements the writer committed while readers ran
}

// mixedQueriesPerReader balances runtime against stable means; every
// reader always runs this many queries, so the measured work is fixed and
// two runs are comparable.
const mixedQueriesPerReader = 40

// RunMixedReadUnderWrite builds a belief database with n annotations and
// m users, then for each reader count runs that many goroutines each
// executing a fixed number of q1-style content queries while one writer
// continuously commits 16-statement insert batches. It reports mean read
// latency under ingest and mean write latency under read load.
func RunMixedReadUnderWrite(n, m int, seed int64, readerCounts []int, progress func(string)) ([]MixedRow, error) {
	st, _, err := BuildDB(gen.Config{
		Users:         m,
		DepthDist:     []float64{0.4, 0.4, 0.15, 0.05},
		Participation: gen.Zipf,
		KeyPool:       keyPoolFor(n),
		Seed:          seed,
	}, n)
	if err != nil {
		return nil, err
	}
	tr := bsql.NewTranslator(st)
	stmt, err := bsql.Parse(fmt.Sprintf("select T.sid, T.species from BELIEF 'u1' %s T", gen.DefaultRel))
	if err != nil {
		return nil, err
	}
	sql, err := tr.TranslateSelect(stmt.(bsql.Select))
	if err != nil {
		return nil, err
	}

	cols := gen.RelColumns()
	nextKey := 0
	makeBatch := func() []wal.Op {
		ops := make([]wal.Op, 16)
		for i := range ops {
			vals := make([]val.Value, len(cols))
			vals[0] = val.Str(fmt.Sprintf("mixed%d", nextKey))
			nextKey++
			for j := 1; j < len(cols); j++ {
				vals[j] = val.Str("x")
			}
			ops[i] = wal.Insert(core.Statement{
				Sign:  core.Pos,
				Tuple: core.Tuple{Rel: gen.DefaultRel, Vals: vals},
			})
		}
		return ops
	}

	var out []MixedRow
	for _, readers := range readerCounts {
		stop := make(chan struct{})
		var writerStmts atomic.Int64
		var writerNs atomic.Int64
		var writerErr error
		var writerWG sync.WaitGroup
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ops := makeBatch()
				start := time.Now()
				if err := st.Apply([]store.Group{{Ops: ops}})[0].Err; err != nil {
					writerErr = err
					return
				}
				writerNs.Add(int64(time.Since(start)))
				writerStmts.Add(int64(len(ops)))
			}
		}()

		var readNs atomic.Int64
		var readErr atomic.Value
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < mixedQueriesPerReader; i++ {
					start := time.Now()
					if _, err := st.DB().Query(sql); err != nil {
						readErr.Store(err)
						return
					}
					readNs.Add(int64(time.Since(start)))
				}
			}()
		}
		wg.Wait()
		close(stop)
		writerWG.Wait()
		if writerErr != nil {
			return nil, fmt.Errorf("bench: mixed writer: %w", writerErr)
		}
		if err, _ := readErr.Load().(error); err != nil {
			return nil, fmt.Errorf("bench: mixed reader: %w", err)
		}

		reads := readers * mixedQueriesPerReader
		row := MixedRow{
			Readers:     readers,
			ReadNs:      float64(readNs.Load()) / float64(reads),
			Reads:       reads,
			WriterStmts: int(writerStmts.Load()),
		}
		if row.WriterStmts > 0 {
			row.WriteNs = float64(writerNs.Load()) / float64(row.WriterStmts)
		}
		out = append(out, row)
		if progress != nil {
			progress(fmt.Sprintf("mixed readers=%-2d read=%-12s write=%-12s (%d queries, %d stmts ingested)",
				row.Readers, time.Duration(row.ReadNs).Round(time.Microsecond),
				time.Duration(row.WriteNs).Round(time.Microsecond), row.Reads, row.WriterStmts))
		}
	}
	return out, nil
}

// RenderMixed prints the mixed read-under-write rows.
func RenderMixed(rows []MixedRow, n, m int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Mixed read-under-write: q1 content queries vs. a streaming batch writer (n=%d, m=%d, %d queries/reader)\n\n",
		n, m, mixedQueriesPerReader)
	fmt.Fprintf(&sb, "%8s %14s %14s %16s\n", "readers", "read E(t)", "write E(t)/stmt", "stmts ingested")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%8d %14s %14s %16d\n",
			r.Readers,
			time.Duration(r.ReadNs).Round(time.Microsecond),
			time.Duration(r.WriteNs).Round(time.Microsecond),
			r.WriterStmts)
	}
	return sb.String()
}
