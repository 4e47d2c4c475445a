package beliefdb_test

import (
	"context"
	"fmt"
	"os"
	"slices"
	"testing"

	"beliefdb"
	"beliefdb/internal/core"
	"beliefdb/internal/wal"
)

// walRecords renders the records of the database's WAL: a batch marker as
// its String (count and token), any other record as its kind.
func walRecords(t *testing.T, db *beliefdb.DB) []string {
	t.Helper()
	data, err := os.ReadFile(db.Store().WALPath())
	if err != nil {
		t.Fatal(err)
	}
	payloads, _, _, err := wal.Recover(data)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(payloads))
	for i, p := range payloads {
		op, err := wal.DecodeOp(p)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = op.Kind.String()
		if op.Kind == wal.KindBatchBegin {
			out[i] = op.String()
		}
	}
	return out
}

// TestJournalingRule pins how each public write is journaled now that
// every mutation commits through one Store.Apply path: a group of one
// untokened statement is a bare record; anything larger, or tokened, is a
// BatchBegin marker plus its members; a retried token journals nothing.
// The reopened database must equal the one that wrote the log.
func TestJournalingRule(t *testing.T) {
	dir := t.TempDir()
	db, err := beliefdb.OpenAt(dir, natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := db.AddUser("Alice")
	bob, _ := db.AddUser("Bob")
	sighting := func(sid, species string) beliefdb.Tuple {
		tp, err := db.NewTuple("Sightings", sid, "Carol", species, "6-14-08", "Lake Forest")
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	seen := len(walRecords(t, db))
	expect := func(step string, want ...string) {
		t.Helper()
		all := walRecords(t, db)
		if got := all[seen:]; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s journaled %v, want %v", step, got, want)
		}
		seen = len(all)
	}
	must := func(changed bool, err error) bool {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return changed
	}

	must(db.InsertBelief(nil, beliefdb.Pos, sighting("s1", "bald eagle")))
	expect("InsertBelief", "Insert")
	must(db.InsertBelief(beliefdb.Path{bob}, beliefdb.Neg, sighting("s1", "bald eagle")))
	expect("InsertBelief", "Insert")
	if !must(db.DeleteBelief(beliefdb.Path{bob}, beliefdb.Neg, sighting("s1", "bald eagle"))) {
		t.Error("DeleteBelief of a present statement reported no change")
	}
	expect("DeleteBelief (present)", "Delete")
	if must(db.DeleteBelief(beliefdb.Path{bob}, beliefdb.Neg, sighting("s1", "bald eagle"))) {
		t.Error("DeleteBelief of an absent statement reported a change")
	}
	expect("DeleteBelief (absent)", "Delete")
	if _, err := db.Exec(`update Sightings set species = 'osprey' where Sightings.sid = 's1'`); err != nil {
		t.Fatal(err)
	}
	expect("UPDATE", "Replace")
	if _, err := db.Batch(func(b *beliefdb.Batch) error {
		b.Insert(beliefdb.Path{alice}, beliefdb.Pos, sighting("s2", "crow"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	expect("one-op Batch", "Insert")

	script := ""
	for i := 0; i < 16; i++ {
		script += fmt.Sprintf("insert into BELIEF 'Bob' BELIEF 'Alice' Sightings values ('b%d','Carol','heron','6-14-08','Lake Forest');\n", i)
	}
	if res, err := db.ExecBatch(script); err != nil || res.Applied != 16 {
		t.Fatalf("ExecBatch: %+v, %v", res, err)
	}
	want := []string{"BatchBegin(16)"}
	for i := 0; i < 16; i++ {
		want = append(want, "Insert")
	}
	expect("16-op ExecBatch", want...)

	b, err := db.ParseBatch(`insert into BELIEF 'Alice' not Sightings values ('s1','Carol','osprey','6-14-08','Lake Forest');`)
	if err != nil {
		t.Fatal(err)
	}
	b.SetToken("tok-journal")
	first, err := db.SubmitBatch(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	expect("tokened SubmitBatch", `BatchBegin(1, token="tok-journal")`, "Insert")
	retry, err := db.SubmitBatch(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(retry) != fmt.Sprint(first) {
		t.Errorf("retry result %+v, want the original %+v", retry, first)
	}
	expect("retried SubmitBatch")

	if err := db.Store().BulkLoad(func(insert func(core.Statement) (bool, error)) error {
		for _, s := range []beliefdb.Statement{
			{Path: beliefdb.Path{bob}, Sign: beliefdb.Pos, Tuple: sighting("s3", "raven")},
			{Path: beliefdb.Path{bob}, Sign: beliefdb.Pos, Tuple: sighting("s3", "rook")}, // Γ1: rejected, still journaled
			{Path: nil, Sign: beliefdb.Pos, Tuple: sighting("s4", "owl")},
		} {
			insert(s)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	expect("BulkLoad", "Insert", "Insert", "Insert")

	paths := []beliefdb.Path{nil, {alice}, {bob}, {bob, alice}, {alice, bob}}
	snapshot := func(db *beliefdb.DB) string {
		stmts, err := db.Statements()
		if err != nil {
			t.Fatal(err)
		}
		rendered := make([]string, len(stmts))
		for i, s := range stmts {
			rendered[i] = s.String()
		}
		slices.Sort(rendered)
		out := fmt.Sprint(rendered)
		for _, p := range paths {
			entries, err := db.World(p)
			if err != nil {
				t.Fatal(err)
			}
			out += fmt.Sprintf("\n%v: %v", p, entries)
		}
		return out
	}
	before := snapshot(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := beliefdb.OpenAt(dir, natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if after := snapshot(re); after != before {
		t.Errorf("state after reopen differs:\nbefore %s\nafter  %s", before, after)
	}
}
