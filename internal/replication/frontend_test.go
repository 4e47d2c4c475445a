package replication

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"beliefdb/client"
	"beliefdb/internal/router"
	"beliefdb/internal/server"
	"beliefdb/internal/wire"
)

// dialRaw opens a bare wire connection, with no handshake sent.
func dialRaw(t *testing.T, addr string) (net.Conn, *wire.Reader, *wire.Writer) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc, wire.NewReader(nc, 0), wire.NewWriter(nc, 0)
}

// TestFrontEndLifecycle drives the connection lifecycle's refusals against
// both front ends of a sharded cluster — a shard server and the router —
// which share one implementation: a first frame other than Hello, a wrong
// protocol version, and a frame header past the maximum size are each
// answered with an Error frame, and the oversized frame kills the
// connection.
func TestFrontEndLifecycle(t *testing.T) {
	sc, err := StartSharded(t.TempDir(), ShardedConfig{
		Schema:     shardedSchema(t),
		Shards:     2,
		Seed:       3,
		ServerOpts: []server.Option{server.WithMaxFrame(1 << 16)},
		RouterOpts: []router.Option{router.WithMaxFrame(1 << 16)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	for _, fe := range []struct{ name, addr string }{
		{"server", sc.Shard(0).PrimaryAddr()},
		{"router", sc.Addr()},
	} {
		t.Run(fe.name, func(t *testing.T) {
			_, r, w := dialRaw(t, fe.addr)
			if err := w.Write(wire.Query("select 1")); err != nil {
				t.Fatal(err)
			}
			if m, err := r.Read(); err != nil || m.Kind != wire.KindError {
				t.Fatalf("non-Hello first frame: response = %+v, %v; want Error", m, err)
			}

			_, r, w = dialRaw(t, fe.addr)
			if err := w.Write(wire.Msg{Kind: wire.KindHello, Version: 99}); err != nil {
				t.Fatal(err)
			}
			if m, err := r.Read(); err != nil || m.Kind != wire.KindError || !strings.Contains(m.Text, "version") {
				t.Fatalf("wrong version: response = %+v, %v; want a version Error", m, err)
			}

			nc, r, w := dialRaw(t, fe.addr)
			if err := w.Write(wire.Hello()); err != nil {
				t.Fatal(err)
			}
			if m, err := r.Read(); err != nil || m.Kind != wire.KindServerHello {
				t.Fatalf("handshake: %v %v", m, err)
			}
			// A raw frame header claiming 1 GiB; the front end must refuse
			// on the header alone.
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[:4], 1<<30)
			if _, err := nc.Write(hdr[:]); err != nil {
				t.Fatal(err)
			}
			if m, err := r.Read(); err != nil || m.Kind != wire.KindError || !strings.Contains(m.Text, "maximum size") {
				t.Fatalf("oversized frame: response = %+v, %v; want an Error about frame size", m, err)
			}
			nc.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := r.Read(); err == nil {
				t.Error("connection stayed open after an oversized frame")
			}
		})
	}
}

// TestExplainIsARead: EXPLAIN only plans a SELECT, so every read-only gate
// admits it — a replica answers it itself (no fallback to the primary), a
// sharded server answers it on the Exec path, and the router's EXPLAIN
// reaches shard 0's replica — while a write stays refused on either script
// path of a sharded server.
func TestExplainIsARead(t *testing.T) {
	sc, err := StartSharded(t.TempDir(), ShardedConfig{
		Schema:           shardedSchema(t),
		Shards:           2,
		ReplicasPerShard: 1,
		Seed:             5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	ctx := context.Background()
	const explain = "explain select S.sid from Sightings S where S.sid = 's1';"

	rep, err := client.Dial(sc.Shard(0).ReplicaAddrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if res, err := rep.Query(ctx, explain); err != nil || len(res.Rows) == 0 {
		t.Fatalf("EXPLAIN on a replica: res=%v err=%v", res, err)
	}

	rt, err := sc.Shard(0).Routed(sc.Shard(0).PrimaryAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.Query(ctx, explain); err != nil {
		t.Fatalf("routed EXPLAIN: %v", err)
	}
	if n := rt.Fallbacks(); n != 0 {
		t.Errorf("routed EXPLAIN fell back to the primary %d times", n)
	}

	direct, err := client.Dial(sc.Shard(1).PrimaryAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if res, err := direct.Exec(ctx, explain); err != nil || len(res.Rows) == 0 {
		t.Fatalf("Exec EXPLAIN on a sharded server: res=%v err=%v", res, err)
	}
	// The same gate refuses DML on the Query path, which would bypass the
	// per-key owner check just like an Exec write.
	if _, err := direct.Query(ctx, "insert into Sightings values ('q1','owl',1);"); !errors.Is(err, client.ErrWrongShard) {
		t.Errorf("Query write on a sharded server: err = %v, want ErrWrongShard", err)
	}

	cli, err := sc.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if res, err := cli.Query(ctx, explain); err != nil || len(res.Rows) == 0 {
		t.Fatalf("EXPLAIN through the router: res=%v err=%v", res, err)
	}
	if n := sc.Router().Shards()[0].Fallbacks(); n != 0 {
		t.Errorf("router's EXPLAIN fell back to shard 0's primary %d times", n)
	}
}
