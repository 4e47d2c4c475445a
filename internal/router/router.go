// Package router implements beliefrouter, the scatter-gather front door of
// a hash-partitioned beliefdb cluster. A Router speaks the same wire
// protocol as a beliefserver — clients cannot tell the difference except
// for the ShardID -1 it announces — and fronts N shard servers, each of
// which owns the row keys that hash to it under the cluster's partition
// map (internal/shard) and may bring its own read replicas. Its connection
// lifecycle (handshake, request loop, result streaming, Shutdown drain) is
// internal/frontend's, the same as beliefserver's; the router supplies its
// handshake answer and its per-request routing.
//
// Requests route as follows:
//
//   - Batch writes (ExecBatch) are split: each INSERT's VALUES rows go to
//     the shard owning their row key, DELETEs broadcast to every shard
//     (each shard resolves only its local matches), and the per-shard
//     slices commit under tokens derived from the client's idempotency
//     token, so a retried batch applies exactly once per shard even when a
//     previous attempt committed on some shards and failed on others.
//   - Queries over one partitioned relation fan out to every shard and the
//     streamed results merge: concatenation plus a global DISTINCT pass
//     for per-tuple results, partial-aggregate recombination for GROUP BY
//     and aggregate queries, then ORDER BY/LIMIT. The merge calls the
//     query layer's own code — query.DedupeRows, query.SortRows, and the
//     engine's aggregate accumulator query.AggAcc with its partial rule
//     query.PartialCalls — so the merged answer is a single node's.
//   - Queries touching no partitioned relation (Users only, EXPLAIN) go to
//     shard 0 alone.
//   - AddUser broadcasts to every shard under one router-wide mutex, so
//     the globally replicated Users table assigns the same uid everywhere.
//
// Reads go through each shard's replicas (client.Routed) carrying that
// shard's read-your-writes watermark, which the router advances on every
// write it routes there — a read after a routed write observes it on every
// shard, wherever it is served.
//
// Why the merge is sound: the partition function hashes the row key, so
// every belief annotation of one tuple — whatever its believer — lives on
// one shard, and any single-relation BeliefSQL query decomposes into
// per-tuple work. Cross-shard joins (two partitioned FROM items) are the
// one shape that does not, and the router refuses them. See the Sharding
// section of DESIGN.md.
package router

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"beliefdb/client"
	"beliefdb/internal/bsql"
	"beliefdb/internal/frontend"
	"beliefdb/internal/shard"
	"beliefdb/internal/wire"
)

// A Backend names one shard: its primary server and any read replicas.
type Backend struct {
	Primary  string
	Replicas []string
}

// A Router fronts a sharded cluster. Create with New, start with Serve,
// stop with Shutdown (which also closes the shard connections).
type Router struct {
	// svc runs the connection lifecycle (shared with beliefserver) and
	// carries the frame and request-timeout settings.
	svc    *frontend.Service
	shards []*client.Routed
	smap   shard.Map

	info  string
	copts []client.Options

	// userMu serializes AddUser broadcasts: every shard sees registrations
	// in the same order, so the replicated Users table assigns identical
	// uids cluster-wide.
	userMu sync.Mutex
}

// Option configures a Router.
type Option func(*Router)

// WithInfo sets the identity sent in the handshake.
func WithInfo(info string) Option { return func(r *Router) { r.info = info } }

// WithMaxFrame bounds the payload of a single protocol frame in both
// directions (0 means wire.DefaultMaxFrame).
func WithMaxFrame(n int) Option {
	return func(r *Router) {
		if n > 0 {
			r.svc.MaxFrame = n
		}
	}
}

// WithRequestTimeout bounds each routed request, covering every backend
// round trip it fans out to and the response write (0 = no deadline).
func WithRequestTimeout(d time.Duration) Option {
	return func(r *Router) {
		if d > 0 {
			r.svc.ReqTimeout = d
		}
	}
}

// WithClientOptions sets the client options used for every backend
// connection pool.
func WithClientOptions(o client.Options) Option {
	return func(r *Router) { r.copts = []client.Options{o} }
}

// New dials every shard and verifies the cluster's shard map: backend i
// must announce shard identity i with the same shard count and partition
// seed as every other backend. A backend that announces nothing (a plain
// unsharded beliefserver) is refused — routing writes by a partition map
// the server does not enforce would corrupt silently on misconfiguration.
func New(backends []Backend, opts ...Option) (*Router, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("router: no shard backends configured")
	}
	r := &Router{info: "beliefrouter"}
	r.svc = frontend.New(r.serveRequest)
	for _, o := range opts {
		o(r)
	}
	for i, b := range backends {
		rt, err := client.DialRouted(b.Primary, b.Replicas, r.copts...)
		if err != nil {
			r.closeShards()
			return nil, fmt.Errorf("router: shard %d: %w", i, err)
		}
		r.shards = append(r.shards, rt)
		si := rt.Primary().Shard()
		if !si.Sharded() {
			r.closeShards()
			return nil, fmt.Errorf("router: server at %s announces no shard identity; start it with -shard-id/-shard-count/-shard-seed", b.Primary)
		}
		if si.ID != i {
			r.closeShards()
			return nil, fmt.Errorf("router: server at %s is shard %d, configured as shard %d", b.Primary, si.ID, i)
		}
		if si.Count != len(backends) {
			r.closeShards()
			return nil, fmt.Errorf("router: server at %s belongs to a %d-shard cluster, %d backends configured", b.Primary, si.Count, len(backends))
		}
		if i == 0 {
			r.smap = shard.Map{Count: si.Count, Seed: si.Seed}
		} else if si.Seed != r.smap.Seed {
			r.closeShards()
			return nil, fmt.Errorf("router: server at %s uses partition seed %#x, shard 0 uses %#x", b.Primary, si.Seed, r.smap.Seed)
		}
	}
	r.svc.Hello = wire.ServerHello(r.info)
	r.svc.Hello.ShardID = -1 // a router fronts the cluster, it is no shard itself
	r.svc.Hello.ShardCount = uint64(r.smap.Count)
	r.svc.Hello.ShardSeed = r.smap.Seed
	return r, nil
}

// Map returns the cluster's partition map, as verified against the shards.
func (r *Router) Map() shard.Map { return r.smap }

// Shards exposes the per-shard routed clients, in shard order — for the
// test harness; request routing should go through the wire protocol.
func (r *Router) Shards() []*client.Routed { return r.shards }

func (r *Router) closeShards() {
	for _, s := range r.shards {
		s.Close()
	}
}

// Serve accepts connections on ln until Shutdown (which returns nil here)
// or a listener failure. Each connection is handled on its own goroutine.
func (r *Router) Serve(ln net.Listener) error { return r.svc.Serve(ln) }

// Shutdown stops the router gracefully — close the listener, interrupt
// idle connections, drain handlers mid-request (force-closing them if ctx
// expires first) — and then closes the shard connections.
func (r *Router) Shutdown(ctx context.Context) error {
	err := r.svc.Shutdown(ctx)
	r.closeShards()
	return err
}

// classify maps a routing failure to its stable wire error code. Failures
// reported by shard servers arrive as client sentinels carrying the
// shard's code; the router's own refusals (cross-shard joins, unsupported
// statements) and parse failures classify directly.
func classify(err error) wire.ErrCode {
	switch {
	case errors.Is(err, bsql.ErrParse) || errors.Is(err, client.ErrParse):
		return wire.CodeParse
	case errors.Is(err, client.ErrDegraded):
		return wire.CodeDegraded
	case errors.Is(err, client.ErrReadOnly):
		return wire.CodeReadOnly
	case errors.Is(err, client.ErrStaleRead):
		return wire.CodeStaleRead
	case errors.Is(err, client.ErrWrongShard):
		return wire.CodeWrongShard
	default:
		return wire.CodeInternal
	}
}

func errFrame(err error) wire.Msg {
	return wire.ErrorMsg(classify(err), err.Error())
}

// reqContext bounds one routed request's backend fan-out.
func (r *Router) reqContext() (context.Context, context.CancelFunc) {
	if r.svc.ReqTimeout > 0 {
		return context.WithTimeout(context.Background(), r.svc.ReqTimeout)
	}
	return context.Background(), func() {}
}

// serveRequest answers one request (the frontend.Dispatch of a router);
// the returned error reports a failure to write the response (fatal for
// the connection).
func (r *Router) serveRequest(w *wire.Writer, _ *bufio.Writer, req wire.Msg) error {
	ctx, cancel := r.reqContext()
	defer cancel()
	switch req.Kind {
	case wire.KindQuery, wire.KindExec:
		stmts, err := bsql.ParseAll(req.Text)
		if err != nil {
			return w.Write(errFrame(err))
		}
		if bsql.ReadOnly(stmts) {
			res, err := r.runReadStmts(ctx, stmts)
			if err != nil {
				return w.Write(errFrame(err))
			}
			return r.svc.WriteResult(w, res, 0, 0)
		}
		if req.Kind == wire.KindQuery {
			return w.Write(errFrame(errors.New("router: Query accepts only SELECT/EXPLAIN statements; route writes through Exec or ExecBatch")))
		}
		// A mutating Exec routes like an untokened batch; the statements
		// must all be batchable (INSERT/DELETE) for the split to apply.
		br, err := r.routeBatch(ctx, stmts, "")
		if err != nil {
			return w.Write(errFrame(err))
		}
		return w.Write(wire.Msg{Kind: wire.KindResultEnd, Affected: uint64(br.Applied)})

	case wire.KindExecBatch:
		stmts, err := bsql.ParseAll(req.Text)
		if err != nil {
			return w.Write(errFrame(err))
		}
		br, err := r.routeBatch(ctx, stmts, req.Token)
		if err != nil {
			return w.Write(errFrame(err))
		}
		return w.Write(wire.Msg{
			Kind:    wire.KindBatchDone,
			Applied: uint64(br.Applied),
			Changed: uint64(br.Changed),
		})

	case wire.KindAddUser:
		uid, err := r.addUser(ctx, req.Text)
		if err != nil {
			return w.Write(errFrame(err))
		}
		return w.Write(wire.Msg{Kind: wire.KindUserAdded, UID: int64(uid)})

	case wire.KindCheckpoint:
		if err := r.checkpointAll(ctx); err != nil {
			return w.Write(errFrame(err))
		}
		return w.Write(wire.Msg{Kind: wire.KindOK})

	case wire.KindReplicaStatus:
		return w.Write(wire.Msg{Kind: wire.KindStatus, Info: "router", Affected: 1})

	case wire.KindPing:
		return w.Write(wire.Msg{Kind: wire.KindPong})

	case wire.KindFollowWAL:
		// Each shard has its own WAL; there is no cluster-wide stream to
		// serve. Replicas follow their shard's primary directly.
		w.Write(wire.ErrorMsg(wire.CodeInternal, "router: a router serves no WAL stream; replicas follow their shard's primary"))
		return fmt.Errorf("router: FollowWAL on a router connection")

	default:
		w.Write(wire.Errorf("router: unexpected %s request", req.Kind))
		return fmt.Errorf("router: unexpected %s request", req.Kind)
	}
}

// runReadStmts runs a read-only script, returning the last statement's
// result (like DB.ExecScript).
func (r *Router) runReadStmts(ctx context.Context, stmts []bsql.Statement) (*client.Result, error) {
	if len(stmts) == 0 {
		return nil, fmt.Errorf("router: empty script")
	}
	var last *client.Result
	for _, st := range stmts {
		res, err := r.runRead(ctx, st)
		if err != nil {
			return nil, err
		}
		last = res
	}
	return last, nil
}
