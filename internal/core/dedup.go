package core

import (
	"context"
	"time"

	"condorj2/internal/sqldb"
	"condorj2/internal/wire"
)

// Exactly-once execution for mutating web services. A client that lost a
// reply cannot tell "request dropped" from "reply dropped", so its retry
// may re-present an already-applied mutation. The envelope's idempotency
// key plus a durable reply store close that window:
//
//   - the handler first checks wire_replies for the key; a hit replays
//     the stored payload verbatim (no re-execution),
//   - on a miss it runs the service method, whose transaction inserts
//     the reply row as its LAST statement — mutation and reply commit
//     atomically, so a crash between "applied" and "recorded" is
//     impossible and the dedup fact survives restart via the WAL,
//   - two concurrent retries of one key race on the reply row's PRIMARY
//     KEY: the loser's whole transaction (duplicate mutation included)
//     rolls back on the unique violation, and the wrapper answers it by
//     replaying the winner's stored reply.

// pendingReplyCtx carries the exchange's key through the service method
// into its transaction, where saveReply persists the response.
type pendingReplyCtx struct{}

type pendingReply struct {
	key    string
	action string
}

func withPendingReply(ctx context.Context, key, action string) context.Context {
	return context.WithValue(ctx, pendingReplyCtx{}, pendingReply{key: key, action: action})
}

// saveReply persists the exchange's response inside the mutation's own
// transaction. It is a no-op for unkeyed exchanges, so service methods
// call it unconditionally as their closure's last statement.
func (s *Service) saveReply(ctx context.Context, tx *sqldb.Tx, resp any) error {
	pr, ok := ctx.Value(pendingReplyCtx{}).(pendingReply)
	if !ok {
		return nil
	}
	payload, err := wire.MarshalPayload(resp)
	if err != nil {
		return err
	}
	_, err = txExec(tx, `INSERT INTO wire_replies (key, action, payload, created_at) VALUES (?, ?, ?, ?)`,
		sqldb.NewText(pr.key), sqldb.NewText(pr.action), sqldb.NewText(string(payload)), sqldb.NewTime(s.now()))
	return err
}

// lookupReply fetches the stored reply for a key, from a read-only
// snapshot.
func (s *Service) lookupReply(ctx context.Context, key string) (payload []byte, hit bool, err error) {
	err = s.c.InReadTx(ctx, func(tx *sqldb.Tx) error {
		rows, err := txQuery(tx, `SELECT payload FROM wire_replies WHERE key = ?`, sqldb.NewText(key))
		if err == nil && rows.Next() {
			payload, hit = []byte(rows.Col(0).Text()), true
		}
		return err
	})
	return payload, hit, err
}

// keyedHandler wraps a typed service method with idempotency-key dedup.
// Unkeyed envelopes dispatch exactly like wire.Typed, which also compiles
// both message types' codecs when the handler is built.
func keyedHandler[Req any, Resp any](s *Service, fn func(context.Context, *Req) (*Resp, error)) wire.Handler {
	typed := wire.Typed(fn)
	return func(ctx context.Context, env *wire.Envelope) (any, error) {
		if env.Key == "" {
			return typed(ctx, env)
		}
		if payload, hit, err := s.lookupReply(ctx, env.Key); err == nil && hit {
			s.replays.Add(1)
			return wire.RawPayload(payload), nil
		}
		resp, err := typed(withPendingReply(ctx, env.Key, env.Action), env)
		if err != nil {
			// A concurrent or prior execution of this key may have won the
			// reply row's unique constraint, rolling this execution back:
			// its stored answer is the exchange's one true response.
			if payload, hit, lerr := s.lookupReply(ctx, env.Key); lerr == nil && hit {
				s.replays.Add(1)
				return wire.RawPayload(payload), nil
			}
			return nil, err
		}
		return resp, nil
	}
}

// DedupStats snapshots the reply store's counters.
type DedupStats struct {
	// Replays counts keyed exchanges answered from the reply store
	// instead of re-executed.
	Replays uint64
	// RepliesDeleted counts rows removed by GCReplies.
	RepliesDeleted uint64
}

// DedupStats snapshots the dedup counters.
func (s *Service) DedupStats() DedupStats {
	return DedupStats{
		Replays:        s.replays.Load(),
		RepliesDeleted: s.replyGCed.Load(),
	}
}

// GCReplies deletes stored replies older than maxAge. By then every sane
// client has stopped retrying (retry budgets are seconds, not hours), so
// the key can be forgotten. Returns the number of rows removed.
func (s *Service) GCReplies(ctx context.Context, maxAge time.Duration) (int64, error) {
	cutoff := s.now().Add(-maxAge)
	var n int64
	err := s.c.InTx(ctx, func(tx *sqldb.Tx) error {
		res, err := txExec(tx, `DELETE FROM wire_replies WHERE created_at < ?`, sqldb.NewTime(cutoff))
		n = res.RowsAffected
		return err
	})
	if err != nil {
		return 0, err
	}
	s.replyGCed.Add(uint64(n))
	return n, nil
}

// HeartbeatSheddable classifies a heartbeat envelope as safe to drop
// under overload: periodic, delta-free reports (no boot registration, no
// completion or drop to deliver, no idempotency key) carry no state the
// next fresh heartbeat won't re-report.
func HeartbeatSheddable(env *wire.Envelope) bool {
	if env.Key != "" {
		return false
	}
	var req HeartbeatRequest
	if err := wire.DecodePayload(env, &req); err != nil {
		return false
	}
	if req.Boot {
		return false
	}
	for _, vm := range req.VMs {
		if vm.Phase == "completed" || vm.Phase == "dropped" {
			return false
		}
	}
	return true
}
