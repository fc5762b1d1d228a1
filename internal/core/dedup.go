package core

import (
	"context"
	"fmt"
	"time"

	"condorj2/internal/sqldb"
	"condorj2/internal/wire"
)

// Exactly-once execution for mutating web services. A client that lost a
// reply cannot tell "request dropped" from "reply dropped", so its retry
// may re-present an already-applied mutation. The envelope's idempotency
// key plus a durable reply store close that window:
//
//   - the handler first checks wire_replies for the key; a hit answers
//     with the stored reply's bytes as they lie (no re-execution) — the
//     row holds the reply packed, the payload's one encoding, so the
//     replay is the original reply byte for byte,
//   - on a miss it runs the service method, whose transaction inserts
//     the reply row, packed (wire.Pack), as its LAST statement — mutation
//     and reply commit atomically, so a crash between "applied" and
//     "recorded" is impossible and the dedup fact survives restart via
//     the WAL,
//   - two concurrent retries of one key race on the reply row's PRIMARY
//     KEY: the loser's whole transaction (duplicate mutation included)
//     rolls back on the unique violation, and the wrapper answers it by
//     replaying the winner's stored reply,
//   - a key stored for one action and presented with another is refused
//     with a KeyReused fault: the stored reply is another type's.

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

// saveReply persists the exchange's response, packed, inside the
// mutation's own transaction. It is a no-op for unkeyed exchanges, so
// service methods call it unconditionally as their closure's last
// statement.
func (s *Service) saveReply(ctx context.Context, tx *sqldb.Tx, resp any) error {
	pr, ok := ctx.Value(pendingReplyCtx{}).(pendingReply)
	if !ok {
		return nil
	}
	payload, err := wire.Pack(make([]byte, 0, 128), resp) // a 4-VM completion beat's reply packs into 33 bytes
	if err != nil {
		return err
	}
	_, err = txExec(tx, `INSERT INTO wire_replies (key, action, payload, created_at) VALUES (?, ?, ?, ?)`,
		sqldb.NewText(pr.key), sqldb.NewText(pr.action), sqldb.NewText(string(payload)), sqldb.NewTime(s.now()))
	return err
}

// lookupReply fetches the action and packed reply stored for a key, from
// a read-only snapshot.
func (s *Service) lookupReply(ctx context.Context, key string) (action string, payload []byte, hit bool, err error) {
	err = s.c.InReadTx(ctx, func(tx *sqldb.Tx) error {
		rows, err := txQuery(tx, `SELECT action, payload FROM wire_replies WHERE key = ?`, sqldb.NewText(key))
		if err == nil && rows.Next() {
			action, payload, hit = rows.Col(0).Text(), []byte(rows.Col(1).Text()), true
		}
		return err
	})
	return action, payload, hit, err
}

// FaultKeyReused is the fault code a keyed exchange gets when its key is
// already stored for another action. Terminal: a retry presents the same
// key again.
const FaultKeyReused = "KeyReused"

// keyedHandler wraps a fill-form service method with idempotency-key
// dedup. Unkeyed envelopes dispatch exactly like wire.Typed(fn). A keyed
// one whose key has a stored reply is answered with that reply's bytes;
// otherwise it carries its key and action into the method's context
// (withPendingReply) and runs as wire.Typed(fn) does.
func keyedHandler[Req any, Resp any](s *Service, fn func(context.Context, *Req, *Resp) error) wire.Handler {
	typed := wire.Typed(fn)
	return func(ctx context.Context, env *wire.Envelope, reply *wire.Reply) error {
		if env.Key == "" {
			return typed(ctx, env, reply)
		}
		pr := pendingReply{key: env.Key, action: env.Action}
		if hit, err := s.replay(ctx, pr, reply); hit {
			return err
		}
		err := typed(withPendingReply(ctx, pr.key, pr.action), env, reply)
		if err != nil {
			// A concurrent or prior execution of this key may have won the
			// reply row's unique constraint, rolling this execution back:
			// its stored answer is the exchange's one true response.
			if hit, rerr := s.replay(ctx, pr, reply); hit {
				return rerr
			}
		}
		return err
	}
}

// replay answers a keyed exchange from the reply store with the stored
// reply as it lies; hit is false when the key has no reply stored or the
// store could not be read.
func (s *Service) replay(ctx context.Context, pr pendingReply, reply *wire.Reply) (hit bool, err error) {
	action, payload, hit, err := s.lookupReply(ctx, pr.key)
	if err != nil || !hit {
		return false, nil
	}
	if action != pr.action {
		return true, &wire.Fault{Code: FaultKeyReused,
			Message: fmt.Sprintf("core: idempotency key %q was used for %s, not %s", pr.key, action, pr.action)}
	}
	if err := reply.EncodePacked(payload); err != nil {
		return true, err
	}
	s.replays.Add(1)
	return true, nil
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

// HeartbeatSheddable is the CAS's shed classifier: it reports an envelope
// safe to drop under overload only when it is a periodic, delta-free
// heartbeat (no boot registration, no completion or drop to deliver, no
// idempotency key), which carries no state the next fresh heartbeat won't
// re-report. Every other action is never shed, and is told apart before
// any payload is decoded.
func HeartbeatSheddable(env *wire.Envelope) bool {
	if env.Action != ActionHeartbeat || env.Key != "" {
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
