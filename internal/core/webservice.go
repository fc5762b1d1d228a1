package core

import (
	"context"
	"fmt"

	"condorj2/internal/wire"
)

// writeGate is the one check every mutating entry point — the web-service
// mux and the web site — makes before it writes: while the service is a
// replication follower it counts the rejection and returns a typed
// NotLeader fault carrying the leader's address, so clients re-dial
// instead of retrying blindly (a write taken here would fork this node's
// log from the leader's). It returns nil on the leader. Read-only calls
// never ask — a follower serves status, queue, accounting and website
// traffic from its replicated snapshot.
func (s *Service) writeGate(action string) *wire.Fault {
	leader, gated := s.NotLeader()
	if !gated {
		return nil
	}
	s.notLeaderRejects.Add(1)
	return &wire.Fault{
		Code:    wire.FaultNotLeader,
		Message: fmt.Sprintf("core: %s is a mutating action and this node is a replication follower", action),
		Leader:  leader,
	}
}

// writeGated wraps a mutating web-service action in the write gate.
func writeGated(s *Service, h wire.Handler) wire.Handler {
	return func(ctx context.Context, env *wire.Envelope, reply *wire.Reply) error {
		if f := s.writeGate(env.Action); f != nil {
			return f
		}
		return h(ctx, env, reply)
	}
}

// NewMux exposes the application logic layer as web services — the
// paper's "set of web services specifically tailored to the interactions
// the daemons need to have with the operational data store", plus the
// standards-compliant service interface for user tools. Both the web site
// and the web services sit on the same application-logic layer, so they
// "are capable of offering identical functionality" (§4.1).
func NewMux(s *Service) *wire.Mux {
	mux := wire.NewMux()
	// The mutating actions clients retry are wrapped with idempotency-key
	// dedup (dedup.go): a retried key replays the stored reply instead of
	// double-submitting, double-claiming, re-processing a completion,
	// writing a second config history row or registering a dataset twice.
	// Mutating actions are additionally write-gated: a replication
	// follower answers them with a NotLeader redirect instead of
	// diverging from the leader's log. Each action registers its service
	// method's fill form: the request and the reply are values the
	// exchange lends (wire.Typed), recycled once the reply is encoded.
	mux.Handle(ActionSubmitJob, writeGated(s, keyedHandler(s, s.submit)))
	mux.Handle(ActionHeartbeat, writeGated(s, keyedHandler(s, s.heartbeat)))
	mux.Handle(ActionAcceptMatch, writeGated(s, keyedHandler(s, s.acceptMatch)))
	mux.Handle(ActionReleaseJob, writeGated(s, wire.Typed(s.releaseJob)))
	mux.Handle(ActionPoolStatus, wire.Typed(s.poolStatus))
	mux.Handle(ActionQueueStatus, wire.Typed(s.queueStatus))
	mux.Handle(ActionUserStats, wire.Typed(s.userStats))
	mux.Handle(ActionConfigGet, wire.Typed(s.configGet))
	mux.Handle(ActionConfigSet, writeGated(s, keyedHandler(s, s.configSet)))
	mux.Handle(ActionRegisterData, writeGated(s, keyedHandler(s, s.registerDataset)))
	mux.Handle(ActionProvenance, wire.Typed(s.provenance))
	return mux
}
