// Command condorj2d runs a live CondorJ2 Application Server: the embedded
// database (optionally WAL-backed for durability), the web services
// endpoint under /services, the pool web site under /, and the periodic
// housekeeping tick (matchmaking cycle, dead-machine sweep, dedup-reply GC,
// and on a paged store the fuzzy checkpoint).
//
//	condorj2d -listen :8642 -data /var/lib/condorj2/cas.wal
//
// Execute nodes point cj2node at the /services URL; users use cj2sub or a
// browser.
//
// Shutdown is graceful and deadline-bounded: the first interrupt stops
// accepting connections and drains in-flight requests for -shutdown-grace
// — a node's framed connection at its frame boundary, answering the
// envelope in hand and then closing; when the grace expires (or on a
// second interrupt) the server cancels every in-flight statement through
// the engine's context plumbing and closes. A wedged query can therefore
// never hold the daemon hostage.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"time"

	"condorj2/internal/core"
	"condorj2/internal/sqldb"
	"condorj2/internal/wire"
)

func main() {
	listen := flag.String("listen", ":8642", "HTTP listen address")
	data := flag.String("data", "", "WAL file path for durability (empty = in-memory)")
	syncPolicy := flag.String("sync", "group", "WAL sync policy: group (commits wait for their group's fsync) or never (same pipeline, no fsync)")
	poolPages := flag.Int("pool-pages", 0, "paged storage: buffer-pool capacity in pages; rows live in a page file, the housekeeping tick checkpoints it, and restart replays only the WAL tail past the last checkpoint. A store that has checkpointed is paged whatever this says (0 = the engine's default pool); on a new or log-only store 0 keeps rows in the WAL-replayed heap")
	grace := flag.Duration("shutdown-grace", 10*time.Second, "how long shutdown drains in-flight requests before cancelling their statements")
	admission := wire.AdmissionConfig{}.WithDefaults()
	maxInFlight := flag.Int("max-inflight", admission.MaxInFlight, "admission control: max concurrently dispatched requests (twice that may wait per action)")
	queueWait := flag.Duration("queue-wait", admission.QueueWait, "admission control: max time a request waits for an in-flight slot before a typed Overloaded fault (also the fault's RetryAfterMs hint)")
	freshFor := flag.Duration("hb-fresh-for", admission.FreshFor, "admission control: delta-free heartbeats older than this are shed under load")
	follow := flag.String("follow", "", "replication: run as a read-only follower of this leader /services URL (writes answer NotLeader; promotes on lease expiry)")
	advertise := flag.String("advertise", "", "replication: this node's own /services URL as dialable by peers (required with -follow; on a leader, enables follower shipping)")
	leaseTTL := flag.Duration("lease-ttl", 3*time.Second, "replication: leader lease TTL, at least three housekeeping ticks; the tick renews it on the leader and checks it on a follower, which promotes when the replicated lease goes this stale")
	flag.Parse()

	if *follow != "" && *advertise == "" {
		log.Fatalf("condorj2d: -follow requires -advertise (the leader ships to this node's own URL)")
	}

	var engine *sqldb.DB
	if *data != "" {
		policy, err := sqldb.ParseSyncPolicy(*syncPolicy)
		if err != nil {
			log.Fatalf("condorj2d: %v", err)
		}
		engine, err = sqldb.Open(sqldb.Options{
			VFS:       sqldb.OSVFS{},
			Path:      *data,
			Sync:      policy,
			PoolPages: *poolPages,
		})
		if err != nil {
			log.Fatalf("condorj2d: opening database: %v", err)
		}
		// Runs after cas.Close below; a paged store takes its final
		// checkpoint here, so a clean stop leaves an empty WAL tail.
		defer func() {
			if err := engine.Close(); err != nil {
				log.Printf("condorj2d: closing database: %v", err)
			}
		}()
		if bs := engine.BufferPoolStats(); bs.Frames > 0 {
			log.Printf("recovered database from %s (sync=%s, paged: %d-page pool, checkpoint LSN %d)",
				*data, *syncPolicy, bs.Frames, bs.CheckpointLSN)
		} else {
			log.Printf("recovered database from %s (sync=%s)", *data, *syncPolicy)
		}
	}
	cas, err := core.New(core.Options{Engine: engine, Follower: *follow != ""})
	if err != nil {
		log.Fatalf("condorj2d: %v", err)
	}
	defer cas.Close()
	if *data != "" && *follow == "" {
		// The WAL preserved every committed tuple. In-flight coordination
		// state (matches, runs, claimed VMs) is kept — the nodes were
		// executing through the outage and their heartbeats will reconcile
		// it; only idle VMs park offline until their machine re-registers.
		rs, err := cas.Service.RecoverInFlight(context.Background())
		if err != nil {
			log.Fatalf("condorj2d: recovering in-flight state: %v", err)
		}
		if rs.RunsPreserved+rs.MatchesPreserved+rs.VMsParked+rs.MachinesOffline > 0 {
			log.Printf("recovery: preserved %d runs + %d matches, parked %d idle VMs, %d machines offline until next heartbeat",
				rs.RunsPreserved, rs.MatchesPreserved, rs.VMsParked, rs.MachinesOffline)
		}
	}
	// Admission control: bound in-flight work and per-action queues so an
	// overloaded CAS answers typed Overloaded faults (with a RetryAfterMs
	// the clients honor) instead of queueing without limit; stale
	// delta-free heartbeats are shed outright under load. These three are
	// all the gate takes: each action queues at most 2 × -max-inflight
	// waiters, and the RetryAfterMs hint is -queue-wait.
	cas.SetAdmission(wire.AdmissionConfig{
		MaxInFlight: *maxInFlight,
		QueueWait:   *queueWait,
		FreshFor:    *freshFor,
	})

	// Replication: with -follow this node is a read-only replica (writes
	// answer NotLeader, and its tick joins the leader, checkpoints, and
	// promotes it when the replicated lease expires); with just -advertise
	// it leads, its tick renewing the lease, shipping committed WAL groups
	// to whoever joins.
	var repl *core.Replicator
	if *advertise != "" {
		// One Client per peer, so a peer's calls share its connections
		// instead of each dial leaving one idle behind.
		var peersMu sync.Mutex
		peers := make(map[string]*wire.Client)
		repl, err = core.NewReplicator(cas, core.ReplConfig{
			Self:     *advertise,
			LeaseTTL: *leaseTTL,
			Dial: func(addr string) wire.Caller {
				peersMu.Lock()
				defer peersMu.Unlock()
				if peers[addr] == nil {
					peers[addr] = &wire.Client{URL: addr}
				}
				return peers[addr]
			},
		})
		if err != nil {
			log.Fatalf("condorj2d: %v", err)
		}
		if *follow != "" {
			repl.StartFollower(*follow)
			log.Printf("following %s (read-only; lease TTL %s)", *follow, *leaseTTL)
		} else {
			if err := repl.StartLeader(context.Background()); err != nil {
				log.Fatalf("condorj2d: claiming replication lease: %v", err)
			}
			log.Printf("leading replication as %s (lease TTL %s)", *advertise, *leaseTTL)
		}
		defer repl.Close()
	}
	// The housekeeping tick runs on every node, replication first; its
	// leader-only steps skip themselves while the write gate is down.
	cas.StartScheduler()

	// Every request context descends from baseCtx; cancelling it reaches
	// each in-flight statement's lock waits, scans, and commit syncs.
	baseCtx, cancelInFlight := context.WithCancel(context.Background())
	defer cancelInFlight()
	srv := &http.Server{
		Addr:        *listen,
		Handler:     cas.HTTPHandler(),
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}
	go func() {
		log.Printf("CondorJ2 Application Server listening on %s", *listen)
		if err := srv.ListenAndServe(); err != http.ErrServerClosed {
			log.Fatalf("condorj2d: %v", err)
		}
	}()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Fprintln(os.Stderr, "shutting down")
	cas.StopScheduler()

	// Drain: stop accepting, give in-flight requests the grace window. A
	// second interrupt — or the grace expiring — cancels their statements
	// and closes whatever remains.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *grace)
	defer cancelDrain()
	go func() {
		<-sig
		log.Print("second interrupt: cancelling in-flight statements")
		cancelDrain()
	}()
	log.Printf("draining in-flight requests (grace %s)", *grace)
	// The server lets go of the connections it upgrades to frames, so the
	// web services' mux drains those beside it, under the same grace.
	srv.RegisterOnShutdown(func() { cas.Mux.Shutdown(drainCtx) })
	err = srv.Shutdown(drainCtx)
	if err == nil {
		err = cas.Mux.Shutdown(drainCtx)
	}
	if err != nil {
		log.Print("drain grace expired: cancelling in-flight statements")
		cancelInFlight()
		srv.Close()
	}

	if *data != "" {
		ws := cas.Engine.WALStats()
		log.Printf("wal: %d commits, %d fsyncs (%.3f fsyncs/commit), max group %d",
			ws.Commits, ws.Syncs, ws.FsyncsPerCommit(), ws.MaxGroup)
	}
	if bs := cas.Engine.BufferPoolStats(); bs.Frames > 0 {
		fetches := bs.Hits + bs.Misses
		hitRate := 0.0
		if fetches > 0 {
			hitRate = float64(bs.Hits) / float64(fetches)
		}
		log.Printf("bufferpool: %d/%d frames resident (%d dirty), %d hits + %d misses (%.1f%% hit rate), %d evictions (%d dirty write-backs), %d checkpoints (%d errors, LSN %d)",
			bs.Resident, bs.Frames, bs.Dirty, bs.Hits, bs.Misses, 100*hitRate, bs.Evictions, bs.DirtyWrites, bs.Checkpoints, bs.CheckpointErrors, bs.CheckpointLSN)
		if bs.Failed != "" {
			log.Printf("bufferpool: page storage FAILED: %s", bs.Failed)
		}
	}
	vs := cas.Engine.VersionStats()
	log.Printf("mvcc: %d snapshot reads (lock-free), %d versions stamped, %d pruned, %d slots + %d entries reclaimed, %d GC pending",
		vs.SnapshotReads, vs.VersionsCreated, vs.VersionsPruned, vs.SlotsReclaimed, vs.EntriesRemoved, vs.PendingGC)
	cs := cas.Engine.CancelStats()
	log.Printf("cancel: %d statements canceled, %d deadlines exceeded, %d lock-wait timeouts, %d lock-wait cancels, %d commit retractions",
		cs.StatementsCanceled, cs.DeadlinesExceeded, cs.LockWaitTimeouts, cs.LockWaitCancels, cs.CommitRetractions)
	pc := cas.Engine.PlanCacheStats()
	planTotal := pc.Hits + pc.Misses
	planHitRate := 0.0
	if planTotal > 0 {
		planHitRate = float64(pc.Hits) / float64(planTotal)
	}
	log.Printf("plancache: %d hits, %d misses (%.1f%% hit rate), %d stores, %d invalidations",
		pc.Hits, pc.Misses, 100*planHitRate, pc.Stores, pc.Invalidations)
	as := cas.AdmissionStats()
	log.Printf("admission: %d admitted (%d queued first), %d rejected, %d queue timeouts, %d stale heartbeats shed, peak in-flight %d",
		as.Admitted, as.Queued, as.Rejected, as.QueueTimeouts, as.ShedStale, as.PeakInFlight)
	ds := cas.Service.DedupStats()
	log.Printf("dedup: %d replies replayed to retried keys, %d aged reply rows GC'd",
		ds.Replays, ds.RepliesDeleted)
	if repl != nil {
		rs := repl.Stats()
		log.Printf("repl: role %s term %d, %d followers, %d ships (%d bytes, %d errors, %d truncated), %d fenced, %d promotions, %d demotions, lag %d LSNs / %d ms; engine applied %d (%d groups, %d skipped, %d apply errors)",
			rs.Role, rs.Term, rs.Followers, rs.ShipCalls, rs.ShipBytes, rs.ShipErrors, rs.ShipTruncated, rs.Fenced, rs.Promotions, rs.Demotions, rs.LagLSN, rs.LagMs,
			rs.Engine.AppliedLSN, rs.Engine.BatchesApplied, rs.Engine.BatchesSkipped, rs.Engine.ApplyErrors)
	}
}
