// Command cj2node runs a live execute-node agent (the CondorJ2 startd)
// against a CAS over HTTP: it registers the machine, heartbeats, pulls
// matches, "runs" jobs and reports completions.
//
//	cj2node -cas http://localhost:8642/services -name node1 -vms 4
//
// The agent is cluster.Startd — the one the simulations and the chaos
// suites run — on an engine driven by the wall clock; its protocol and
// its defences against a lossy wire and a restarting CAS are documented
// there. The node Kernel stands in for the starter: a job takes its setup,
// its length and its teardown in real time (plug real execution in there).
// The agent calls the CAS through a wire.Client and retries on its own
// chain, one exchange per step, honoring the server's RetryAfterMs hints;
// each failed exchange is logged.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"condorj2/internal/cluster"
	"condorj2/internal/sim"
	"condorj2/internal/wire"
)

func main() {
	casURL := flag.String("cas", "http://localhost:8642/services", "CAS web services URL")
	name := flag.String("name", hostnameOr("node1"), "machine name")
	vms := flag.Int("vms", 2, "virtual machines (slots) on this node")
	memory := flag.Int64("memory", 2048, "total memory MB")
	heartbeat := flag.Duration("heartbeat", 60*time.Second, "periodic heartbeat interval")
	idlePoll := flag.Duration("poll", 2*time.Second, "idle-VM poll interval")
	callTimeout := flag.Duration("call-timeout", 30*time.Second, "per-exchange deadline for CAS calls, forwarded to the server (0 = the agent's default)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	log.Printf("startd %s with %d VMs reporting to %s", *name, *vms, *casURL)
	err := run(ctx, *casURL, cluster.NodeConfig{Name: *name, VMs: *vms, MemoryMB: *memory},
		cluster.StartdConfig{HeartbeatInterval: *heartbeat, IdlePoll: *idlePoll, CallTimeout: *callTimeout})
	if err != nil && !errors.Is(err, context.Canceled) {
		log.Fatalf("cj2node: %v", err)
	}
	log.Print("shutting down")
}

// run boots one agent against the CAS at casURL and drives it in real time
// until ctx is done. Transport trouble at boot does not end it — the agent
// keeps re-sending the registration; only an explicit refusal does.
func run(ctx context.Context, casURL string, node cluster.NodeConfig, cfg cluster.StartdConfig) error {
	eng := sim.NewAt(time.Now(), 1)
	cas := loggedCaller{&wire.Client{URL: casURL}}
	agent := cluster.NewStartd(eng, cluster.NewKernel(eng, node), cas, cfg)
	agent.OnComplete = func(jobID int64, _ time.Time) { log.Printf("job %d completed", jobID) }
	agent.OnDrop = func(jobID int64, _ time.Time) { log.Printf("job %d dropped: setup timed out", jobID) }
	if err := agent.Boot(); err != nil {
		return fmt.Errorf("registration refused: %w", err)
	}
	return eng.RunRealtime(ctx)
}

// loggedCaller logs each failed exchange; the agent's chain retries it.
type loggedCaller struct{ wire.Caller }

func (c loggedCaller) Call(ctx context.Context, action string, req, resp any) error {
	err := c.Caller.Call(ctx, action, req, resp)
	if err != nil {
		log.Printf("%s failed: %v", action, err)
	}
	return err
}

func hostnameOr(def string) string {
	if h, err := os.Hostname(); err == nil && h != "" {
		return h
	}
	return def
}
