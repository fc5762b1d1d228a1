// Command cj2sub is the user-side client of a CondorJ2 pool: submit jobs,
// inspect the queue and pool, read accounting, and manage configuration —
// all over the CAS web services.
//
//	cj2sub -cas http://localhost:8642/services submit -owner alice -count 10 -length 60
//	cj2sub -cas ... queue [-owner alice]
//	cj2sub -cas ... pool
//	cj2sub -cas ... stats -owner alice
//	cj2sub -cas ... config get schedule_batch
//	cj2sub -cas ... config set schedule_batch 200
//	cj2sub -cas ... provenance -dataset alignment
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"condorj2/internal/core"
	"condorj2/internal/wire"
)

func main() {
	casURL := flag.String("cas", "http://localhost:8642/services", "CAS web services URL")
	timeout := flag.Duration("call-timeout", 30*time.Second, "deadline of a whole call, retries included, forwarded to the CAS so server-side work is cancelled with the call (0 = none)")
	flag.Parse()
	client := newClient(*casURL, *timeout)
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	var err error
	switch args[0] {
	case "submit":
		err = submit(client, args[1:])
	case "queue":
		err = queue(client, args[1:])
	case "pool":
		err = pool(client)
	case "stats":
		err = stats(client, args[1:])
	case "config":
		err = config(client, args[1:])
	case "provenance":
		err = provenance(client, args[1:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cj2sub:", err)
		os.Exit(1)
	}
}

// newClient is the CAS at url behind a retrying wire: transient transport
// failures, 5xx, and Overloaded faults back off and retry inside the
// call's deadline, timeout from its start (0 = none). Mutating actions
// carry an idempotency key, so a retried submit can never enqueue a batch
// twice.
func newClient(url string, timeout time.Duration) wire.Caller {
	return timedCaller{&wire.Retryer{
		Caller: &wire.Client{URL: url},
		Keyed: func(action string) bool {
			switch action {
			case core.ActionSubmitJob, core.ActionRegisterData, core.ActionConfigSet:
				return true
			}
			return false
		},
	}, timeout}
}

// timedCaller puts its timeout on each call's context.
type timedCaller struct {
	wire.Caller
	timeout time.Duration
}

func (c timedCaller) Call(ctx context.Context, action string, req, resp any) error {
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	return c.Caller.Call(ctx, action, req, resp)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cj2sub [-cas URL] submit|queue|pool|stats|config|provenance ...")
	os.Exit(2)
}

func submit(c wire.Caller, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	owner := fs.String("owner", "", "job owner (required)")
	count := fs.Int("count", 1, "number of identical jobs")
	length := fs.Int64("length", 60, "job length in seconds")
	memory := fs.Int64("memory", 0, "minimum VM memory in MB")
	prio := fs.Float64("priority", 0, "priority (0..1)")
	dependsOn := fs.Int64("depends-on", 0, "job id this batch depends on")
	fs.Parse(args)
	var resp core.SubmitResponse
	err := c.Call(context.Background(), core.ActionSubmitJob, &core.SubmitRequest{
		Owner: *owner, Count: *count, LengthSec: *length,
		MinMemoryMB: *memory, Priority: *prio, DependsOn: *dependsOn,
	}, &resp)
	if err != nil {
		return err
	}
	fmt.Printf("submitted jobs %d..%d\n", resp.FirstJobID, resp.LastJobID)
	return nil
}

func queue(c wire.Caller, args []string) error {
	fs := flag.NewFlagSet("queue", flag.ExitOnError)
	owner := fs.String("owner", "", "filter by owner")
	fs.Parse(args)
	var resp core.QueueStatusResponse
	if err := c.Call(context.Background(), core.ActionQueueStatus, &core.QueueStatusRequest{Owner: *owner}, &resp); err != nil {
		return err
	}
	fmt.Printf("%8s %-12s %-10s %8s\n", "ID", "OWNER", "STATE", "LEN(s)")
	for _, j := range resp.Jobs {
		fmt.Printf("%8d %-12s %-10s %8d\n", j.ID, j.Owner, j.State, j.LengthSec)
	}
	return nil
}

func pool(c wire.Caller) error {
	var resp core.PoolStatusResponse
	if err := c.Call(context.Background(), core.ActionPoolStatus, &core.PoolStatusRequest{}, &resp); err != nil {
		return err
	}
	section := func(name string, scs []core.StateCount) {
		fmt.Println(name + ":")
		for _, sc := range scs {
			fmt.Printf("  %-10s %d\n", sc.State, sc.Count)
		}
	}
	section("machines", resp.Machines)
	section("vms", resp.VMs)
	section("jobs", resp.Jobs)
	fmt.Printf("jobs in progress: %d\n", resp.RunningJobs)
	return nil
}

func stats(c wire.Caller, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	owner := fs.String("owner", "", "owner (required)")
	fs.Parse(args)
	var resp core.UserStatsResponse
	if err := c.Call(context.Background(), core.ActionUserStats, &core.UserStatsRequest{Owner: *owner}, &resp); err != nil {
		return err
	}
	fmt.Printf("owner %s: completed %d, dropped %d, runtime %ds\n",
		resp.Owner, resp.CompletedJobs, resp.DroppedJobs, resp.TotalRuntimeSec)
	return nil
}

func config(c wire.Caller, args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("config get NAME | config set NAME VALUE")
	}
	switch args[0] {
	case "get":
		var resp core.ConfigGetResponse
		if err := c.Call(context.Background(), core.ActionConfigGet, &core.ConfigGetRequest{Name: args[1]}, &resp); err != nil {
			return err
		}
		fmt.Printf("%s = %s\n", resp.Name, resp.Value)
		return nil
	case "set":
		if len(args) < 3 {
			return fmt.Errorf("config set NAME VALUE")
		}
		var resp core.ConfigSetResponse
		return c.Call(context.Background(), core.ActionConfigSet, &core.ConfigSetRequest{
			Name: args[1], Value: strings.Join(args[2:], " "),
		}, &resp)
	default:
		return fmt.Errorf("config get|set")
	}
}

func provenance(c wire.Caller, args []string) error {
	fs := flag.NewFlagSet("provenance", flag.ExitOnError)
	dataset := fs.String("dataset", "", "dataset name (required)")
	version := fs.Int64("version", 0, "dataset version (0 = latest)")
	fs.Parse(args)
	var resp core.ProvenanceResponse
	err := c.Call(context.Background(), core.ActionProvenance, &core.ProvenanceRequest{
		Dataset: *dataset, Version: *version,
	}, &resp)
	if err != nil {
		return err
	}
	fmt.Printf("dataset %s@v%d\n", resp.Dataset, resp.Version)
	fmt.Printf("  produced by job %d (owner %s)\n", resp.ProducedByJob, resp.Owner)
	if resp.Executable != "" {
		fmt.Printf("  executable %s@%s\n", resp.Executable, resp.ExecutableVersion)
	}
	for _, in := range resp.Inputs {
		fmt.Printf("  input %s\n", in)
	}
	return nil
}
