// Quickstart: stand up a complete CondorJ2 system in-process — the CAS
// (application server + embedded database), a simulated 20-node cluster —
// submit a batch of jobs, let the pull-model scheduling run them, and read
// the results back with SQL.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"condorj2/internal/cluster"
	"condorj2/internal/core"
	"condorj2/internal/sim"
	"condorj2/internal/wire"
)

func main() {
	// A discrete-event engine drives everything in virtual time, so the
	// "ten minutes" below elapse instantly.
	eng := sim.New(42)

	// The CAS: embedded relational database + entity beans + application
	// logic + web services (paper Figure 3).
	cas, err := core.New(core.Options{Clock: eng})
	if err != nil {
		log.Fatal(err)
	}
	defer cas.Close()

	// The in-process transport still serializes every exchange as a
	// frame's envelope (header, then packed payload), exactly like the
	// HTTP path.
	transport := &wire.Local{Mux: cas.Mux}

	// Matchmaking is a periodic set-oriented query over the database.
	eng.Every(time.Second, "schedule", func() {
		if _, err := cas.Service.ScheduleCycle(context.Background()); err != nil {
			log.Fatal(err)
		}
	})

	// Twenty execute nodes with two VMs each boot and start heartbeating.
	for i := 0; i < 20; i++ {
		kernel := cluster.NewKernel(eng, cluster.NodeConfig{
			Name: cluster.NodeName(i), VMs: 2,
		})
		startd := cluster.NewStartd(eng, kernel, transport, cluster.StartdConfig{})
		if err := startd.Boot(); err != nil {
			log.Fatal(err)
		}
	}

	// Submit 100 one-minute jobs through the submitJob web service.
	var resp core.SubmitResponse
	err = transport.Call(context.Background(), core.ActionSubmitJob, &core.SubmitRequest{
		Owner: "quickstart", Count: 100, LengthSec: 60,
	}, &resp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted jobs %d..%d\n", resp.FirstJobID, resp.LastJobID)

	// Run ten virtual minutes.
	eng.RunFor(10 * time.Minute)

	// Everything is data: ask the operational store directly.
	var done, runtime int64
	cas.Pool.QueryRow(
		`SELECT completed_jobs, total_runtime_sec FROM accounting WHERE owner = 'quickstart'`,
	).Scan(&done, &runtime)
	fmt.Printf("completed %d jobs, %d seconds of computation\n", done, runtime)

	rows, err := cas.Pool.Query(
		`SELECT machine, count(*) FROM job_history GROUP BY machine ORDER BY machine LIMIT 5`)
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()
	fmt.Println("jobs per machine (first five):")
	for rows.Next() {
		var machine string
		var n int64
		rows.Scan(&machine, &n)
		fmt.Printf("  %-10s %d\n", machine, n)
	}
}
