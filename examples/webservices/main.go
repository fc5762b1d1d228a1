// Web services: run the real thing — a CAS HTTP server, two execute-node
// agents exchanging envelopes over localhost (each one an action header
// and a packed payload, framed on one upgraded connection per caller),
// short real jobs, plus a user client querying pool state and a
// browser-equivalent fetch of the pool web site. Everything happens in
// wall-clock time and finishes in a few seconds.
//
//	go run ./examples/webservices
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"condorj2/internal/cluster"
	"condorj2/internal/core"
	"condorj2/internal/sim"
	"condorj2/internal/wire"
)

func main() {
	cas, err := core.New(core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer cas.Close()
	cas.StartScheduler()
	defer cas.StopScheduler()

	srv := httptest.NewServer(cas.HTTPHandler())
	defer srv.Close()
	fmt.Println("CAS serving at", srv.URL)

	client := &wire.Client{URL: srv.URL + "/services"}

	// Two execute nodes as goroutine agents (what cmd/cj2node runs).
	for n := 0; n < 2; n++ {
		name := fmt.Sprintf("webnode%d", n)
		go runAgent(client, name, 2)
	}

	// Submit ten 1-second jobs.
	var sub core.SubmitResponse
	err = client.Call(context.Background(), core.ActionSubmitJob, &core.SubmitRequest{
		Owner: "webuser", Count: 10, LengthSec: 1,
	}, &sub)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted jobs %d..%d\n", sub.FirstJobID, sub.LastJobID)

	// Wait for the pool to drain.
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var stats core.UserStatsResponse
		if err := client.Call(context.Background(), core.ActionUserStats, &core.UserStatsRequest{Owner: "webuser"}, &stats); err != nil {
			log.Fatal(err)
		}
		if stats.CompletedJobs == 10 {
			fmt.Printf("all jobs completed; accounted runtime %ds\n", stats.TotalRuntimeSec)
			break
		}
		time.Sleep(500 * time.Millisecond)
	}

	// Pool status over the service interface.
	var pool core.PoolStatusResponse
	if err := client.Call(context.Background(), core.ActionPoolStatus, &core.PoolStatusRequest{}, &pool); err != nil {
		log.Fatal(err)
	}
	for _, sc := range pool.VMs {
		fmt.Printf("vms %-8s %d\n", sc.State, sc.Count)
	}

	// The same data through the web site (what a browser sees).
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		log.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), "Pool Status") {
		fmt.Println("web site reachable: Pool Status page rendered")
	}
}

// runAgent is a real-time startd: the agent of the simulations and of
// cmd/cj2node (cluster.Startd), its engine driven by the wall clock.
func runAgent(client *wire.Client, name string, vms int) {
	eng := sim.NewAt(time.Now(), 1)
	kernel := cluster.NewKernel(eng, cluster.NodeConfig{
		Name: name, VMs: vms, MemoryMB: 1024, SetupCost: 100 * time.Millisecond,
	})
	agent := cluster.NewStartd(eng, kernel, client, cluster.StartdConfig{IdlePoll: 500 * time.Millisecond})
	if err := agent.Boot(); err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	eng.RunRealtime(context.Background())
}
