package rpc

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"scan/internal/core"
	"scan/internal/fleet"
)

// TestJobsScatterToFleetWorkers is the daemon-level slice of the fleet
// contract: a worker that joins through the server's own fleet endpoints
// is handed the shards of ordinary submitted jobs, and the roster reports
// the work. The zero-worker default (local pool execution) is pinned by
// TestV2StageEventsStreamed.
func TestJobsScatterToFleetWorkers(t *testing.T) {
	p := core.NewPlatform(core.Options{Workers: 2})
	s := NewServerOptions(p, ServerOptions{Executors: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	c := NewClient(ts.URL)

	wctx, wcancel := context.WithCancel(context.Background())
	wk := fleet.NewWorker(fleet.WorkerOptions{Coordinator: ts.URL, Name: "node1", Slots: 2})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = wk.Run(wctx) }()
	t.Cleanup(func() { wcancel(); wg.Wait() })

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for s.fleet.ReadyWorkers() == 0 {
		time.Sleep(5 * time.Millisecond)
	}

	job, err := c.CreateJob(ctx, SubmitJobRequest{
		Workflow:     "integrative-network",
		Network:      &NetworkSpec{Genes: 60, Modules: 4, Seed: 29},
		ShardRecords: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Watch(ctx, job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("job state = %s (%v)", final.State, final.Error)
	}
	if final.Result == nil || final.Result.Nodes != 60 || final.Result.Modules != 4 {
		t.Fatalf("result = %+v", final.Result)
	}

	roster, err := c.Workers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(roster.Workers) != 1 || roster.Workers[0].Name != "node1" {
		t.Fatalf("roster = %+v", roster)
	}
	if roster.Workers[0].ShardsDone == 0 {
		t.Fatal("worker executed no shards; the job ran locally despite a registered fleet")
	}
	if roster.Metrics.RemoteStages == 0 || roster.Metrics.Completed == 0 {
		t.Fatalf("fleet metrics = %+v", roster.Metrics)
	}
}
