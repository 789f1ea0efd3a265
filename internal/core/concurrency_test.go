package core

import (
	"context"
	"sync"
	"testing"

	"scan/internal/knowledge"
	"scan/internal/workflow"
)

// TestConcurrentRunWorkflowAccounting hammers one knowledge base through
// the platform's hot path from many goroutines (run under -race in CI):
// the Data Broker's advice must stay stable while runs log telemetry, no
// run log may be lost, and after Flush the accounting must be exact —
// every concurrent run contributes precisely the same number of
// observations as an identical serial run.
func TestConcurrentRunWorkflowAccounting(t *testing.T) {
	kb := knowledge.New()
	kb.SeedPaperProfiles()
	p := NewPlatform(Options{Workers: 2, KB: kb})
	ds, _ := synthJob(t, 2000, 400, 4, 13)
	// The plan is pinned to one align shard. Left to the Data Broker, the
	// runs after the calibration run price an align shard from its folded
	// rate, and on a slow host (or a race build) that clears the split
	// floor and rounds align up to a wave of two shards: the per-run
	// observation count would then depend on host speed.
	opts := workflow.RunOptions{ShardRecords: len(ds.Reads)}

	advBefore, err := kb.ShardAdvice(10)
	if err != nil {
		t.Fatal(err)
	}

	// Calibration: one serial run of the identical job fixes the per-run
	// observation count. The pinned plan, which sizes the calling regions
	// too, makes it deterministic.
	if _, err := runVariantCalling(context.Background(), p, ds, opts); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	perRun := kb.RunCount()
	if perRun == 0 {
		t.Fatal("calibration run logged nothing")
	}

	const (
		workers = 6
		runs    = 2
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				if _, err := runVariantCalling(context.Background(), p, ds, opts); err != nil {
					t.Error(err)
					return
				}
				if adv, err := kb.ShardAdvice(10); err != nil || adv != advBefore {
					t.Errorf("advice drifted mid-run: %+v, %v", adv, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	p.Flush()

	want := perRun * (1 + workers*runs)
	if got := kb.RunCount(); got != want {
		t.Fatalf("RunCount = %d, want %d (%d per run × %d runs): run logs lost or duplicated",
			got, want, perRun, 1+workers*runs)
	}
	// The graph agrees with the counter: every observation is a distinct
	// RunLog individual.
	res, err := kb.Query(`
PREFIX scan: <` + knowledge.NS + `>
SELECT ?run WHERE { ?run a scan:RunLog . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != want {
		t.Fatalf("SPARQL sees %d run individuals, want %d", res.Len(), want)
	}
	if adv, err := kb.ShardAdvice(10); err != nil || adv != advBefore {
		t.Fatalf("advice changed across the hammer: %+v, %v; want %+v", adv, err, advBefore)
	}
}
