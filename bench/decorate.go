package main

// Executor decorators: every layer below the engine is measured from
// outside, by wrapping each workflow.DefaultExecutors() entry and handing
// the wrapped registry to core.Options.Executors (and to in-process fleet
// workers' engines). Nothing inside the program is instrumented.

import (
	"context"
	"fmt"

	"scan/internal/workflow"
)

// layerOf names the layer that owns a catalogue stage's compute.
func layerOf(tool, stage string) string {
	switch tool {
	case "BWA":
		return "align"
	case "GATK", "MuTect":
		switch stage {
		case "UnifiedGenotyper", "SomaticCall", "FusionScan", "Quantify":
			return "variant"
		}
	case "MaxQuant", "GPM":
		return "proteome"
	case "CellProfiler":
		return "imaging"
	case "Cytoscape":
		return "network"
	}
	return "workflow" // filters, merges: engine-side bookkeeping
}

// tracedExecutors wraps every executor the catalogue can reach. With
// worker set the registry serves a fleet worker's engine: its spans are
// filed loose (a worker has no job to tie them to) and the interval
// between Split and the first Transform is not a ranking interval.
func tracedExecutors(rec *recorder, worker bool) (*workflow.ExecutorRegistry, error) {
	base, out := workflow.DefaultExecutors(), workflow.NewExecutorRegistry()
	cat := workflow.DefaultCatalogue()
	seen := map[[2]string]bool{}
	for _, name := range cat.Names() {
		w, err := cat.Get(name)
		if err != nil {
			return nil, err
		}
		for _, st := range w.Stages {
			key := [2]string{st.Tool, st.Name}
			inner, ok := base.Lookup(st.Tool, st.Name)
			if seen[key] || !ok {
				continue
			}
			seen[key] = true
			t := traced{rec: rec, inner: inner, stage: st.Name, layer: layerOf(st.Tool, st.Name), worker: worker}
			var wrapped workflow.StageExecutor = t
			switch sx := inner.(type) {
			case workflow.PassthroughExecutor:
				wrapped = inner // never executes inside a segment: nothing to time
			case workflow.StreamingExecutor:
				wrapped = tracedStreaming{traced: t, sx: sx}
			}
			if err := out.Register(st.Tool, st.Name, wrapped); err != nil {
				return nil, fmt.Errorf("decorating %s/%s: %w", st.Tool, st.Name, err)
			}
		}
	}
	return out, nil
}

// traced times a stage's whole Execute: split, shard dispatch (local pool
// or fleet) and gather behind one barrier.
type traced struct {
	rec    *recorder
	inner  workflow.StageExecutor
	stage  string
	layer  string
	worker bool
}

func (t traced) chainOf(in *workflow.Dataset) *chain {
	if t.worker {
		return nil
	}
	return t.rec.chainOf(in, t.stage)
}

func (t traced) Execute(ctx context.Context, env *workflow.StageEnv, in *workflow.Dataset) (*workflow.Dataset, error) {
	c := t.chainOf(in)
	sp := t.rec.begin("execute:"+t.stage, t.layer, c)
	out, err := t.inner.Execute(ctx, env, in)
	t.rec.finish(sp)
	if out != nil && c != nil {
		t.rec.follow(out, c)
	}
	return out, err
}

// tracedStreaming also times the stream set-up (index builds) and hands the
// engine a stream whose Split, Transform and Gather are timed one by one.
type tracedStreaming struct {
	traced
	sx workflow.StreamingExecutor
}

func (t tracedStreaming) Stream(env *workflow.StageEnv, in *workflow.Dataset) (workflow.StageStream, bool, error) {
	c := t.chainOf(in)
	sp := t.rec.begin("stream:"+t.stage, t.layer, c)
	st, ok, err := t.sx.Stream(env, in)
	if err != nil || !ok {
		return st, ok, err // declined: the engine falls back to Execute, which is timed
	}
	t.rec.finish(sp)
	return &tracedStream{t: t.traced, inner: st, chain: c}, true, nil
}

type tracedStream struct {
	t     traced
	inner workflow.StageStream
	chain *chain
}

func (s *tracedStream) Split() ([]workflow.StreamShard, error) {
	sp := s.t.rec.begin("split:"+s.t.stage, "workflow", s.chain)
	shards, err := s.inner.Split()
	s.t.rec.finish(sp)
	if s.chain != nil {
		s.t.rec.mu.Lock()
		s.chain.splitEnd = sp.End
		s.t.rec.mu.Unlock()
	}
	return shards, err
}

func (s *tracedStream) Transform(ctx context.Context, i int, in workflow.StreamShard) (workflow.StreamShard, error) {
	if s.chain != nil {
		// The engine ranks a pipelined segment (segmentCosts → the
		// knowledge base's ChainCosts, a refit after every fold) between
		// the head's Split and the first shard it dispatches.
		s.t.rec.mu.Lock()
		from := s.chain.splitEnd
		s.chain.splitEnd = 0
		s.t.rec.mu.Unlock()
		if from != 0 {
			rank := &span{ID: s.t.rec.nextID.Add(1), Name: "rank", Layer: "knowledge", Start: from, chain: s.chain}
			s.t.rec.finish(rank)
		}
	}
	sp := s.t.rec.begin("transform:"+s.t.stage, s.t.layer, s.chain)
	sp.Records = in.Records
	out, err := s.inner.Transform(ctx, i, in)
	s.t.rec.finish(sp)
	return out, err
}

func (s *tracedStream) Gather(shards []workflow.StreamShard) (*workflow.Dataset, error) {
	sp := s.t.rec.begin("gather:"+s.t.stage, "workflow", s.chain)
	out, err := s.inner.Gather(shards)
	s.t.rec.finish(sp)
	if out != nil && s.chain != nil {
		s.t.rec.follow(out, s.chain)
	}
	return out, err
}
