package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"scan/internal/memo"
	"scan/internal/workflow"
)

// WorkerOptions configures one worker process's pull loop.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:7077".
	Coordinator string
	// Token authenticates against the coordinator's fleet endpoints.
	Token string
	// Name labels the worker on the roster (default: hostname).
	Name string
	// Slots bounds concurrently executing shards (default: GOMAXPROCS).
	Slots int
	// Engine executes the shards. The default engine has no knowledge
	// base — workers never consult the Data Broker; every scatter decision
	// arrives pinned in the task options — and shares the coordinator's
	// default catalogue and executor registry.
	Engine *workflow.Engine
	// HTTPClient overrides the transport (default: a client with no
	// overall timeout, since polls long-hold).
	HTTPClient *http.Client
	// Logf receives worker events (default: silent).
	Logf func(format string, args ...any)
}

// Worker is one fleet node: it registers with the coordinator, long-polls
// for shard tasks, executes them through the exact engine path local runs
// use (Engine.PrepareStageShards → StageStream.Transform), and posts the
// results back. Prepared stage streams (aligner indexes, region
// partitions) are cached per (context, stage, options), and shards of one
// stage that arrive together share one context fetch, decode and prepare,
// so no shard after the first pays setup. Decoded context parts are cached
// by hash, so a stage whose context shares parts with a recent stage's
// fetches only the other parts.
type Worker struct {
	opts   WorkerOptions
	client *http.Client
	engine *workflow.Engine
	id     string

	preps memo.Memo[string, *workflow.StagePrep] // by task key
	parts memo.Memo[string, *workflow.Dataset]   // by content hash
}

// workerCacheMax bounds each of a worker's caches, and partMemoMax the
// coordinator's memo of context-part hashes.
const workerCacheMax, partMemoMax = 8, 8

// NewWorker builds a worker (Run starts it).
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Name == "" {
		if host, err := os.Hostname(); err == nil {
			opts.Name = host
		}
	}
	if opts.Slots <= 0 {
		opts.Slots = runtime.GOMAXPROCS(0)
	}
	if opts.Engine == nil {
		opts.Engine = workflow.NewEngine(workflow.EngineOptions{Workers: opts.Slots})
	}
	if opts.HTTPClient == nil {
		opts.HTTPClient = &http.Client{}
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return &Worker{
		opts:   opts,
		client: opts.HTTPClient,
		engine: opts.Engine,
		preps:  memo.Memo[string, *workflow.StagePrep]{Max: workerCacheMax},
		parts:  memo.Memo[string, *workflow.Dataset]{Max: workerCacheMax},
	}
}

// Run registers and pulls work until ctx is cancelled. Transient HTTP
// failures back off and retry; a coordinator that forgot the worker
// (restart) triggers re-registration. Run returns ctx.Err after in-flight
// shards drain.
func (wk *Worker) Run(ctx context.Context) error {
	backoff := 250 * time.Millisecond
	sem := make(chan struct{}, wk.opts.Slots)
	var wg sync.WaitGroup
	defer wg.Wait()
	for ctx.Err() == nil {
		if wk.id == "" {
			if err := wk.register(ctx); err != nil {
				wk.opts.Logf("fleet worker: register: %v (retrying in %s)", err, backoff)
				if !sleepCtx(ctx, backoff) {
					break
				}
				backoff = min(2*backoff, 5*time.Second)
				continue
			}
			backoff = 250 * time.Millisecond
		}
		// Hold a slot before polling so a grant can always start at once.
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		resp, err := wk.poll(ctx)
		if err != nil {
			<-sem
			if ctx.Err() != nil {
				break
			}
			if errors.Is(err, errUnknownWorker) {
				wk.opts.Logf("fleet worker: coordinator forgot %s; re-registering", wk.id)
				wk.id = ""
				continue
			}
			wk.opts.Logf("fleet worker: poll: %v (retrying in %s)", err, backoff)
			if !sleepCtx(ctx, backoff) {
				break
			}
			backoff = min(2*backoff, 5*time.Second)
			continue
		}
		backoff = 250 * time.Millisecond
		if resp.Task == nil {
			<-sem
			continue
		}
		t, id := *resp.Task, wk.id
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			wk.execute(ctx, id, t)
		}()
	}
	return ctx.Err()
}

var errUnknownWorker = errors.New("fleet: unknown worker")

func (wk *Worker) register(ctx context.Context) error {
	var resp RegisterResponse
	err := wk.post(ctx, "/api/v2/fleet/register",
		RegisterRequest{Name: wk.opts.Name, Slots: wk.opts.Slots}, nil, &resp)
	if err != nil {
		return err
	}
	if resp.ID == "" {
		return errors.New("fleet: empty worker id from coordinator")
	}
	wk.id = resp.ID
	wk.opts.Logf("fleet worker: registered as %s at %s", wk.id, wk.opts.Coordinator)
	return nil
}

func (wk *Worker) poll(ctx context.Context) (PollResponse, error) {
	var resp PollResponse
	err := wk.post(ctx, "/api/v2/fleet/poll", PollRequest{WorkerID: wk.id}, nil, &resp)
	return resp, err
}

// execute runs one task through the shared executor path and reports the
// result; a malformed task and executor errors travel back as task
// failures, never crash the worker.
func (wk *Worker) execute(ctx context.Context, id string, t Task) {
	out, elapsed, err := wk.runTask(ctx, t)
	if ctx.Err() != nil {
		return // shutting down: the coordinator's timeout re-queues the shard
	}
	res := ResultRequest{WorkerID: id, TaskID: t.ID, ElapsedMS: float64(elapsed) / float64(time.Millisecond)}
	var payload []byte
	if err == nil {
		payload, err = workflow.EncodeShard(out)
	}
	if err != nil {
		payload, res.Error = nil, err.Error()
	}
	res.OutputBytes = int64(len(payload))
	var ack ResultResponse
	for attempt := 0; attempt < 3; attempt++ {
		if err := wk.post(ctx, "/api/v2/fleet/result", res, payload, &ack); err == nil {
			if !ack.Accepted && res.Error == "" {
				wk.opts.Logf("fleet worker: task %s shard %d: duplicate discarded (another dispatch won)", t.ID, t.Shard)
			}
			return
		} else if ctx.Err() != nil || errors.Is(err, errUnknownWorker) {
			return
		} else if attempt < 2 {
			sleepCtx(ctx, 200*time.Millisecond)
		} else {
			wk.opts.Logf("fleet worker: task %s: result delivery failed: %v", t.ID, err)
		}
	}
}

func (wk *Worker) runTask(ctx context.Context, t Task) (workflow.StreamShard, time.Duration, error) {
	if err := t.validate(); err != nil {
		return workflow.StreamShard{}, 0, err
	}
	prep, err := wk.prepare(ctx, t)
	if err != nil {
		return workflow.StreamShard{}, 0, err
	}
	if n := prep.NumShards(); n != t.Shards {
		return workflow.StreamShard{}, 0, fmt.Errorf("fleet: stage %d re-Split into %d shards, the coordinator cut %d: coordinator and worker builds differ",
			t.Stage, n, t.Shards)
	}
	return prep.RunShard(ctx, t.Shard)
}

// prepare returns the task's prepared stage stream, joining its context
// from its parts on first use. A preparation or part that failed is not
// cached, so a retried shard fetches again.
func (wk *Worker) prepare(ctx context.Context, t Task) (*workflow.StagePrep, error) {
	optsJSON, err := json.Marshal(t.Options)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s|%s|%s|%d|%s", strings.Join(t.ContextParts, ","), t.Type, t.Workflow, t.Stage, optsJSON)
	return wk.preps.Get(key, func() (*workflow.StagePrep, error) {
		in := make([]*workflow.Dataset, len(t.ContextParts))
		for i, h := range t.ContextParts {
			var err error
			if in[i], err = wk.part(ctx, h); err != nil {
				return nil, err
			}
		}
		ds, err := workflow.JoinContext(t.Type, in)
		if err != nil {
			return nil, err
		}
		return wk.engine.PrepareStageShards(t.Workflow, t.Stage, ds, t.Options.RunOptions())
	})()
}

// part returns the decoded context part with hash, fetched, checked
// against its hash and decoded on first use.
func (wk *Worker) part(ctx context.Context, hash string) (*workflow.Dataset, error) {
	return wk.parts.Get(hash, func() (*workflow.Dataset, error) {
		raw, err := wk.fetchBlob(ctx, hash)
		if err != nil {
			return nil, err
		}
		return workflow.DecodeDataset(raw)
	})()
}

func (wk *Worker) fetchBlob(ctx context.Context, hash string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		wk.opts.Coordinator+"/api/v2/blobs/"+hash, nil)
	if err != nil {
		return nil, err
	}
	if wk.opts.Token != "" {
		req.Header.Set("Authorization", "Bearer "+wk.opts.Token)
	}
	resp, err := wk.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: blob %s: HTTP %d", hash, resp.StatusCode)
	}
	// Bytes that do not hash to the name they were served under are never
	// decoded or cached.
	b, err := io.ReadAll(resp.Body)
	if sum := sha256.Sum256(b); err == nil && hex.EncodeToString(sum[:]) != hash {
		return nil, fmt.Errorf("fleet: blob %s: content hash mismatch", hash)
	}
	return b, err
}

// post sends in as JSON with payload (raw bytes, or nil) right behind it,
// streamed from both slices without joining them.
func (wk *Worker) post(ctx context.Context, path string, in any, payload []byte, out any) error {
	env, err := json.Marshal(in)
	if err != nil {
		return err
	}
	body := func() io.Reader { return io.MultiReader(bytes.NewReader(env), bytes.NewReader(payload)) }
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, wk.opts.Coordinator+path, body())
	if err != nil {
		return err
	}
	req.ContentLength = int64(len(env) + len(payload))
	req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(body()), nil }
	req.Header.Set("Content-Type", "application/json")
	if wk.opts.Token != "" {
		req.Header.Set("Authorization", "Bearer "+wk.opts.Token)
	}
	resp, err := wk.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		if bytes.Contains(b, []byte("unknown_worker")) {
			return errUnknownWorker
		}
		return fmt.Errorf("fleet: POST %s: HTTP 404: %s", path, b)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("fleet: POST %s: HTTP %d: %s", path, resp.StatusCode, b)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
