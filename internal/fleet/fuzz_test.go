package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"scan/internal/blobstore"
	"scan/internal/workflow"
)

// The fleet's wire surface decodes bytes from the network on both ends:
// the worker decodes task envelopes, the coordinator decodes result
// envelopes and the raw shard payloads behind them (workflow/wire.go).
// The fuzzers assert the decoders never panic and that every accepted
// envelope satisfies the validated invariants — a malformed or hostile
// peer can produce errors, not crashes. CI's fuzz-smoke job runs these
// alongside the registry's upload-decoder fuzzers.

func FuzzDecodeTask(f *testing.F) {
	hash, other := strings.Repeat("5e", 32), strings.Repeat("a7", 32)
	seed, err := json.Marshal(Task{
		ID: "t1", Workflow: "dna-variant-detection", Stage: 0, Shard: 2, Shards: 3,
		Attempt: 1, Type: workflow.FASTQ, ContextParts: []string{hash, other},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"id":"t2","workflow":"w","stage":0,"shard":0,"context_parts":["` + strings.ToUpper(hash) + `"]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"id":"t3","workflow":"w","stage":-1,"shard":0,"context_parts":["` + hash + `"]}`))
	f.Add([]byte(`not json`))
	// Part lists: empty, a repeated hash, and more parts than fields.
	f.Add([]byte(`{"id":"t4","workflow":"w","stage":0,"shard":0,"context_parts":[]}`))
	f.Add([]byte(`{"id":"t5","workflow":"w","stage":0,"shard":0,"context_parts":["` + hash + `","` + hash + `"]}`))
	many, err := json.Marshal(Task{ID: "t6", Workflow: "w", ContextParts: distinctHashes(workflow.MaxContextParts + 1)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(many)
	f.Fuzz(func(t *testing.T, data []byte) {
		task, err := DecodeTask(data)
		if err != nil {
			if !errors.Is(err, ErrBadEnvelope) {
				t.Fatalf("decode error outside ErrBadEnvelope: %v", err)
			}
			return
		}
		if task.ID == "" || task.Workflow == "" {
			t.Fatalf("accepted task without identity: %+v", task)
		}
		if task.Stage < 0 || task.Shard < 0 || task.Shard >= task.Shards {
			t.Fatalf("accepted negative indices or a shard outside the stage: %+v", task)
		}
		parts := task.ContextParts
		if len(parts) == 0 || len(parts) > workflow.MaxContextParts {
			t.Fatalf("accepted %d context parts: %+v", len(parts), task)
		}
		for i, h := range parts {
			if !blobstore.ValidHash(h) || slices.Contains(parts[:i], h) {
				t.Fatalf("accepted context part %d that is not a distinct SHA-256 hash: %+v", i, task)
			}
		}
	})
}

// distinctHashes returns n distinct valid SHA-256 hashes.
func distinctHashes(n int) []string {
	hashes := make([]string, n)
	for i := range hashes {
		hashes[i] = fmt.Sprintf("%064x", i)
	}
	return hashes
}

func FuzzReadResult(f *testing.F) {
	out, err := workflow.EncodeShard(workflow.StreamShard{Records: 3, Data: []workflow.Feature{{Name: "g1", Value: 1.5}}})
	if err != nil {
		f.Fatal(err)
	}
	body := func(declared int, payload []byte) []byte {
		env, err := json.Marshal(ResultRequest{WorkerID: "w1", TaskID: "t1", OutputBytes: int64(declared), ElapsedMS: 12.5})
		if err != nil {
			f.Fatal(err)
		}
		return append(env, payload...)
	}
	f.Add(body(len(out), out))
	f.Add([]byte(`{"worker_id":"w1","task_id":"t1","error":"boom"}`))
	f.Add(body(len(out), out[:len(out)-1]))
	f.Add(body(len(out), append(append([]byte(nil), out...), 0)))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, payload, err := ReadResult(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadEnvelope) {
				t.Fatalf("read error outside ErrBadEnvelope: %v", err)
			}
			return
		}
		if res.WorkerID == "" || res.TaskID == "" {
			t.Fatalf("accepted result without identity: %+v", res)
		}
		if (res.Error != "") == (res.OutputBytes > 0) {
			t.Fatalf("accepted result without exactly one of output or error: %+v", res)
		}
		// The payload read and decode are the coordinator's second step;
		// arbitrary bytes must error cleanly, never panic. A payload
		// declared longer than the whole input is short by construction,
		// so it is not read: that keeps each run's buffer within the input.
		if res.OutputBytes > 0 && res.OutputBytes <= int64(len(data)) {
			if b, err := readPayload(payload, res.OutputBytes); err == nil {
				_, _ = workflow.DecodeShard(b)
			}
		}
	})
}
