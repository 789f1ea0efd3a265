package rpc

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestV1V2SubmitParity: one synthetic job submitted through /api/v1/jobs
// and through /api/v2/jobs runs the same admission path and yields the
// same result counts.
func TestV1V2SubmitParity(t *testing.T) {
	c, _ := testServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	v1, err := c.Submit(ctx, SubmitRequest{
		Workflow: "somatic-mutation-detection", ReferenceLength: 5000, Reads: 1200,
		SNVs: 6, Seed: 12, ReadLength: intPtr(90), ShardRecords: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.CreateJob(ctx, SubmitJobRequest{
		Workflow: "somatic-mutation-detection", ShardRecords: 400,
		Synthetic: &SyntheticSpec{ReferenceLength: 5000, Reads: 1200, SNVs: 6, Seed: 12, ReadLength: intPtr(90)},
	})
	if err != nil {
		t.Fatal(err)
	}
	fromV1, err := c.Watch(ctx, v1.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	fromV2, err := c.Watch(ctx, v2.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fromV1.State != StateDone || fromV2.State != StateDone {
		t.Fatalf("states %s / %s", fromV1.State, fromV2.State)
	}
	if fromV1.Source != SourceSynthetic || fromV1.Family != fromV2.Family || fromV1.Tenant != "" {
		t.Fatalf("v1 job = %+v, v2 job = %+v", fromV1, fromV2)
	}
	a, b := *fromV1.Result, *fromV2.Result
	a.ElapsedSec, a.Stages, b.ElapsedSec, b.Stages = 0, nil, 0, nil
	if !reflect.DeepEqual(a, b) || a.Planted != 6 || a.Shards != 3 {
		t.Fatalf("v1 counts %+v, v2 counts %+v", a, b)
	}
}

// TestV1SubmitErrorsAreV2Messages: every invalid v1 submission is
// rejected with v2's message for the same synthetic spec, minus its
// "synthetic: " prefix, in v1's string envelope.
func TestV1SubmitErrorsAreV2Messages(t *testing.T) {
	c, _ := testServer(t)
	ctx := context.Background()
	for _, req := range []SubmitRequest{
		{ReferenceLength: 10, Reads: 100},
		{ReferenceLength: 2000, Reads: 0},
		{ReferenceLength: 2000, Reads: 100, ReadLength: intPtr(0)},
		{ReferenceLength: 2000, Reads: 100, Workflow: "no-such-analysis"},
		{ReferenceLength: 2000, Reads: 100, Workflow: "proteome-maxquant"},
		{ReferenceLength: 2000, Reads: 100, Workflow: "variants-to-vcf"},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		code, raw := rawRequest(t, c, http.MethodPost, "/api/v1/jobs", string(body))
		var env errorResponse
		if err := json.Unmarshal(raw, &env); err != nil || code != http.StatusBadRequest {
			t.Fatalf("%s: code %d, body %s", body, code, raw)
		}
		_, err = c.CreateJob(ctx, SubmitJobRequest{
			Workflow: req.Workflow,
			Synthetic: &SyntheticSpec{
				ReferenceLength: req.ReferenceLength, Reads: req.Reads, ReadLength: req.ReadLength,
			},
		})
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("%s: v2 err = %v", body, err)
		}
		if want := strings.TrimPrefix(apiErr.Message, "synthetic: "); env.Error != want {
			t.Errorf("%s: v1 error %q, want %q", body, env.Error, want)
		}
	}
}

// letters is an endless stream of 'a' bytes.
type letters struct{}

func (letters) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
	}
	return len(p), nil
}

// TestV1BodiesBounded: /api/v1 is never authenticated, so its JSON bodies
// are bounded before decoding — a body over the bound is a 400 in v1's
// string envelope, not an unbounded buffer.
func TestV1BodiesBounded(t *testing.T) {
	c, _ := testServer(t)
	for _, tc := range []struct {
		path, prefix string
		limit        int64
	}{
		// An unterminated string keeps the decoder reading to the bound.
		{"/api/v1/jobs", `{"workflow":"`, maxSubmitBody},
		{"/api/v1/kb/query", `{"query":"`, maxQueryBody},
	} {
		body := io.MultiReader(strings.NewReader(tc.prefix), io.LimitReader(letters{}, tc.limit))
		resp, err := http.Post(c.base+tc.path, "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var env errorResponse
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &env) != nil ||
			!strings.Contains(env.Error, "request body too large") {
			t.Fatalf("%s: code %d, body %.200s", tc.path, resp.StatusCode, raw)
		}
	}
}
