package rpc

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"scan/internal/core"
	"scan/internal/registry"
)

// featureRows builds a feature-table body of n rows (~16 bytes each).
func featureRows(n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "gene%06d %d.5\n", i, i%97)
	}
	return b.Bytes()
}

// sentChunk records one append PUT as the transport saw it: the offset the
// client claimed, how many body bytes actually left the client, whether
// this attempt was deliberately killed mid-body, and the server's status
// (0 when no response arrived).
type sentChunk struct {
	offset int64
	read   int64
	killed bool
	status int
}

// chopTransport simulates disconnects: the first `kills` upload-append
// bodies are severed after killAfter bytes. Every append is recorded so the
// test can prove which byte ranges ever traveled.
type chopTransport struct {
	base      http.RoundTripper
	mu        sync.Mutex
	kills     int
	killAfter int64
	sent      []*sentChunk
}

func (t *chopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPut || !strings.Contains(req.URL.Path, "/api/v2/uploads/") {
		return t.base.RoundTrip(req)
	}
	offset, _ := strconv.ParseInt(req.URL.Query().Get("offset"), 10, 64)
	t.mu.Lock()
	rec := &sentChunk{offset: offset, killed: t.kills > 0}
	if rec.killed {
		t.kills--
	}
	t.sent = append(t.sent, rec)
	t.mu.Unlock()
	req.Body = &chopBody{r: req.Body, t: t, rec: rec}
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		t.mu.Lock()
		rec.status = resp.StatusCode
		t.mu.Unlock()
	}
	return resp, err
}

type chopBody struct {
	r   io.ReadCloser
	t   *chopTransport
	rec *sentChunk
}

func (b *chopBody) Read(p []byte) (int, error) {
	b.t.mu.Lock()
	read := b.rec.read
	b.t.mu.Unlock()
	if b.rec.killed {
		if read >= b.t.killAfter {
			return 0, errors.New("simulated disconnect")
		}
		if rem := b.t.killAfter - read; int64(len(p)) > rem {
			p = p[:rem]
		}
	}
	n, err := b.r.Read(p)
	b.t.mu.Lock()
	b.rec.read += int64(n)
	b.t.mu.Unlock()
	return n, err
}

func (b *chopBody) Close() error { return b.r.Close() }

// TestResumableUploadNeverResendsVerifiedBytes interrupts a resumable
// upload mid-chunk and proves the retry resumes from the server's verified
// offset: every byte below it travels exactly once, and the committed
// dataset hashes identically to the local data.
func TestResumableUploadNeverResendsVerifiedBytes(t *testing.T) {
	p := core.NewPlatform(core.Options{Workers: 2})
	s := NewServerOptions(p, ServerOptions{Executors: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	// 64 KiB chunks; the first append is severed after 40 KiB.
	chop := &chopTransport{base: http.DefaultTransport, kills: 1, killAfter: 40 << 10}
	c := NewClient(ts.URL,
		WithHTTPClient(&http.Client{Transport: chop}),
		WithUploadChunkSize(64<<10))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	body := featureRows(20000) // ~312 KiB, several chunks
	meta, err := c.UploadDatasetResumable(ctx, "big-rows", "feature-table",
		SeekablePart{Field: "data", R: bytes.NewReader(body)})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(body)
	if meta.Hash != hex.EncodeToString(sum[:]) {
		t.Fatalf("committed hash %s != local hash", meta.Hash)
	}
	if meta.Records != 20000 {
		t.Fatalf("records = %d, want 20000", meta.Records)
	}

	chop.mu.Lock()
	sent := chop.sent
	chop.mu.Unlock()
	if len(sent) < 2 || !sent[0].killed {
		t.Fatalf("expected the first of several appends to be killed; sent = %d", len(sent))
	}
	// A retry can reach the server before the severed body does; once that
	// body lands, the retry's offset is stale and the server refuses it
	// with 409. Only the appends the server accepted count.
	var ok []*sentChunk
	for _, ch := range sent[1:] {
		if ch.status == http.StatusOK {
			ok = append(ok, ch)
		} else if ch.status != http.StatusConflict {
			t.Fatalf("append at offset %d answered %d", ch.offset, ch.status)
		}
	}
	if len(ok) == 0 {
		t.Fatal("no append after the severed one was accepted")
	}
	// The resume point is where the server said it was — necessarily within
	// what the first, severed append delivered.
	resumeAt := ok[0].offset
	if resumeAt > sent[0].read {
		t.Fatalf("resumed at %d, beyond the %d bytes that left the client", resumeAt, sent[0].read)
	}
	// No byte below the verified offset ever travels again, and the
	// accepted appends tile [resumeAt, len(body)) exactly once.
	sort.Slice(ok, func(i, j int) bool { return ok[i].offset < ok[j].offset })
	at := resumeAt
	for _, ch := range ok {
		if ch.offset < resumeAt {
			t.Fatalf("append at offset %d re-sent bytes below the verified offset %d", ch.offset, resumeAt)
		}
		if ch.offset != at {
			t.Fatalf("append at offset %d, want %d (overlap or gap)", ch.offset, at)
		}
		at = ch.offset + ch.read
	}
	if at != int64(len(body)) {
		t.Fatalf("appends covered up to %d, want %d", at, len(body))
	}
	// The session is gone after commit.
	if open, err := c.Uploads(ctx); err != nil || len(open) != 0 {
		t.Fatalf("open sessions after commit = %v (%v)", open, err)
	}
}

// TestDurableServerRestartRecovery is the tentpole e2e: with -data-dir
// semantics (core.Options.DataDir), uploaded datasets and accumulated
// knowledge-base telemetry survive a full server restart; a dataset larger
// than the resident budget spills to disk, stays resolvable by content
// hash, and still runs.
func TestDurableServerRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Client, *Server, *httptest.Server, *core.Platform) {
		p, err := core.OpenPlatform(core.Options{
			Workers: 2,
			DataDir: dir,
			// A resident budget far below the dataset: every resolve
			// rematerializes from disk and every commit spills.
			Registry: registry.Options{MaxBytes: 1 << 10},
			Logf:     t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := NewServerOptions(p, ServerOptions{Executors: 1})
		ts := httptest.NewServer(s.Handler())
		return NewClient(ts.URL), s, ts, p
	}
	c, s, ts, p := open()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	body := featureRows(4000) // ~62 KiB >> the 1 KiB resident budget
	ds, err := c.UploadDataset(ctx, "expr", "feature-table",
		UploadPart{Field: "data", R: bytes.NewReader(body)})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Bytes <= 1<<10 {
		t.Fatalf("test needs an over-budget dataset, got %d bytes", ds.Bytes)
	}
	// Over budget and unpinned ⇒ spilled: the payload lives on disk, not
	// in the heap.
	if resident, spilled, _ := p.Datasets().Resident(); resident != 0 || spilled == 0 {
		t.Fatalf("resident=%d spilled=%d, want 0 resident", resident, spilled)
	}

	// Run a job over the spilled dataset: it rematerializes for the run
	// (pinned), then spills again when the pin drops.
	job, err := c.CreateJob(ctx, SubmitJobRequest{Dataset: "expr"})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Watch(ctx, job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("job over spilled dataset: %+v", final.Error)
	}
	if resident, _, remats := p.Datasets().Resident(); resident != 0 || remats == 0 {
		t.Fatalf("post-run resident=%d remats=%d, want 0 resident after unpin", resident, remats)
	}

	// Capture the telemetry the run folded, then "kill" the daemon.
	p.Flush()
	runsBefore := p.KB().RunCount()
	if runsBefore == 0 {
		t.Fatal("run logged no telemetry")
	}
	ts.Close()
	s.Close()
	p.Close()

	// Restart over the same data directory.
	c2, s2, ts2, p2 := open()
	t.Cleanup(func() { ts2.Close(); s2.Close(); p2.Close() })
	if got := p2.KB().RunCount(); got != runsBefore {
		t.Fatalf("RunCount after restart = %d, want %d", got, runsBefore)
	}
	// The dataset survived and resolves by id, name and content hash.
	for _, key := range []string{ds.ID, "expr", "sha256:" + ds.Hash} {
		got, err := c2.Dataset(ctx, key)
		if err != nil {
			t.Fatalf("Dataset(%q) after restart: %v", key, err)
		}
		if got.ID != ds.ID || got.Records != 4000 || got.Hash != ds.Hash {
			t.Fatalf("Dataset(%q) = %+v, want %+v", key, got, ds)
		}
	}
	// And it still runs — rematerialized from blobs written by the previous
	// process.
	job2, err := c2.CreateJob(ctx, SubmitJobRequest{Dataset: "sha256:" + ds.Hash})
	if err != nil {
		t.Fatal(err)
	}
	final2, err := c2.Watch(ctx, job2.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final2.State != StateDone {
		t.Fatalf("post-restart job: %+v", final2.Error)
	}
	if p2.KB().RunCount() <= runsBefore {
		t.Fatal("post-restart run folded no telemetry")
	}
}

// TestDatasetResourceReadsNoPayload: the dataset resource's GET and DELETE
// read metadata alone, so a dataset spilled under a 1 KiB resident budget
// is never rematerialized for them.
func TestDatasetResourceReadsNoPayload(t *testing.T) {
	p, err := core.OpenPlatform(core.Options{
		Workers:  1,
		DataDir:  t.TempDir(),
		Registry: registry.Options{MaxBytes: 1 << 10},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServerOptions(p, ServerOptions{Executors: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close(); p.Close() })
	c, ctx := NewClient(ts.URL), context.Background()

	ds, err := c.UploadDataset(ctx, "expr", "feature-table",
		UploadPart{Field: "data", R: bytes.NewReader(featureRows(4000))})
	if err != nil {
		t.Fatal(err)
	}
	if _, spilled, _ := p.Datasets().Resident(); spilled == 0 {
		t.Fatal("test needs a spilled dataset")
	}
	for range 3 {
		if got, err := c.Dataset(ctx, "expr"); err != nil || got.ID != ds.ID {
			t.Fatalf("GET = %+v, %v", got, err)
		}
	}
	if _, err := c.DeleteDataset(ctx, "expr"); err != nil {
		t.Fatal(err)
	}
	if _, _, remats := p.Datasets().Resident(); remats != 0 {
		t.Fatalf("three GETs and a DELETE rematerialized %d times, want 0", remats)
	}
}
