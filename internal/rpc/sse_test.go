package rpc

import (
	"bufio"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Slow-consumer behaviour of the Watch stream: a client that stops reading
// must cost the daemon one parked goroutine at most — never a blocked job
// transition, never a starved co-subscriber — and the per-write deadline
// must eventually tear the parked stream down.

// deadlineRecorder is a ResponseWriter that supports SetWriteDeadline and
// simulates a consumer whose connection stalls: the first failAfter writes
// succeed, everything later fails the way a tripped write deadline does.
type deadlineRecorder struct {
	mu        sync.Mutex
	header    http.Header
	deadlines []time.Time
	writes    int
	failAfter int
}

func (d *deadlineRecorder) Header() http.Header {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.header == nil {
		d.header = http.Header{}
	}
	return d.header
}

func (d *deadlineRecorder) WriteHeader(int) {}
func (d *deadlineRecorder) Flush()          {}

func (d *deadlineRecorder) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writes++
	if d.writes > d.failAfter {
		return 0, os.ErrDeadlineExceeded
	}
	return len(p), nil
}

func (d *deadlineRecorder) SetWriteDeadline(t time.Time) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.deadlines = append(d.deadlines, t)
	return nil
}

func (d *deadlineRecorder) snapshot() (deadlines []time.Time, writes int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]time.Time(nil), d.deadlines...), d.writes
}

// TestWatchWriteDeadlineTearsDownStalledStream drives handleV2Events against
// a writer whose connection "stalls" after the first event: the handler must
// arm a deadline before every write and return as soon as a write fails,
// instead of parking forever on a dead consumer.
func TestWatchWriteDeadlineTearsDownStalledStream(t *testing.T) {
	p, block := blockingPlatform(t)
	c, s := testServerOptions(t, p, ServerOptions{Executors: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	job, err := c.CreateJob(ctx, SubmitJobRequest{Workflow: "block-forever", Synthetic: smallSynthetic(31)})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-block.started: // pending and running events both exist now
	case <-ctx.Done():
		t.Fatal("stage never started")
	}

	rec := &deadlineRecorder{failAfter: 1}
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		s.handleV2Events(rec, httptest.NewRequest(http.MethodGet, "/api/v2/jobs/0/events", nil), job.ID)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler kept serving a stalled stream")
	}

	deadlines, writes := rec.snapshot()
	if writes != 2 {
		t.Fatalf("writes = %d, want 2 (one delivered event, one failed)", writes)
	}
	if len(deadlines) != writes {
		t.Fatalf("deadlines armed = %d, want one per write (%d)", len(deadlines), writes)
	}
	for i, dl := range deadlines {
		if lag := dl.Sub(start); lag <= 0 || lag > watchWriteTimeout+10*time.Second {
			t.Fatalf("deadline %d = %v from start, want ≈ the %v write timeout ahead", i, lag, watchWriteTimeout)
		}
	}

	// The torn-down subscriber left the job untouched: it is still running
	// and still cancellable.
	if _, err := c.Cancel(ctx, job.ID); err != nil {
		t.Fatalf("cancel after stalled watch: %v", err)
	}
	final, err := c.Watch(ctx, job.ID, nil)
	if err != nil || final.State != StateCanceled {
		t.Fatalf("final = %+v (%v)", final, err)
	}
}

// TestWatchStalledClientDoesNotBlock attaches a raw TCP subscriber that
// reads its response headers and then stops reading forever, while a live
// watcher follows the same job. The job must keep transitioning and the
// live watcher must see the terminal event — pull-per-subscriber fan-out
// means the stalled socket parks only its own handler goroutine.
func TestWatchStalledClientDoesNotBlock(t *testing.T) {
	p, block := blockingPlatform(t)
	c, _ := testServerOptions(t, p, ServerOptions{Executors: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	job, err := c.CreateJob(ctx, SubmitJobRequest{Workflow: "block-forever", Synthetic: smallSynthetic(32)})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-block.started:
	case <-ctx.Done():
		t.Fatal("stage never started")
	}

	// The stalled subscriber: handshake far enough to know the stream is
	// attached (status line + headers), then never read another byte.
	conn, err := net.Dial("tcp", strings.TrimPrefix(c.base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /api/v2/jobs/" + strconv.Itoa(job.ID) + "/events HTTP/1.1\r\nHost: scand\r\nAccept: text/event-stream\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil || !strings.Contains(status, "200") {
		t.Fatalf("stalled subscriber handshake: %q (%v)", status, err)
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line == "\r\n" {
			break // headers done; from here on the client is wedged
		}
	}

	// A healthy watcher on the same job, attached after the wedged one.
	type watchResult struct {
		job Job
		err error
	}
	live := make(chan watchResult, 1)
	go func() {
		j, werr := c.Watch(ctx, job.ID, nil)
		live <- watchResult{j, werr}
	}()

	// Give both subscribers a beat to be parked on the event log, then
	// drive the transition the wedged client will never consume.
	time.Sleep(50 * time.Millisecond)
	if _, err := c.Cancel(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-live:
		if got.err != nil || got.job.State != StateCanceled {
			t.Fatalf("live watcher saw %+v (%v)", got.job, got.err)
		}
	case <-ctx.Done():
		t.Fatal("live watcher starved by a stalled co-subscriber")
	}

	// The daemon as a whole stayed responsive: a fresh job on the same
	// executor completes while the wedged socket is still open.
	next, err := c.CreateJob(ctx, SubmitJobRequest{Synthetic: smallSynthetic(33)})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Watch(ctx, next.ID, nil)
	if err != nil || final.State != StateDone {
		t.Fatalf("follow-up job = %+v (%v)", final, err)
	}
}
