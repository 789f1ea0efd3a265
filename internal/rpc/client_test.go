package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Client error-path coverage: envelope decoding across both API
// generations, non-JSON bodies, prompt returns on context cancellation, and
// the timeout configuration (including the watch path's exemption).

func TestClientErrorDecoding(t *testing.T) {
	for name, tc := range map[string]struct {
		status int
		body   string
		want   string // substring of the returned error
	}{
		"v1 string envelope":  {400, `{"error":"bad thing happened"}`, "bad thing happened"},
		"v2 coded envelope":   {404, `{"error":{"code":"not_found","message":"no job 7"}}`, "not_found: no job 7"},
		"non-JSON body":       {500, `<html>Internal Server Error</html>`, "HTTP 500"},
		"empty body":          {502, ``, "HTTP 502"},
		"JSON without error":  {503, `{"status":"down"}`, "HTTP 503"},
		"empty error message": {500, `{"error":""}`, "HTTP 500"},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(tc.status)
			_, _ = w.Write([]byte(tc.body))
		}))
		c := NewClient(ts.URL)
		_, err := c.Status(context.Background())
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", name, err, tc.want)
		}
		ts.Close()
	}
}

// TestClientErrorCodeSurfaced: v2 envelopes decode into *APIError so
// callers can branch on the machine-readable code.
func TestClientErrorCodeSurfaced(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusConflict)
		_, _ = w.Write([]byte(`{"error":{"code":"conflict","message":"job 3 already done"}}`))
	}))
	defer ts.Close()
	_, err := NewClient(ts.URL).Cancel(context.Background(), 3)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeConflict {
		t.Fatalf("err = %v, want wrapped APIError{conflict}", err)
	}
}

// TestClientExportDecodesEnvelope: Export surfaces the JSON error message
// like every other call, instead of dumping the raw body bytes.
func TestClientExportDecodesEnvelope(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		_, _ = w.Write([]byte(`{"error":"unknown format \"bogus\""}`))
	}))
	defer ts.Close()
	_, err := NewClient(ts.URL).Export(context.Background(), "bogus")
	if err == nil || !strings.Contains(err.Error(), `unknown format "bogus"`) {
		t.Fatalf("err = %v, want decoded envelope message", err)
	}
	if strings.Contains(err.Error(), "{") {
		t.Fatalf("raw JSON leaked into the error: %v", err)
	}
}

// TestClientWaitReturnsOnContextCancel: Wait must abandon its poll loop as
// soon as the context ends, not after another poll interval.
func TestClientWaitReturnsOnContextCancel(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"id":1,"state":"running"}`)) // never finishes
	}))
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := NewClient(ts.URL).Wait(ctx, 1, time.Hour) // poll interval far beyond the test
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Wait took %v to notice cancellation", elapsed)
	}
}

// TestClientWatchReturnsOnContextCancel: a Watch parked on a silent stream
// unblocks when the context ends.
func TestClientWatchReturnsOnContextCancel(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		// One non-terminal event, then silence until the client goes away.
		fmt.Fprint(w, "event: state\ndata: {\"type\":\"state\",\"state\":\"running\"}\n\n")
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	saw := make(chan JobEvent, 1)
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := NewClient(ts.URL).Watch(ctx, 1, func(ev JobEvent) {
		select {
		case saw <- ev:
		default:
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Watch took %v to notice cancellation", elapsed)
	}
	select {
	case ev := <-saw:
		if ev.State != StateRunning {
			t.Fatalf("event = %+v", ev)
		}
	default:
		t.Fatal("Watch never delivered the pre-cancel event")
	}
}

// TestClientTimeoutConfigurable: WithTimeout bounds unary calls, and the
// watch path is exempt — a stream that outlives the unary timeout still
// delivers.
func TestClientTimeoutConfigurable(t *testing.T) {
	slowUnary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Second)
		_, _ = w.Write([]byte(`{"workers":1}`))
	}))
	defer slowUnary.Close()
	c := NewClient(slowUnary.URL, WithTimeout(50*time.Millisecond))
	if _, err := c.Status(context.Background()); err == nil {
		t.Fatal("50ms-timeout client survived a 2s response")
	}

	slowStream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		time.Sleep(500 * time.Millisecond) // well past the 50ms unary timeout
		fmt.Fprint(w, "event: state\ndata: {\"type\":\"state\",\"state\":\"done\",\"job\":{\"id\":1,\"state\":\"done\"}}\n\n")
		w.(http.Flusher).Flush()
	}))
	defer slowStream.Close()
	c = NewClient(slowStream.URL, WithTimeout(50*time.Millisecond))
	job, err := c.Watch(context.Background(), 1, nil)
	if err != nil {
		t.Fatalf("watch severed by the unary timeout: %v", err)
	}
	if job.State != StateDone {
		t.Fatalf("job = %+v", job)
	}
}

// TestClientWatchReusesConnection: a watch that reaches the terminal event
// leaves its connection to the next call instead of dialing per job.
func TestClientWatchReusesConnection(t *testing.T) {
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "event: state\ndata: {\"type\":\"state\",\"state\":\"done\",\"job\":{\"id\":1,\"state\":\"done\"}}\n\n")
		// The stream's end reaches the client after its terminal event,
		// as from scand, whose handler returns after flushing it.
		w.(http.Flusher).Flush()
		time.Sleep(10 * time.Millisecond)
	}))
	var conns atomic.Int32
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	c := NewClient(ts.URL, WithHTTPClient(&http.Client{Transport: &http.Transport{}}))
	for range 3 {
		if _, err := c.Watch(context.Background(), 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("3 watches opened %d connections, want 1", n)
	}
}

// TestClientWatchRejectsErrorStatus: a watch on a missing job surfaces the
// v2 envelope, not a stream parse failure.
func TestClientWatchRejectsErrorStatus(t *testing.T) {
	c, _ := testServer(t)
	_, err := c.Watch(context.Background(), 999, nil)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeNotFound {
		t.Fatalf("err = %v, want APIError{not_found}", err)
	}
}
