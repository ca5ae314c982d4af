package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/graph"
)

// assertLedger checks the engine's one accounting identity. Shed queries
// are in none of its terms.
func assertLedger(t *testing.T, s Snapshot) {
	t.Helper()
	if s.Hits+s.Misses+s.Errors != s.Queries || s.Deduped != 0 {
		t.Errorf("ledger: hits %d + misses %d + errors %d != queries %d (deduped %d, want 0)",
			s.Hits, s.Misses, s.Errors, s.Queries, s.Deduped)
	}
}

// blockingEngine builds an engine around one gated method: builds block
// until release is closed, and entered signals each build's start, so a
// test can hold queries in flight while others arrive.
func blockingEngine(opts Options) (e *Engine, entered, release chan struct{}) {
	entered = make(chan struct{}, 64)
	release = make(chan struct{})
	e = NewEngine(opts)
	e.register("SLOW", func(vs, vt graph.NodeID, buf []byte) (float64, int, []byte, cover, error) {
		entered <- struct{}{}
		<-release
		return 1, 1, append(buf, 0xAB), cover{}, nil
	})
	return e, entered, release
}

// TestCoalesceShedQueueFull pins the backpressure bound: an arrival that
// would take the in-flight gauge past it — a single query or a batch — is
// refused with ErrShedQueue, counted as shed and as nothing else. (The
// name predates admit; the test-floor list pins it.)
func TestCoalesceShedQueueFull(t *testing.T) {
	e, entered, release := blockingEngine(Options{CacheBytes: -1})
	e.maxInFlight = 2
	results := make(chan error, 2)
	for vs := graph.NodeID(1); vs <= 2; vs++ {
		go func() {
			_, err := e.Query(Query{Method: "SLOW", VS: vs, VT: 9})
			results <- err
		}()
		<-entered // admitted and inside its build
	}
	if got := e.Stats().Pipeline.InFlight; got != 2 {
		t.Fatalf("in-flight = %d, want 2", got)
	}

	_, err := e.Query(Query{Method: "SLOW", VS: 3, VT: 9})
	if !errors.Is(err, ErrShedQueue) || !errors.Is(err, ErrShed) {
		t.Fatalf("want ErrShedQueue, got %v", err)
	}
	for _, a := range e.QueryBatch(make([]Query, 3)) {
		if !errors.Is(a.Err, ErrShedQueue) {
			t.Fatalf("batch item: want ErrShedQueue, got %v", a.Err)
		}
	}

	close(release)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("admitted query failed: %v", err)
		}
	}
	s := e.Stats()
	if p := s.Pipeline; p.ShedQueue != 4 || p.Shed != 4 || p.ShedDeadline != 0 || p.InFlight != 0 {
		t.Errorf("admission block = %+v, want 4 queue-shed, 0 in flight", *p)
	}
	if s.Queries != 2 || s.Errors != 0 {
		t.Errorf("queries %d / errors %d, want 2 / 0 (shed is neither)", s.Queries, s.Errors)
	}
	assertLedger(t, s)
}

// TestCoalesceShedDeadline pins the deadline rule: a budget below the
// service-time estimate is refused with ErrShedDeadline, a roomy one and
// none at all are admitted, and the engine default applies to queries that
// bring none. (Name pinned like TestCoalesceShedQueueFull's.)
func TestCoalesceShedDeadline(t *testing.T) {
	e, entered, release := blockingEngine(Options{CacheBytes: -1})
	q := Query{Method: "SLOW", VS: 1, VT: 2}
	// No estimate yet: even a 1ns budget is admitted, and seeds it.
	go func() {
		<-entered
		time.Sleep(2 * time.Millisecond)
		close(release)
	}()
	if _, err := e.QueryBudget(q, time.Nanosecond); err != nil {
		t.Fatalf("first budgeted query: %v", err)
	}
	if est := time.Duration(e.svcNanos.Load()); est < 2*time.Millisecond {
		t.Fatalf("service estimate %v after a 2ms build", est)
	}

	if _, err := e.QueryBudget(q, time.Millisecond); !errors.Is(err, ErrShedDeadline) || !errors.Is(err, ErrShed) {
		t.Fatalf("budget below the estimate: want ErrShedDeadline, got %v", err)
	}
	if _, err := e.QueryBudget(q, time.Minute); err != nil {
		t.Errorf("roomy budget: %v", err)
	}
	if _, err := e.Query(q); err != nil {
		t.Errorf("no budget must never deadline-shed: %v", err)
	}
	e.defaultBudget = time.Millisecond
	if _, err := e.Query(q); !errors.Is(err, ErrShedDeadline) {
		t.Errorf("default budget below the estimate: want ErrShedDeadline, got %v", err)
	}

	s := e.Stats()
	if p := s.Pipeline; p.ShedDeadline != 2 || p.ShedQueue != 0 || p.InFlight != 0 {
		t.Errorf("admission block = %+v, want 2 deadline-shed, 0 in flight", *p)
	}
	if s.Queries != 3 {
		t.Errorf("queries = %d, want 3", s.Queries)
	}
	assertLedger(t, s)
}

// TestHTTPShedMapsTo503 pins the wire contract for shed requests on both
// query endpoints: 503 with Retry-After, visible in /stats' admission
// block and in no other counter or latency summary; a malformed budget is
// a 400.
func TestHTTPShedMapsTo503(t *testing.T) {
	w, srv, ts := testServer(t)
	q := Query{Method: core.LDM, VS: w.queries[0].S, VT: w.queries[0].T}
	if _, err := srv.Engine().Query(q); err != nil { // seeds the service estimate
		t.Fatal(err)
	}
	before := srv.Engine().Stats()
	batch, _ := json.Marshal(map[string]any{"queries": []Query{q, q, q}})
	do := func(method, path, budget string, body []byte) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		req.Header.Set("X-SPV-Budget", budget)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	for _, c := range []struct {
		method, path string
		body         []byte
	}{
		{http.MethodGet, "/query?method=LDM&vs=1&vt=2", nil},
		{http.MethodPost, "/batch", batch},
	} {
		resp := do(c.method, c.path, "1ns", c.body)
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
			t.Errorf("%s shed: status %d, Retry-After %q; want 503, \"1\"",
				c.path, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
		// A malformed budget is the client's fault, not load.
		if resp := do(c.method, c.path, "-3ms", c.body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s bad budget: status %d, want 400", c.path, resp.StatusCode)
		}
	}
	after := srv.Engine().Stats()
	if p := after.Pipeline; p.ShedDeadline != 4 || p.Shed != 4 || p.InFlight != 0 {
		t.Errorf("admission block = %+v, want 1 + 3 deadline-shed, 0 in flight", *p)
	}
	after.Pipeline, before.Pipeline = nil, nil
	if a, b := mustJSON(t, after), mustJSON(t, before); a != b {
		t.Errorf("shed requests moved other counters:\n before %s\n after  %s", b, a)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
