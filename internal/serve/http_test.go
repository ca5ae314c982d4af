package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/sig"
)

func testServer(t *testing.T) (*world, *Server, *httptest.Server) {
	t.Helper()
	w := testWorld(t)
	srv, err := NewServer(w.engine(Options{}), w.verifier)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return w, srv, ts
}

// assertSized requires a JSON answer to arrive with a Content-Length, not
// chunked.
func assertSized(t *testing.T, resp *http.Response) {
	t.Helper()
	if resp.ContentLength <= 0 || len(resp.TransferEncoding) > 0 {
		t.Errorf("Content-Length %d, Transfer-Encoding %q: want one sized body", resp.ContentLength, resp.TransferEncoding)
	}
}

// TestHTTPQueryBinaryRoundTrip drives the full client story over the wire:
// fetch the verifier PEM, request a binary proof, decode and verify it.
func TestHTTPQueryBinaryRoundTrip(t *testing.T) {
	w, _, ts := testServer(t)

	resp, err := http.Get(ts.URL + "/verifier")
	if err != nil {
		t.Fatal(err)
	}
	pemBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	verifier, err := sig.ParseVerifierPEM(pemBytes)
	if err != nil {
		t.Fatalf("parse served verifier: %v", err)
	}

	q := w.queries[0]
	url := fmt.Sprintf("%s/query?method=LDM&vs=%d&vt=%d&format=binary", ts.URL, q.S, q.T)
	resp, err = http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	wire, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, wire)
	}
	if got := resp.Header.Get("X-SPV-Method"); got != "LDM" {
		t.Errorf("X-SPV-Method = %q", got)
	}
	pr, n, err := core.DecodeProof(core.LDM, wire)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wire) {
		t.Errorf("decoded %d of %d bytes", n, len(wire))
	}
	if err := core.VerifyProof(verifier, core.LDM, q.S, q.T, pr); err != nil {
		t.Errorf("served proof fails verification: %v", err)
	}
}

func TestHTTPQueryJSON(t *testing.T) {
	w, _, ts := testServer(t)
	q := w.queries[0]
	body := fmt.Sprintf(`{"method":"DIJ","vs":%d,"vt":%d}`, q.S, q.T)
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	assertSized(t, resp)
	var got wireAnswer
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Method != core.DIJ || got.VS != q.S || got.VT != q.T {
		t.Errorf("echoed query %s %d→%d", got.Method, got.VS, got.VT)
	}
	if len(got.Proof) == 0 || got.Bytes != len(got.Proof) {
		t.Errorf("proof bytes %d, field says %d", len(got.Proof), got.Bytes)
	}
	pr, _, err := core.DecodeProof(core.DIJ, got.Proof)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyProof(w.verifier, core.DIJ, q.S, q.T, pr); err != nil {
		t.Error(err)
	}
	if path, _ := pr.Result(); got.Hops != len(path)-1 {
		t.Errorf("hops = %d, want %d edges for a %d-node path", got.Hops, len(path)-1, len(path))
	}
}

// TestHTTPQueryAcceptNegotiation pins the Accept handling of /query: a
// client that lists application/octet-stream gets the raw proof however
// the header is spelled (other ranges beside it, a q parameter, a second
// header line), and one that does not — or that ranks JSON above it, or
// refuses it with q=0 — gets JSON.
func TestHTTPQueryAcceptNegotiation(t *testing.T) {
	w, _, ts := testServer(t)
	q := w.queries[0]
	url := fmt.Sprintf("%s/query?method=DIJ&vs=%d&vt=%d", ts.URL, q.S, q.T)
	for _, tc := range []struct {
		accept []string
		binary bool
	}{
		{[]string{"application/octet-stream"}, true},
		{[]string{"application/octet-stream, */*"}, true},
		{[]string{"application/octet-stream;q=0.9"}, true},
		{[]string{"text/html, Application/Octet-Stream; q=0.5, */*;q=0.1"}, true},
		{[]string{"text/html", "application/octet-stream"}, true},
		{[]string{"application/json;q=0.5, application/octet-stream"}, true},
		{nil, false},
		{[]string{"*/*"}, false},
		{[]string{"application/json"}, false},
		{[]string{"application/octet-stream;q=0"}, false},
		{[]string{"application/json, application/octet-stream;q=0.5"}, false},
		{[]string{"application/octet-streamx"}, false},
	} {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range tc.accept {
			req.Header.Add("Accept", a)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("Accept %q: status %d: %s", tc.accept, resp.StatusCode, body)
		}
		ct := resp.Header.Get("Content-Type")
		if tc.binary {
			if ct != "application/octet-stream" {
				t.Errorf("Accept %q: Content-Type %q, want the raw proof", tc.accept, ct)
			} else if _, n, err := core.DecodeProof(core.DIJ, body); err != nil || n != len(body) {
				t.Errorf("Accept %q: body is not one DIJ proof: %v", tc.accept, err)
			}
		} else if !strings.HasPrefix(ct, "application/json") {
			t.Errorf("Accept %q: Content-Type %q, want JSON", tc.accept, ct)
		}
	}
}

func TestHTTPQueryErrors(t *testing.T) {
	_, _, ts := testServer(t)
	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/query?method=LDM&vs=zero&vt=1", http.StatusBadRequest},
		{"/query?method=LDM&vs=4294967296&vt=1", http.StatusBadRequest}, // > int32: reject, don't truncate
		{"/query?method=NOPE&vs=0&vt=1", http.StatusNotFound},
		{"/query?method=LDM&vs=0&vt=0", http.StatusBadRequest},
		{"/query?method=LDM&vs=0&vt=99999999", http.StatusBadRequest},
	} {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.url, resp.StatusCode, tc.want)
		}
	}
}

func TestHTTPBatchAndStats(t *testing.T) {
	w, _, ts := testServer(t)
	var req struct {
		Queries []Query `json:"queries"`
	}
	for i := 0; i < 3; i++ {
		req.Queries = append(req.Queries, Query{Method: core.HYP, VS: w.queries[i].S, VT: w.queries[i].T})
	}
	req.Queries = append(req.Queries, Query{Method: "NOPE", VS: 0, VT: 1})
	body, _ := json.Marshal(req)

	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	assertSized(t, resp)
	var got struct {
		Answers []wireAnswer `json:"answers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != 4 {
		t.Fatalf("got %d answers", len(got.Answers))
	}
	for i := 0; i < 3; i++ {
		a := got.Answers[i]
		if a.Error != "" {
			t.Fatalf("answer %d: %s", i, a.Error)
		}
		pr, _, err := core.DecodeProof(core.HYP, a.Proof)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.VerifyProof(w.verifier, core.HYP, a.VS, a.VT, pr); err != nil {
			t.Error(err)
		}
	}
	if got.Answers[3].Error == "" {
		t.Error("unknown-method batch item reported no error")
	}

	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(sresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Queries != 4 || snap.Misses != 3 || snap.Errors != 1 {
		t.Errorf("stats = %+v, want 4 queries / 3 misses / 1 error", snap)
	}
	assertLedger(t, snap)
}

func TestHTTPBatchTooLarge(t *testing.T) {
	_, _, ts := testServer(t)
	qs := make([]Query, MaxBatch+1)
	body, _ := json.Marshal(map[string]any{"queries": qs})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400", resp.StatusCode)
	}
}

// TestHTTPConcurrentClients hammers the HTTP surface itself (handler →
// engine → providers) from parallel clients; meaningful under -race.
func TestHTTPConcurrentClients(t *testing.T) {
	w, srv, ts := testServer(t)
	var wg sync.WaitGroup
	fail := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := w.queries[g%4]
			url := fmt.Sprintf("%s/query?method=LDM&vs=%d&vt=%d", ts.URL, q.S, q.T)
			for i := 0; i < 5; i++ {
				resp, err := http.Get(url)
				if err != nil {
					fail <- err.Error()
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fail <- fmt.Sprintf("status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}
	s := srv.Engine().Stats()
	if s.Queries != 40 || s.Errors != 0 {
		t.Errorf("stats = %+v, want 40 queries / 0 errors", s)
	}
	if s.Misses < 4 || s.CacheLen != 4 {
		t.Errorf("misses = %d, cache holds %d; want at least 4 and 4 distinct", s.Misses, s.CacheLen)
	}
}

// TestHTTPBatchSharedEncoding opts a /batch request into the blob
// transport and checks the whole client story: answers keep their metadata
// but move their proofs into per-method blobs, repeated queries share one
// body, a blob with a repeat is smaller than the inlined proofs it replaces
// and one without pays framing only, every decoded item batch-verifies
// against the served key, and the blob is byte for byte what the public
// encoder makes of the same request's inline proofs.
func TestHTTPBatchSharedEncoding(t *testing.T) {
	w, _, ts := testServer(t)
	var req struct {
		Queries  []Query `json:"queries"`
		Encoding string  `json:"encoding"`
	}
	for i := 0; i < 3; i++ {
		req.Queries = append(req.Queries, Query{Method: core.DIJ, VS: w.queries[i].S, VT: w.queries[i].T})
	}
	req.Queries = append(req.Queries, req.Queries[0]) // repeated query → backref
	req.Queries = append(req.Queries, Query{Method: core.LDM, VS: w.queries[0].S, VT: w.queries[0].T})
	req.Queries = append(req.Queries, Query{Method: "NOPE", VS: 0, VT: 1})
	req.Encoding = "shared"
	body, _ := json.Marshal(req)

	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Answers []wireAnswer `json:"answers"`
		Batches []wireBatch  `json:"proof_batches"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != 6 {
		t.Fatalf("got %d answers", len(got.Answers))
	}
	if len(got.Batches) != 2 {
		t.Fatalf("got %d proof batches, want DIJ + LDM", len(got.Batches))
	}
	covered := map[int]bool{}
	for _, b := range got.Batches {
		pb, n, err := core.DecodeProofBatch(b.Batch)
		if err != nil || n != len(b.Batch) {
			t.Fatalf("%s blob: n=%d/%d err=%v", b.Method, n, len(b.Batch), err)
		}
		if pb.Method != b.Method || pb.Len() != len(b.Items) {
			t.Fatalf("%s blob: method %s, %d items for %d indexes", b.Method, pb.Method, pb.Len(), len(b.Items))
		}
		var inlined int
		for k, i := range b.Items {
			a := got.Answers[i]
			if a.Method != b.Method || a.Error != "" {
				t.Fatalf("%s blob covers answer %d (%s, err=%q)", b.Method, i, a.Method, a.Error)
			}
			if len(a.Proof) != 0 {
				t.Errorf("answer %d still inlines its proof next to a batch blob", i)
			}
			inlined += a.Bytes
			it := pb.Items()[k]
			if it.VS != a.VS || it.VT != a.VT {
				t.Errorf("%s blob item %d is %d→%d, answer says %d→%d", b.Method, k, it.VS, it.VT, a.VS, a.VT)
			}
			covered[i] = true
		}
		// The DIJ blob carries its repeated answer as a backref and must come
		// out smaller than the proofs it replaces; without a repeat a blob
		// is its proofs plus a header and 13 bytes of framing an item.
		over, hasRepeat := b.Bytes-inlined, b.Method == core.DIJ
		if (hasRepeat && over >= 0) || over > 16+13*len(b.Items) {
			t.Errorf("%s blob is %dB, replaced proofs were %dB", b.Method, b.Bytes, inlined)
		}
		for i, err := range core.VerifyBatch(w.verifier, b.Method, pb.Items()) {
			if err != nil {
				t.Errorf("%s blob item %d: %v", b.Method, i, err)
			}
		}
	}
	// The repeated DIJ query must share its first occurrence's proof value.
	for _, b := range got.Batches {
		if b.Method == core.DIJ {
			items := make(map[int]int) // answer index → blob position
			for k, i := range b.Items {
				items[i] = k
			}
			pb, _, _ := core.DecodeProofBatch(b.Batch)
			if pb.Items()[items[3]].Proof != pb.Items()[items[0]].Proof {
				t.Error("repeated query did not share its proof body")
			}
		}
	}
	if got.Answers[4].Error != "" || covered[5] {
		t.Errorf("answer shapes wrong: LDM err=%q, failed item covered=%v", got.Answers[4].Error, covered[5])
	}
	if got.Answers[5].Error == "" {
		t.Error("unknown-method item reported no error")
	}

	// One encoding: the server frames cached wire bytes, the public encoder
	// takes decoded proofs, and the two must agree on every byte. The inline
	// reply of the same request supplies the proofs — and is itself a fixed
	// function of the request.
	req.Encoding = ""
	body, _ = json.Marshal(req)
	var inline [2][]byte
	for k := range inline {
		resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		inline[k], err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(inline[0], inline[1]) {
		t.Error("the same inline /batch request returned two different bodies")
	}
	var plain struct {
		Answers []wireAnswer `json:"answers"`
	}
	if err := json.Unmarshal(inline[0], &plain); err != nil {
		t.Fatal(err)
	}
	for _, b := range got.Batches {
		items := make([]core.BatchItem, len(b.Items))
		for k, i := range b.Items {
			a := plain.Answers[i]
			pr, _, err := core.DecodeProof(b.Method, a.Proof)
			if err != nil {
				t.Fatalf("inline answer %d: %v", i, err)
			}
			items[k] = core.BatchItem{VS: a.VS, VT: a.VT, Proof: pr}
		}
		want, err := core.AppendProofBatch(nil, b.Method, items)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Batch, want) {
			t.Errorf("%s: served blob (%dB) is not AppendProofBatch over the inline proofs (%dB)", b.Method, len(b.Batch), len(want))
		}
	}

	// Unknown encodings are a client error, not silently the default.
	resp2, err := http.Post(ts.URL+"/batch", "application/json",
		strings.NewReader(`{"queries":[],"encoding":"gzip"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown encoding: status %d, want 400", resp2.StatusCode)
	}
}
