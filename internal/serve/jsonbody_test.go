package serve

import (
	"bytes"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/graph"
)

// Values the JSON layout treats specially: distances encoding/json omits
// (0, −0), writes in exponent form (below 1e-6, from 1e21) or cannot
// encode, and strings it escapes — quotes, backslashes, control bytes,
// invalid UTF-8, U+2028/U+2029 — beside the HTML characters it leaves
// alone with escaping off.
var (
	edgeDists = []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 9.99e-7, 1e21, 1e20, -1e21,
		123.456, 5e-324, math.MaxFloat64, -3.25, 1e-300}
	nonFinite   = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	edgeStrings = []string{"", "DIJ", "HYP", `NO"PE`, `back\slash`, "ctl\x00\x01\x1f\x7f",
		"\b\f\n\r\t", "bad\xffutf8\xc3", "lone\x80", "sep\u2028par\u2029", "<html>&amp;", "é ü 漢字 😀"}
)

func randomAnswer(r *rand.Rand) wireAnswer {
	a := wireAnswer{
		Method: core.Method(edgeStrings[r.Intn(len(edgeStrings))]),
		VS:     graph.NodeID(int32(r.Uint32())),
		VT:     graph.NodeID(int32(r.Uint32())),
		Cached: r.Intn(2) == 0,
	}
	switch r.Intn(3) {
	case 0:
		a.Dist = edgeDists[r.Intn(len(edgeDists))]
	case 1:
		a.Dist = r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20))
	}
	if r.Intn(3) > 0 {
		a.Hops = r.Intn(2000)
	}
	switch r.Intn(4) {
	case 0: // no proof
	case 1:
		a.Proof = []byte{}
	default:
		a.Proof = make([]byte, r.Intn(3000))
		r.Read(a.Proof)
	}
	a.Bytes = len(a.Proof)
	if r.Intn(4) == 0 {
		a.Error = edgeStrings[1+r.Intn(len(edgeStrings)-1)]
	}
	return a
}

// randomReply builds a /batch reply the way handleBatch does, shared
// replies through shareProofs itself (which frames answers of registered
// methods only: an unknown one is always an error item).
func randomReply(r *rand.Rand, shared bool) batchReply {
	out := batchReply{Answers: make([]wireAnswer, r.Intn(9))}
	methods := core.Methods()
	for i := range out.Answers {
		out.Answers[i] = randomAnswer(r)
		if shared && out.Answers[i].Error == "" {
			out.Answers[i].Method = methods[r.Intn(len(methods))]
		}
	}
	if shared {
		var err error
		if out.Batches, err = shareProofs(out.Answers); err != nil {
			panic(err)
		}
	}
	return out
}

// sameResponse requires the hand-written body path to answer exactly as
// writeJSON (json.NewEncoder, SetEscapeHTML(false)) answers for v —
// status, Content-Type and every byte — and, when it succeeds, in one
// Content-Length write.
func sameResponse(t *testing.T, v any, appendBody func([]byte) ([]byte, error)) {
	t.Helper()
	want, got := httptest.NewRecorder(), httptest.NewRecorder()
	writeJSON(want, v)
	sendJSON(got, appendBody)
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
		!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("status %d %q, body\n%q\nencoding/json: status %d %q, body\n%q",
			got.Code, got.Header().Get("Content-Type"), got.Body.Bytes(),
			want.Code, want.Header().Get("Content-Type"), want.Body.Bytes())
	}
	if got.Code == http.StatusOK && got.Header().Get("Content-Length") != strconv.Itoa(got.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", got.Header().Get("Content-Length"), got.Body.Len())
	}
}

// TestJSONBodiesMatchEncodingJSON pins the /query and /batch byte
// contract: over every edge value and seeded random answers and replies,
// inline and shared, appendAnswer and appendBatchReply write what
// encoding/json writes, and a non-finite distance fails as it does there.
func TestJSONBodiesMatchEncodingJSON(t *testing.T) {
	answer := func(a wireAnswer) {
		t.Helper()
		sameResponse(t, a, func(b []byte) ([]byte, error) { return appendAnswer(b, a) })
	}
	reply := func(rep batchReply) {
		t.Helper()
		sameResponse(t, rep, func(b []byte) ([]byte, error) { return appendBatchReply(b, rep) })
	}
	base := wireAnswer{Method: core.DIJ, VS: 3, VT: 7, Dist: 2.5, Hops: 2, Cached: true, Proof: []byte{1, 2, 3, 4}, Bytes: 4}
	for _, d := range append(edgeDists, nonFinite...) {
		a := base
		a.Dist = d
		answer(a)
		reply(batchReply{Answers: []wireAnswer{base, a}})
	}
	for _, s := range edgeStrings {
		a := base
		a.Method, a.Error = core.Method(s), s
		answer(a)
	}
	for _, a := range []wireAnswer{{}, {Method: core.HYP, Hops: 0, Proof: []byte{}}, {Method: core.LDM, Error: "no path"}} {
		answer(a)
	}
	reply(batchReply{Answers: []wireAnswer{}})

	r := rand.New(rand.NewSource(29))
	for i := 0; i < 500; i++ {
		answer(randomAnswer(r))
		reply(randomReply(r, i%2 == 0))
	}
}

// TestHTTPQueryOversizedBodyCloses: a POST /query body over the 64 KiB
// limit is refused with 400 and the connection is closed, not drained for
// keep-alive.
func TestHTTPQueryOversizedBodyCloses(t *testing.T) {
	_, _, ts := testServer(t)
	body := `{"method":"` + strings.Repeat("a", 70<<10) + `","vs":0,"vt":1}`
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !resp.Close {
		t.Errorf("status %d, Connection: close %v; want 400 and close", resp.StatusCode, resp.Close)
	}
}
