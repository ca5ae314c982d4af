package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/sig"
)

// Server exposes an Engine over HTTP — the wire shape of the paper's
// service provider. Endpoints:
//
//	GET/POST /query    one query; JSON reply, or the raw proof encoding
//	                   with ?format=binary or an Accept header listing
//	                   application/octet-stream (headers carry the metadata)
//	POST     /batch    {"queries": [...]}  →  {"answers": [...]}
//	                   (both honour an X-SPV-Budget latency budget and
//	                   answer 503 + Retry-After when admission sheds them)
//	GET      /verifier the owner's public key, PEM (clients bootstrap
//	                   verification from this, out of band from proofs)
//	GET      /stats    engine counter snapshot, JSON (includes the graph
//	                   epoch and last-update latency once updates flow)
//	POST     /update   {"updates": [{"u","v","w"}...]} — owner-side edge
//	                   re-weighting; 403 unless EnableUpdates wired a
//	                   Deployment (the daemon must co-host the owner key)
//	POST     /snapshot persist the deployment to the configured path;
//	                   403 unless EnableSnapshot wired a save function
//	GET      /healthz  liveness
//
// Proof bytes decode with spv.DecodeProof and verify with spv.VerifyProof
// against the /verifier key, both keyed by the answer's method — the
// server never holds the owner's private key (the optional update path
// holds it by construction: re-signing roots is the owner's half, so
// /update only exists on owner-co-hosted daemons).
//
// A Server is immutable after construction and wiring (EnableUpdates /
// EnableSnapshot must run before it is shared); ServeHTTP is safe for any
// number of concurrent callers.
type Server struct {
	engine      *Engine
	verifierPEM []byte
	mux         *http.ServeMux
	deployment  *Deployment  // nil: updates disabled
	snapshotFn  SnapshotFunc // nil: snapshots disabled
}

// MaxBatch bounds one /batch request; larger batches are rejected with 400
// rather than letting one client monopolize the pool.
const MaxBatch = 4096

// MaxUpdateBatch bounds one /update request: each changed edge costs a
// network copy and row repair while holding the deployment's update
// mutex, so an unbounded batch could pin the owner pipeline for one
// caller.
const MaxUpdateBatch = 1024

// NewServer wraps an engine and the owner's public verifier (served to
// clients verbatim) into an http.Handler.
func NewServer(e *Engine, v *sig.Verifier) (*Server, error) {
	if e == nil {
		return nil, errors.New("serve: nil engine")
	}
	if v == nil {
		return nil, errors.New("serve: nil verifier")
	}
	pem, err := v.MarshalPEM()
	if err != nil {
		return nil, fmt.Errorf("serve: marshal verifier: %w", err)
	}
	s := &Server{engine: e, verifierPEM: pem, mux: http.NewServeMux()}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/batch", s.handleBatch)
	s.mux.HandleFunc("/verifier", s.handleVerifier)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/update", s.handleUpdate)
	s.mux.HandleFunc("/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return s, nil
}

// EnableUpdates wires the owner-side update pipeline into /update. Only
// call this on daemons that legitimately co-host the owner (cmd/spvserve
// with -updates); pure provider deployments leave it off and the endpoint
// answers 403.
func (s *Server) EnableUpdates(d *Deployment) { s.deployment = d }

// Engine returns the wrapped engine (for stats and direct use).
func (s *Server) Engine() *Engine { return s.engine }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// wireAnswer is the JSON reply for one answer; Proof travels as standard
// base64. Its tags define the layout appendAnswer writes by hand.
type wireAnswer struct {
	Method core.Method  `json:"method"`
	VS     graph.NodeID `json:"vs"`
	VT     graph.NodeID `json:"vt"`
	Dist   float64      `json:"dist,omitempty"`
	Hops   int          `json:"hops,omitempty"`
	Cached bool         `json:"cached"`
	Bytes  int          `json:"proof_bytes"`
	Proof  []byte       `json:"proof,omitempty"`
	Error  string       `json:"error,omitempty"`
	// pinned, when set, holds the proof in place of Proof: the cache
	// pages appendAnswer base64-encodes from.
	pinned pages
}

// toWire makes the JSON answer of r, which must stay unreleased until the
// answer is written.
func toWire(r *reply) wireAnswer {
	w := wireAnswer{
		Method: r.Query.Method,
		VS:     r.Query.VS,
		VT:     r.Query.VT,
		Dist:   r.Dist,
		Hops:   r.Hops,
		Cached: r.Cached,
		Bytes:  r.proofLen(),
		Proof:  r.Proof,
	}
	if r.pinned.ent != nil && r.pinned.ent.n > 0 {
		w.pinned = r.pinned
	}
	if r.Err != nil {
		w.Error = r.Err.Error()
	}
	return w
}

// parseQuery accepts either a JSON body {"method","vs","vt"} or the URL
// parameters ?method=&vs=&vt= in params, the request's parsed query
// string. An oversized body also marks w's connection for closing.
func parseQuery(w http.ResponseWriter, r *http.Request, params url.Values) (Query, error) {
	if r.Method == http.MethodPost {
		var q Query
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&q); err != nil {
			return Query{}, fmt.Errorf("bad query body: %w", err)
		}
		return q, nil
	}
	q := Query{Method: core.Method(params.Get("method"))}
	// NodeID is 32-bit: parse at that width so oversized ids are rejected
	// rather than silently truncated onto some other node.
	vs, err := strconv.ParseInt(params.Get("vs"), 10, 32)
	if err != nil {
		return Query{}, fmt.Errorf("bad vs: %w", err)
	}
	vt, err := strconv.ParseInt(params.Get("vt"), 10, 32)
	if err != nil {
		return Query{}, fmt.Errorf("bad vt: %w", err)
	}
	q.VS, q.VT = graph.NodeID(vs), graph.NodeID(vt)
	return q, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
		return
	}
	params := r.URL.Query() // once: each call parses the string into a new map
	q, err := parseQuery(w, r, params)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	budget, err := parseBudget(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	a := s.engine.queryReply(q, budget)
	defer a.release() // after the write: a hit reads its cache pages until then
	if a.Err != nil {
		writeQueryErr(w, a.Err)
		return
	}
	if params.Get("format") == "binary" || acceptsBinary(r.Header) {
		// Canonical keys (the casing Go puts on the wire anyway) skip a
		// re-canonicalising allocation per header.
		h := w.Header()
		h.Set("Content-Type", "application/octet-stream")
		h.Set("X-Spv-Method", string(a.Query.Method))
		h.Set("X-Spv-Dist", strconv.FormatFloat(a.Dist, 'g', -1, 64))
		h.Set("X-Spv-Hops", strconv.Itoa(a.Hops))
		h.Set("X-Spv-Cached", strconv.FormatBool(a.Cached))
		a.each(func(p []byte) { w.Write(p) })
		return
	}
	wa := toWire(&a)
	sendJSON(w, func(b []byte) ([]byte, error) { return appendAnswer(b, wa) })
}

// writeQueryErr answers a failed /query or a shed /batch. Shed under load:
// tell the client to back off briefly rather than hammer a saturated
// server.
func writeQueryErr(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrShed) {
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, err.Error(), statusFor(err))
}

// acceptsBinary reports whether the Accept header asks for the raw proof:
// application/octet-stream is listed with a non-zero q, at least as high as
// application/json's if that is listed too. Wildcard ranges alone keep the
// JSON default (curl and browsers send */*).
func acceptsBinary(h http.Header) bool {
	var binary, jsonQ float64
	for _, line := range h.Values("Accept") {
		for _, part := range strings.Split(line, ",") {
			mt, params, err := mime.ParseMediaType(part)
			if err != nil {
				continue
			}
			q := 1.0
			if v, ok := params["q"]; ok {
				if q, err = strconv.ParseFloat(v, 64); err != nil {
					continue
				}
			}
			switch mt {
			case "application/octet-stream":
				binary = max(binary, q)
			case "application/json":
				jsonQ = max(jsonQ, q)
			}
		}
	}
	return binary > 0 && binary >= jsonQ
}

// parseBudget reads the request's latency budget from the X-SPV-Budget
// header (a Go duration string, e.g. "50ms"). Absent or empty means "use
// the server default"; a non-positive value is rejected — a client that
// wants no deadline omits the header.
func parseBudget(r *http.Request) (time.Duration, error) {
	h := r.Header.Get("X-Spv-Budget") // canonical: Get need not rewrite the key
	if h == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(h)
	if err != nil {
		return 0, fmt.Errorf("bad X-SPV-Budget: %w", err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("bad X-SPV-Budget: %v is not positive", d)
	}
	return d, nil
}

// statusFor blames the right party: unknown methods and bad endpoints are
// the client's fault, disconnection is absence, shed requests are load
// (503: retryable, not a failure of the query itself), everything else is
// ours.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrShed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownMethod):
		return http.StatusNotFound
	case errors.Is(err, core.ErrBadQuery):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrNoPath):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}

// wireBatch is one proof blob in an "encoding":"shared" /batch reply: the
// method, the answer indexes the blob covers (in blob item order), and the
// core.ProofBatch wire bytes (standard base64). Clients decode with
// core.DecodeProofBatch and check with core.VerifyBatch.
type wireBatch struct {
	Method core.Method `json:"method"`
	Items  []int       `json:"items"`
	Bytes  int         `json:"batch_bytes"`
	Batch  []byte      `json:"batch"`
}

// batchReply is the /batch reply; appendBatchReply writes it by hand.
type batchReply struct {
	Answers []wireAnswer `json:"answers"`
	Batches []wireBatch  `json:"proof_batches,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		Queries []Query `json:"queries"`
		// Encoding selects the proof transport: "" (default) inlines one
		// standalone proof per answer — the original shape, old clients
		// unaffected — while "shared" moves proofs into per-method
		// proof_batches blobs, the same wires framed together with repeated
		// answers as backrefs (answers keep their metadata, proof field
		// empty).
		Encoding string `json:"encoding,omitempty"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<24)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad batch body: %v", err), http.StatusBadRequest)
		return
	}
	if req.Encoding != "" && req.Encoding != "shared" {
		http.Error(w, fmt.Sprintf("unknown batch encoding %q", req.Encoding), http.StatusBadRequest)
		return
	}
	if len(req.Queries) > MaxBatch {
		http.Error(w, fmt.Sprintf("batch of %d exceeds limit %d", len(req.Queries), MaxBatch),
			http.StatusBadRequest)
		return
	}
	budget, err := parseBudget(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	replies, err := s.engine.queryBatch(req.Queries, budget)
	defer func() {
		for i := range replies {
			replies[i].release()
		}
	}()
	if err != nil {
		writeQueryErr(w, err)
		return
	}
	out := batchReply{Answers: make([]wireAnswer, len(replies))}
	for i := range replies {
		out.Answers[i] = toWire(&replies[i])
	}
	if req.Encoding == "shared" {
		batches, err := shareProofs(out.Answers)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		out.Batches = batches
	}
	sendJSON(w, func(b []byte) ([]byte, error) { return appendBatchReply(b, out) })
}

// shareProofs regroups per-answer proof bytes into one batch blob per
// method, clearing the inlined proofs it absorbs (their proof_bytes still
// report the standalone size). The blob frames the answers' wire bytes as
// they are — nothing is decoded. Failed answers keep their original shape.
func shareProofs(answers []wireAnswer) ([]wireBatch, error) {
	var out []wireBatch
	var wires [][]core.WireItem // wires[k] is what out[k] frames
	slot := make(map[core.Method]int)
	for i, a := range answers {
		wire := a.Proof
		if a.pinned.ent != nil {
			wire = a.pinned.contiguous()
		}
		if a.Error != "" || len(wire) == 0 {
			continue
		}
		k, ok := slot[a.Method]
		if !ok {
			k = len(out)
			slot[a.Method] = k
			out = append(out, wireBatch{Method: a.Method})
			wires = append(wires, nil)
		}
		out[k].Items = append(out[k].Items, i)
		wires[k] = append(wires[k], core.WireItem{VS: a.VS, VT: a.VT, Wire: wire})
		answers[i].Proof, answers[i].pinned = nil, pages{}
	}
	for k := range out {
		blob, err := core.AppendWireBatch(nil, out[k].Method, wires[k])
		if err != nil {
			return nil, fmt.Errorf("serve: batch-encode %s proofs: %v", out[k].Method, err)
		}
		out[k].Bytes, out[k].Batch = len(blob), blob
	}
	return out, nil
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if s.deployment == nil {
		http.Error(w, "updates disabled on this server", http.StatusForbidden)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		Updates []core.EdgeUpdate `json:"updates"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<24)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad update body: %v", err), http.StatusBadRequest)
		return
	}
	if len(req.Updates) == 0 {
		http.Error(w, "empty update batch", http.StatusBadRequest)
		return
	}
	if len(req.Updates) > MaxUpdateBatch {
		http.Error(w, fmt.Sprintf("update batch of %d exceeds limit %d", len(req.Updates), MaxUpdateBatch),
			http.StatusBadRequest)
		return
	}
	sum, err := s.deployment.ApplyUpdates(req.Updates)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, graph.ErrBadEdge) {
			status = http.StatusBadRequest
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, sum)
}

func (s *Server) handleVerifier(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/x-pem-file")
	w.Write(s.verifierPEM)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, s.engine.Stats())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
