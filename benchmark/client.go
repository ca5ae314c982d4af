package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	spv "github.com/authhints/spv"
)

// Failure classes of one attempted operation. Every class counts against
// `attempted`; errRejected and errMismatch also mean the program under
// test produced a wrong output, which fails the run.
var (
	errTransport = errors.New("transport error")
	errStatus    = errors.New("non-200 status")
	errShed      = errors.New("shed (503)")
	errRejected  = errors.New("proof rejected")
	errMismatch  = errors.New("distance differs from ground truth")
)

// client is one full verifying client on one keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	v    *spv.Verifier
	// checkDist holds every verified distance against the pool's ground
	// truth; off only where updates move the weights under the pool.
	checkDist bool
}

func newClient(base string, v *spv.Verifier, checkDist bool) *client {
	return &client{
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
		base:      base,
		v:         v,
		checkDist: checkDist,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// wireAnswer is the part of the daemon's JSON answer a client reads; the
// proof arrives base64-encoded.
type wireAnswer struct {
	Proof []byte `json:"proof"`
	Error string `json:"error"`
}

func queryURL(base string, k key) string {
	return fmt.Sprintf("%s/query?method=%s&vs=%d&vt=%d", base, k.method, k.q.S, k.q.T)
}

// do sends req and returns the response body, classifying failures.
func (c *client) do(req *http.Request) ([]byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errTransport, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errTransport, err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return body, nil
	case http.StatusServiceUnavailable:
		return nil, errShed
	default:
		return nil, fmt.Errorf("%w: %d %s", errStatus, resp.StatusCode, bytes.TrimSpace(body))
	}
}

func (c *client) get(url string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return c.do(req)
}

func (c *client) post(path string, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req)
}

// fetch asks the daemon for k's proof and returns the raw response body
// and the decoded answer, unverified.
func (c *client) fetch(k key) ([]byte, wireAnswer, error) {
	var a wireAnswer
	body, err := c.get(queryURL(c.base, k))
	if err != nil {
		return nil, a, err
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, a, fmt.Errorf("%w: bad JSON answer: %v", errRejected, err)
	}
	return body, a, nil
}

// verify is the client half of a verified answer: decode the wire, check
// the proof against the owner's key, and hold the proven distance against
// the pool's ground truth.
func (c *client) verify(k key, wire []byte) error {
	pr, n, err := spv.DecodeProof(k.method, wire)
	if err != nil || n != len(wire) {
		return fmt.Errorf("%w: decode %s %d→%d: consumed %d of %d bytes: %v",
			errRejected, k.method, k.q.S, k.q.T, n, len(wire), err)
	}
	if err := spv.VerifyProof(c.v, k.method, k.q.S, k.q.T, pr); err != nil {
		return fmt.Errorf("%w: %s %d→%d: %v", errRejected, k.method, k.q.S, k.q.T, err)
	}
	if c.checkDist {
		if _, dist := pr.Result(); !sameDist(dist, k.q.Dist) {
			return fmt.Errorf("%w: %s %d→%d: proven %v, truth %v",
				errMismatch, k.method, k.q.S, k.q.T, dist, k.q.Dist)
		}
	}
	return nil
}

func sameDist(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Abs(want)
}

// query returns one verified answer's response size.
func (c *client) query(k key) (bodyBytes int, err error) {
	body, a, err := c.fetch(k)
	if err != nil {
		return 0, err
	}
	return len(body), c.verify(k, a.Proof)
}

// batchRequest and batchReply are the /batch wire shapes with the shared
// proof encoding: answers keep their metadata and the proofs travel in
// one blob per method.
type batchRequest struct {
	Queries  []spv.ServeQuery `json:"queries"`
	Encoding string           `json:"encoding"`
}

type batchReply struct {
	Answers []wireAnswer `json:"answers"`
	Batches []proofBlob  `json:"proof_batches"`
}

type proofBlob struct {
	Method spv.Method `json:"method"`
	Items  []int      `json:"items"`
	Batch  []byte     `json:"batch"`
}

// fetchBatch posts ks as one shared-encoding batch, unverified.
func (c *client) fetchBatch(ks []key) ([]byte, batchReply, error) {
	req := batchRequest{Encoding: "shared", Queries: make([]spv.ServeQuery, len(ks))}
	for i, k := range ks {
		req.Queries[i] = spv.ServeQuery{Method: k.method, VS: k.q.S, VT: k.q.T}
	}
	var rep batchReply
	body, err := c.post("/batch", req)
	if err != nil {
		return nil, rep, err
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, rep, fmt.Errorf("%w: bad JSON batch reply: %v", errRejected, err)
	}
	return body, rep, nil
}

// verifyBatch batch-verifies every blob of a reply and requires the blobs
// to cover each of the ks exactly once. Endpoints come from the request,
// never from the reply: a blob proving some other pair must not pass.
func (c *client) verifyBatch(ks []key, rep batchReply) error {
	if len(rep.Answers) != len(ks) {
		return fmt.Errorf("%w: %d answers for %d queries", errRejected, len(rep.Answers), len(ks))
	}
	for i, a := range rep.Answers {
		if a.Error != "" {
			return fmt.Errorf("%w: batch item %d: %s", errStatus, i, a.Error)
		}
	}
	covered := make([]bool, len(ks))
	for _, b := range rep.Batches {
		pb, n, err := spv.DecodeProofBatch(b.Batch)
		if err != nil || n != len(b.Batch) {
			return fmt.Errorf("%w: %s blob: consumed %d of %d bytes: %v", errRejected, b.Method, n, len(b.Batch), err)
		}
		if pb.Method != b.Method || pb.Len() != len(b.Items) {
			return fmt.Errorf("%w: %s blob holds %d %s items for %d indexes",
				errRejected, b.Method, pb.Len(), pb.Method, len(b.Items))
		}
		items := make([]spv.BatchItem, len(b.Items))
		for j, idx := range b.Items {
			if idx < 0 || idx >= len(ks) || covered[idx] || ks[idx].method != b.Method {
				return fmt.Errorf("%w: %s blob names answer %d", errRejected, b.Method, idx)
			}
			covered[idx] = true
			items[j] = spv.BatchItem{VS: ks[idx].q.S, VT: ks[idx].q.T, Proof: pb.Items()[j].Proof}
		}
		for j, err := range spv.VerifyBatch(c.v, b.Method, items) {
			if err != nil {
				return fmt.Errorf("%w: %s blob item %d: %v", errRejected, b.Method, j, err)
			}
			if _, dist := items[j].Proof.Result(); c.checkDist && !sameDist(dist, ks[b.Items[j]].q.Dist) {
				return fmt.Errorf("%w: %s blob item %d", errMismatch, b.Method, j)
			}
		}
	}
	for i, ok := range covered {
		if !ok {
			return fmt.Errorf("%w: no blob covers answer %d", errRejected, i)
		}
	}
	return nil
}

// batch returns one verified batch's response size.
func (c *client) batch(ks []key) (bodyBytes int, err error) {
	body, rep, err := c.fetchBatch(ks)
	if err != nil {
		return 0, err
	}
	return len(body), c.verifyBatch(ks, rep)
}

// update posts one owner-side re-weighting and returns once the daemon
// has hot-swapped to the new epoch.
func (c *client) update(ups []spv.EdgeUpdate) error {
	_, err := c.post("/update", struct {
		Updates []spv.EdgeUpdate `json:"updates"`
	}{ups})
	return err
}

// tamperGate proves the verifier can say no before any timing starts: it
// fetches n single proofs (and, with batches, n/8 shared blobs), flips one
// byte in the middle of each — inside the hashed tuple and digest region,
// never a trailing float whose low bits sit under the distance tolerance —
// and requires every one to be rejected. The untouched originals must
// verify, ground truth included, which also catches a pool built on a
// world other than the daemon's.
func (c *client) tamperGate(pool []spv.Query, n int, batches bool) error {
	for i := 0; i < n; i++ {
		k := keyAt(pool, i)
		_, a, err := c.fetch(k)
		if err != nil {
			return fmt.Errorf("gate: %w", err)
		}
		if err := c.verify(k, a.Proof); err != nil {
			return fmt.Errorf("gate: untouched proof: %w", err)
		}
		a.Proof[len(a.Proof)/2+i] ^= 0xFF
		if err := c.verify(k, a.Proof); !errors.Is(err, errRejected) {
			return fmt.Errorf("gate: %s %d→%d: proof with byte %d flipped was not rejected (verify said: %v)",
				k.method, k.q.S, k.q.T, len(a.Proof)/2+i, err)
		}
	}
	if !batches {
		return nil
	}
	for b := 0; b < n/batchSize; b++ {
		ks := make([]key, batchSize)
		for j := range ks {
			ks[j] = keyAt(pool, b*batchSize+j)
		}
		_, rep, err := c.fetchBatch(ks)
		if err != nil {
			return fmt.Errorf("gate: %w", err)
		}
		if err := c.verifyBatch(ks, rep); err != nil {
			return fmt.Errorf("gate: untouched batch: %w", err)
		}
		for bi := range rep.Batches {
			blob := rep.Batches[bi].Batch
			blob[len(blob)/2] ^= 0xFF
			if err := c.verifyBatch(ks, rep); !errors.Is(err, errRejected) {
				return fmt.Errorf("gate: %s blob with byte %d flipped was not rejected (verify said: %v)",
					rep.Batches[bi].Method, len(blob)/2, err)
			}
			blob[len(blob)/2] ^= 0xFF
		}
	}
	return nil
}
