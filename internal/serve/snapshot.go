package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/sig"
)

// This file is the serving layer's half of the persistence story: a
// Deployment saves its complete state (owner graph/config/epoch + all
// patched providers) into one snapshot, and either a full Deployment
// (owner key in hand, updates continue) or a bare replica Engine (public
// material only) boots from that file — the publish-once / replicate-many
// shape of distributed authenticated dictionaries.

// EngineFromSet wraps an already-loaded provider set in a query engine:
// every present method is registered and the engine's epoch counter is
// seeded from the snapshot's, so /stats on a replica reports the data
// epoch it serves. The returned engine is ready to share across
// goroutines; the set's providers are immutable, so any number of
// replicas may be built from one loaded set.
func EngineFromSet(set *core.ProviderSet, opts Options) *Engine {
	e := NewEngine(opts)
	for _, m := range set.Methods() {
		e.Register(set.Provider(m))
	}
	e.seedEpoch(set.Epoch)
	return e
}

// Save serializes the deployment — owner graph, config, epoch and every
// currently served provider — into w, returning the bytes written. Save
// holds the update mutex, so the snapshot is a consistent cut: it never
// interleaves with an ApplyUpdates batch, and the epoch it records is
// exactly the one the next batch continues from. Queries keep flowing
// while Save runs (they never take this mutex).
func (d *Deployment) Save(w io.Writer) (int64, error) {
	n, _, err := d.save(w)
	return n, err
}

// save is Save plus the epoch of the cut, read under the same mutex hold
// so callers reporting both never mix two generations. A certificate made
// stale by updates is re-issued here — every saved snapshot embeds a
// certificate at exactly the epoch it records.
func (d *Deployment) save(w io.Writer) (bytes, epoch int64, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, err := d.freshCertLocked()
	if err != nil {
		return 0, 0, err
	}
	provs := make([]core.Provider, 0, len(d.provs))
	for _, m := range d.methodsLocked() {
		provs = append(provs, d.provs[m])
	}
	bytes, err = d.owner.WriteSnapshotCert(w, c, provs...)
	return bytes, d.owner.Epoch(), err
}

// LoadDeployment reconstructs an update-capable deployment from a
// snapshot (size bytes behind ra, loaded eagerly — every method gets
// patched) and the owner's persisted private key: providers are
// rehydrated without recomputing a hash, the owner resumes at the
// snapshot's epoch, and subsequent ApplyUpdates batches continue the
// sequence exactly as if the process had never restarted (pinned by
// TestDeploymentSnapshotEpochContinuity). The signer's public half must
// match the snapshot's embedded verifier — a mismatched key is rejected
// up front, because roots it re-signed would be garbage to every client
// that bootstrapped from the original owner.
func LoadDeployment(ra io.ReaderAt, size int64, signer *sig.Signer, opts Options) (*Deployment, error) {
	if signer == nil {
		return nil, errors.New("serve: load deployment needs the owner key (use EngineFromSet for key-less replicas)")
	}
	set, err := core.ReadProviderSet(ra, size)
	if err != nil {
		return nil, err
	}
	if !signer.Verifier().Equal(set.Verifier) {
		return nil, errors.New("serve: owner key does not match the snapshot's verifier")
	}
	owner, err := set.RestoreOwner(signer)
	if err != nil {
		return nil, err
	}
	provs := make(map[core.Method]core.Provider, 4)
	for _, m := range set.Methods() {
		provs[m] = set.Provider(m)
	}
	// Adopt the snapshot's certificate, if any: a restarted owner keeps
	// re-issuing per epoch and re-embedding on Save, so certification
	// survives process restarts.
	c, err := set.Certificate()
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot certificate: %w", err)
	}
	return &Deployment{
		owner:  owner,
		engine: EngineFromSet(set, opts),
		provs:  provs,
		cert:   c,
	}, nil
}

// FileSnapshot returns a SnapshotFunc that saves d to path atomically:
// the snapshot streams to path+".tmp" and renames into place only after a
// clean Close, so readers (replicas rsyncing the file, spvsnap audits)
// never observe a torn snapshot. Safe for concurrent use — each call
// takes its own consistent cut via Deployment.Save.
func FileSnapshot(d *Deployment, path string) SnapshotFunc {
	return func() (SnapshotResult, error) {
		start := time.Now()
		// A private temp name per call: concurrent saves must not truncate
		// each other's in-flight file, or a rename could install torn bytes.
		f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
		if err != nil {
			return SnapshotResult{}, err
		}
		tmp := f.Name()
		// CreateTemp's 0600 would survive the rename, but snapshots carry
		// only public material and exist to be rsynced by replicas and
		// auditors — publish world-readable like any build artifact.
		if err := f.Chmod(0o644); err != nil {
			f.Close()
			os.Remove(tmp)
			return SnapshotResult{}, err
		}
		n, epoch, err := d.save(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(tmp)
			return SnapshotResult{}, err
		}
		if err := os.Rename(tmp, path); err != nil {
			os.Remove(tmp)
			return SnapshotResult{}, err
		}
		return SnapshotResult{
			Path:     path,
			Bytes:    n,
			Epoch:    epoch,
			Duration: time.Since(start),
		}, nil
	}
}

// SnapshotResult reports one completed snapshot save — the HTTP admin
// endpoint's reply and the operator log line.
type SnapshotResult struct {
	// Path is where the snapshot landed.
	Path string `json:"path"`
	// Bytes is the file size written.
	Bytes int64 `json:"bytes"`
	// Epoch is the update epoch the snapshot captured.
	Epoch int64 `json:"epoch"`
	// Duration is the end-to-end save latency.
	Duration time.Duration `json:"duration_ns"`
}

// SnapshotFunc performs one snapshot save. Implementations must be safe
// for concurrent use — the HTTP layer imposes no serialization beyond
// what the implementation provides (Deployment.Save serializes against
// updates internally).
type SnapshotFunc func() (SnapshotResult, error)

// EnableSnapshot wires fn into POST /snapshot. Like EnableUpdates, call
// before the server is shared; daemons without a snapshot path leave it
// off and the endpoint answers 403.
func (s *Server) EnableSnapshot(fn SnapshotFunc) { s.snapshotFn = fn }

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.snapshotFn == nil {
		http.Error(w, "snapshots disabled on this server", http.StatusForbidden)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	res, err := s.snapshotFn()
	if err != nil {
		http.Error(w, fmt.Sprintf("snapshot failed: %v", err), http.StatusInternalServerError)
		return
	}
	writeJSON(w, res)
}
