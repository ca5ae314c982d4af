package serve

import (
	"fmt"
	"sync"
	"time"

	"github.com/authhints/spv/internal/cert"
	"github.com/authhints/spv/internal/core"
)

// Deployment couples an owner, its outsourced providers and a serving
// engine into the live system the paper's deployment model implies: the
// owner applies edge-weight updates, each registered provider is patched
// incrementally (dirty rows re-run, dirty Merkle paths rehashed, roots
// re-signed), and the engine hot-swaps to the patched providers while
// queries keep flowing. One Deployment serializes its updates; queries
// never block on them. All method dispatch goes through the core method
// registry — the deployment itself never enumerates methods.
type Deployment struct {
	mu     sync.Mutex // serializes ApplyUpdates (owner mutation + swaps)
	owner  *core.Owner
	engine *Engine

	provs map[core.Method]core.Provider
	// cert, when non-nil, is the deployment's snapshot certificate.
	// Certify issues it; ApplyUpdates marks it stale (a certificate binds
	// one epoch's labellings and roots); Certificate and Save re-issue
	// lazily on demand. Deferring the re-issue keeps the full-wire
	// re-sign (~the cost of certifying every method) off the update
	// critical path — at high update rates it was the dominant
	// contributor to query tail latency — while preserving the external
	// contract: every observed certificate and every saved snapshot
	// matches the served epoch.
	cert      *cert.Certificate
	certStale bool
}

// NewDeployment outsources each requested method from the owner, registers
// the providers on a fresh engine, and returns the update-capable bundle.
// With no methods given it serves every registered method (note FULL's
// quadratic pre-computation).
func NewDeployment(o *core.Owner, opts Options, methods ...core.Method) (*Deployment, error) {
	if len(methods) == 0 {
		methods = core.RegisteredMethods()
	}
	d := &Deployment{
		owner:  o,
		engine: NewEngine(opts),
		provs:  make(map[core.Method]core.Provider, len(methods)),
	}
	for _, m := range methods {
		p, err := o.Outsource(m)
		if err != nil {
			return nil, fmt.Errorf("serve: outsource %s: %w", m, err)
		}
		d.provs[m] = p
		d.engine.Register(p)
	}
	return d, nil
}

// Engine returns the serving engine (share it with servers and clients).
func (d *Deployment) Engine() *Engine { return d.engine }

// Owner returns the data owner behind this deployment.
func (d *Deployment) Owner() *core.Owner { return d.owner }

// Methods lists the deployment's served methods in the registry's
// canonical order.
func (d *Deployment) Methods() []core.Method {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.methodsLocked()
}

func (d *Deployment) methodsLocked() []core.Method {
	var out []core.Method
	for _, m := range core.RegisteredMethods() {
		if d.provs[m] != nil {
			out = append(out, m)
		}
	}
	return out
}

// Certify issues a snapshot certificate covering every served method at
// the deployment's current epoch and retains it: subsequent Saves embed
// it, and update batches mark it stale so the next Certificate or Save
// re-issues against the served epoch. Returns the certificate (callers
// may also ship it out of band).
func (d *Deployment) Certify() (*cert.Certificate, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.certifyLocked()
}

func (d *Deployment) certifyLocked() (*cert.Certificate, error) {
	provs := make([]core.Provider, 0, len(d.provs))
	for _, m := range d.methodsLocked() {
		provs = append(provs, d.provs[m])
	}
	c, err := d.owner.Certify(provs...)
	if err != nil {
		return nil, fmt.Errorf("serve: certify: %w", err)
	}
	d.cert = c
	d.certStale = false
	return c, nil
}

// freshCertLocked returns the held certificate, re-issuing it first when
// updates have made it stale — the lazy half of the certification
// contract (issue on demand, never serve a stale one).
func (d *Deployment) freshCertLocked() (*cert.Certificate, error) {
	if d.cert != nil && d.certStale {
		return d.certifyLocked()
	}
	return d.cert, nil
}

// Certificate returns the deployment's snapshot certificate at the
// served epoch (re-issuing if updates landed since the last issue), or
// nil if Certify has not been called. A re-issue failure returns the
// stale certificate rather than nothing — its epoch field makes the
// staleness visible to any audit.
func (d *Deployment) Certificate() *cert.Certificate {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, err := d.freshCertLocked()
	if err != nil {
		return d.cert
	}
	return c
}

// UpdateSummary reports what one ApplyUpdates batch did across the owner
// and every registered provider.
type UpdateSummary struct {
	// Epoch is the owner's update-batch counter after this batch.
	Epoch int64 `json:"epoch"`
	// RowsRecomputed totals the distance rows the patches rewrote.
	RowsRecomputed int `json:"rows_recomputed"`
	// NodesResettled totals the nodes row repair re-settled.
	NodesResettled int `json:"nodes_resettled"`
	// LeavesPatched totals network-ADS leaves rewritten across providers;
	// DistLeavesPatched the distance-ADS leaves (FULL rows, HYP entries).
	LeavesPatched     int `json:"leaves_patched"`
	DistLeavesPatched int `json:"dist_leaves_patched"`
	// Duration is the end-to-end batch latency: re-weighting, patches and
	// swaps.
	Duration time.Duration `json:"duration_ns"`
}

// ApplyUpdates applies a batch of edge re-weightings end to end: mutate
// the owner's network, patch every registered provider incrementally (in
// the registry's canonical order), and hot-swap the engine. It is all or
// nothing. Patching is copy-on-write, so every method is patched before any
// is swapped: on success every served proof reflects the updated network,
// and on any error nothing was swapped and the owner is rolled back — graph,
// providers, cache, certificate and epoch are exactly as they were.
func (d *Deployment) ApplyUpdates(ups []core.EdgeUpdate) (UpdateSummary, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	start := time.Now()
	methods := d.methodsLocked()
	for _, m := range methods {
		if _, ok := d.engine.run[m]; !ok {
			return UpdateSummary{}, fmt.Errorf("serve: engine has no slot to swap: %w %q", ErrUnknownMethod, m)
		}
	}
	batch, err := d.owner.ApplyUpdates(ups)
	if err != nil {
		return UpdateSummary{}, err
	}
	sum := UpdateSummary{Epoch: batch.Epoch()}
	if len(batch.DirtyNodes()) == 0 {
		// Every update was a no-op: no provider state can have moved, so
		// skip the patches, swaps and epoch bump entirely.
		sum.Duration = time.Since(start)
		return sum, nil
	}
	patched := make([]core.Provider, len(methods))
	stats := make([]*core.PatchStats, len(methods))
	for i, m := range methods {
		if patched[i], stats[i], err = batch.Patch(d.provs[m]); err != nil {
			batch.Rollback()
			return UpdateSummary{}, fmt.Errorf("serve: patch %s: %w", m, err)
		}
	}
	for i, m := range methods {
		d.provs[m] = patched[i]
		if err := d.engine.Swap(patched[i], stats[i]); err != nil {
			return sum, err // unreachable: every slot was checked above
		}
		sum.RowsRecomputed += stats[i].RowsRecomputed
		sum.NodesResettled += stats[i].NodesResettled
		sum.LeavesPatched += stats[i].LeavesPatched
		sum.DistLeavesPatched += stats[i].DistLeavesPatched
	}
	if d.cert != nil {
		// A certificate binds one epoch's labellings and roots; the
		// pre-batch one no longer matches what is served. Mark it stale and
		// let the next Certificate or Save re-issue: certification costs a
		// full-wire re-sign, and paying it inside every update batch was
		// the dominant source of query tail latency under mixed load.
		d.certStale = true
	}
	sum.Duration = time.Since(start)
	d.engine.NoteUpdate(sum.Duration, sum.LeavesPatched)
	return sum, nil
}
