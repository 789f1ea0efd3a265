package main

// The output oracle. A job's result is checked against its input's ground
// truth (planted SNVs, proteins with spectra, planted cells, planted
// modules, record counts) and against the digest of the first result the
// run saw for the same input, so a wrong or non-deterministic answer
// counts as a failed op, never as a fast one.

import (
	"fmt"

	"scan/internal/rpc"
)

// resultDigest renders the output fields of a result that must not depend
// on timing, scheduling or shard plan.
func resultDigest(r *rpc.JobResult) string {
	return fmt.Sprintf("mapped=%d reads=%d records=%d variants=%d features=%d proteins=%d nodes=%d edges=%d modules=%d recovered=%d planted=%d",
		r.Mapped, r.TotalReads, r.TotalRecords, r.Variants, r.Features, r.Proteins,
		r.Nodes, r.Edges, r.Modules, r.Recovered, r.Planted)
}

// verify checks one finished job against the oracle.
func (t *tally) verify(o op, job rpc.Job) error {
	if job.State != rpc.StateDone || job.Result == nil {
		return fmt.Errorf("job %d ended %s: %+v", job.ID, job.State, job.Error)
	}
	r, w := job.Result, o.want
	if w.records > 0 && r.TotalRecords != w.records {
		return fmt.Errorf("job %d processed %d records, input has %d", job.ID, r.TotalRecords, w.records)
	}
	if w.snvs > 0 {
		// Over HTTP a dataset job reports the call count, not the calls;
		// with no false positives at this depth the count is the recall.
		// Daemon-generated inputs report recall directly.
		found := r.Variants
		if r.Planted > 0 {
			found = r.Recovered
		}
		if float64(found) < 0.9*float64(w.snvs) || r.Variants > w.snvs+w.snvs/10+1 {
			return fmt.Errorf("job %d found %d of %d planted SNVs (%d calls)", job.ID, found, w.snvs, r.Variants)
		}
	}
	if w.records > 0 && r.TotalReads > 0 && float64(r.Mapped) < 0.95*float64(r.TotalReads) {
		return fmt.Errorf("job %d mapped %d of %d reads", job.ID, r.Mapped, r.TotalReads)
	}
	if w.proteins > 0 && r.Proteins != w.proteins {
		return fmt.Errorf("job %d identified %d proteins, %d have spectra", job.ID, r.Proteins, w.proteins)
	}
	if w.cells > 0 && r.Features != w.cells {
		return fmt.Errorf("job %d segmented %d cells, %d planted", job.ID, r.Features, w.cells)
	}
	if w.modules > 0 && r.Modules != w.modules {
		return fmt.Errorf("job %d found %d modules, %d planted", job.ID, r.Modules, w.modules)
	}
	digest := resultDigest(r)
	t.mu.Lock()
	first, seen := t.digests[o.key]
	if !seen {
		t.digests[o.key] = digest
	}
	t.mu.Unlock()
	if seen && first != digest {
		return fmt.Errorf("job %d is not deterministic for input %s: %s, first %s", job.ID, o.key, digest, first)
	}
	return nil
}
