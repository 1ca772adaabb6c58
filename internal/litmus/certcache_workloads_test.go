package litmus_test

import (
	"testing"

	"promising/internal/explore"
	"promising/internal/lang"
	"promising/internal/litmus"
	"promising/internal/workloads"
)

// TestCertCacheEquivalenceWorkloads is the workload-scale arm of the
// cert-cache differential suite (TestCertCacheEquivalenceCatalog covers
// the catalog): promise-first's unified certify+complete walk must
// produce the outcome sets, state counts and bound flags of the two-pass
// PromiseFirstReference, sequentially and in parallel.
func TestCertCacheEquivalenceWorkloads(t *testing.T) {
	for _, id := range []string{"SLA-2", "SLC-1", "PCS-1-1", "STC-100-010-000", "DQ-100-1-0"} {
		in, err := workloads.ParseID(lang.ARM, id)
		if err != nil {
			t.Fatal(err)
		}
		opts := explore.DefaultOptions()
		opts.Reductions = explore.ReduceOff
		ref, err := litmus.Run(in.Test, litmus.PromiseFirstReference, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2} {
			opts.Parallelism = par
			v, err := litmus.Run(in.Test, explore.PromiseFirst, opts)
			if err != nil {
				t.Fatal(err)
			}
			if v.Result.BoundExceeded != ref.Result.BoundExceeded {
				t.Errorf("%s par=%d: BoundExceeded = %v, reference %v", id, par,
					v.Result.BoundExceeded, ref.Result.BoundExceeded)
			}
			if !explore.SameOutcomes(v.Result, ref.Result) {
				t.Errorf("%s par=%d: outcome set differs from the reference (%d vs %d outcomes)", id, par,
					len(v.Result.Outcomes), len(ref.Result.Outcomes))
			}
			if v.Result.States != ref.Result.States {
				t.Errorf("%s par=%d: States = %d, reference %d", id, par, v.Result.States, ref.Result.States)
			}
		}
	}
}
