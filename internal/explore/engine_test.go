package explore

import (
	"sync"
	"testing"

	"promising/internal/core"
)

// TestSeenSetAddOnce checks that concurrent Adds of the same encoding
// admit exactly one winner per encoding, and that winners and losers agree
// on the interned handle.
func TestSeenSetAddOnce(t *testing.T) {
	s := newSeenSet()
	const keys = 1000
	const workers = 8
	wins := make([]int, workers)
	handles := make([][]core.Handle, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			handles[w] = make([]core.Handle, keys)
			for i := 0; i < keys; i++ {
				h, fresh := s.Add([]byte{byte(i), byte(i >> 8)})
				handles[w][i] = h
				if fresh {
					wins[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := 0; i < keys; i++ {
			if handles[w][i] != handles[0][i] {
				t.Fatalf("worker %d got handle %d for key %d, worker 0 got %d",
					w, handles[w][i], i, handles[0][i])
			}
		}
	}
	total := 0
	for _, n := range wins {
		total += n
	}
	if total != keys {
		t.Fatalf("got %d wins, want %d", total, keys)
	}
	if s.Len() != keys {
		t.Fatalf("Len() = %d, want %d", s.Len(), keys)
	}
}

// synthetic tree search: states are (depth, path) pairs; every node of a
// fixed fanout/depth tree is one state, leaves are outcomes.
type synthState struct {
	depth int
	path  int64
}

func synthEngine(fanout, depth int) (*Engine[synthState], *seenSet) {
	seen := newSeenSet()
	eng := &Engine[synthState]{}
	eng.Process = func(s synthState, c *Ctx[synthState]) {
		if !c.Visit(1) {
			return
		}
		if s.depth == depth {
			o := Outcome{Regs: []int64{s.path}}
			c.Res.add(o, nil)
			return
		}
		for i := 0; i < fanout; i++ {
			child := synthState{depth: s.depth + 1, path: s.path*int64(fanout) + int64(i)}
			b := make([]byte, 0, 16)
			b = append(b, byte(child.depth))
			for v := child.path; v > 0; v >>= 8 {
				b = append(b, byte(v))
			}
			if _, fresh := seen.Add(b); fresh {
				c.Push(child)
			}
		}
	}
	return eng, seen
}

// TestEngineDeterministicAcrossParallelism checks that outcome sets and
// state counts are schedule-independent.
func TestEngineDeterministicAcrossParallelism(t *testing.T) {
	const fanout, depth = 3, 7
	wantStates := 0
	for d, n := 0, 1; d <= depth; d, n = d+1, n*fanout {
		wantStates += n
	}
	wantOutcomes := 1
	for i := 0; i < depth; i++ {
		wantOutcomes *= fanout
	}

	for _, par := range []int{1, 2, 4, 8} {
		opts := DefaultOptions()
		opts.Parallelism = par
		eng, _ := synthEngine(fanout, depth)
		res, _ := eng.Run([]synthState{{}}, &opts)
		if res.States != wantStates {
			t.Errorf("par=%d: States = %d, want %d", par, res.States, wantStates)
		}
		if len(res.Outcomes) != wantOutcomes {
			t.Errorf("par=%d: %d outcomes, want %d", par, len(res.Outcomes), wantOutcomes)
		}
		if res.Aborted {
			t.Errorf("par=%d: unexpectedly aborted", par)
		}
	}
}

// TestEngineMaxStatesAborts checks the budget cut-off fires at every
// parallelism level.
func TestEngineMaxStatesAborts(t *testing.T) {
	for _, par := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Parallelism = par
		opts.MaxStates = 10
		eng, _ := synthEngine(4, 10)
		res, _ := eng.Run([]synthState{{}}, &opts)
		if !res.Aborted {
			t.Errorf("par=%d: want Aborted with MaxStates=10", par)
		}
		if res.States > 10+par {
			t.Errorf("par=%d: States = %d, far over the bound", par, res.States)
		}
	}
}

// TestEngineCheckpointDrains checks the cooperative checkpoint at the
// engine level: a NewCheckpointAfter trigger stops the run at a safe
// point with the unprocessed frontier returned intact, and re-seeding the
// engine with that frontier completes the exploration with exactly the
// states and outcomes of an uninterrupted run.
func TestEngineCheckpointDrains(t *testing.T) {
	const fanout, depth = 3, 7
	wantStates := 0
	for d, n := 0, 1; d <= depth; d, n = d+1, n*fanout {
		wantStates += n
	}
	wantOutcomes := 1
	for i := 0; i < depth; i++ {
		wantOutcomes *= fanout
	}

	for _, par := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Parallelism = par
		opts.Checkpoint = NewCheckpointAfter(wantStates / 3)
		eng, seen := synthEngine(fanout, depth)
		res, pending := eng.Run([]synthState{{}}, &opts)
		if res.Aborted {
			t.Fatalf("par=%d: checkpoint must not abort", par)
		}
		if len(pending) == 0 {
			t.Fatalf("par=%d: no pending frontier from a mid-run checkpoint", par)
		}
		if res.States >= wantStates {
			t.Fatalf("par=%d: checkpointed run explored everything (%d states)", par, res.States)
		}

		// Resume: the same seen set (shared via synthEngine's closure)
		// plus the drained frontier must finish the job exactly.
		opts2 := DefaultOptions()
		opts2.Parallelism = par
		res2, pending2 := eng.ResumeRun(pending, &opts2, res.States)
		if len(pending2) != 0 {
			t.Fatalf("par=%d: resumed run left %d pending states", par, len(pending2))
		}
		if got := res.States + res2.States; got != wantStates {
			t.Errorf("par=%d: checkpoint+resume States = %d, want %d", par, got, wantStates)
		}
		if got := len(res.Outcomes) + len(res2.Outcomes); got != wantOutcomes {
			// Outcome sets of the two legs are disjoint (each leaf is
			// processed exactly once thanks to the dedup set).
			t.Errorf("par=%d: checkpoint+resume outcomes = %d, want %d", par, got, wantOutcomes)
		}
		_ = seen
	}
}

// TestEngineExplicitCheckpoint checks Engine.Checkpoint (the method) from
// a concurrent goroutine: the run stops without losing work.
func TestEngineExplicitCheckpoint(t *testing.T) {
	opts := DefaultOptions()
	opts.Parallelism = 2
	opts.Checkpoint = NewCheckpoint()
	eng, _ := synthEngine(4, 9)
	done := make(chan struct{})
	go func() {
		defer close(done)
		eng.Checkpoint() // may land before, during or after the run
	}()
	res, pending := eng.Run([]synthState{{}}, &opts)
	<-done
	total := res.States
	for len(pending) > 0 {
		o := DefaultOptions()
		o.Parallelism = 2
		var r2 *Result
		r2, pending = eng.ResumeRun(pending, &o, total)
		total += r2.States
	}
	wantStates := 0
	for d, n := 0, 1; d <= 9; d, n = d+1, n*4 {
		wantStates += n
	}
	if total != wantStates {
		t.Errorf("States after checkpoint+resume = %d, want %d", total, wantStates)
	}
}

// TestWorkersResolution pins the Parallelism -> worker-count mapping.
func TestWorkersResolution(t *testing.T) {
	for _, tc := range []struct{ par, min int }{{0, 1}, {1, 1}, {7, 7}} {
		o := Options{Parallelism: tc.par}
		if got := o.Workers(); got != tc.min {
			t.Errorf("Parallelism %d: Workers() = %d, want %d", tc.par, got, tc.min)
		}
	}
	o := Options{Parallelism: -1}
	if got := o.Workers(); got < 1 {
		t.Errorf("Parallelism -1: Workers() = %d, want >= 1", got)
	}
}
