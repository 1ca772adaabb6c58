package litmus

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"promising/internal/explore"
	"promising/internal/flat"
)

var updateCounters = flag.Bool("update", false, "rewrite testdata/machine_counters.golden from the current explorers")

const countersGolden = "testdata/machine_counters.golden"

// TestMachineCounterPins pins the deterministic counters of the two
// interleaving explorers (naive and flat) at Parallelism 1: per cell, a
// hash of the sorted outcome keys, States, Interned, DeadEnds,
// PrunedStates, SymmetryHits and BoundExceeded. Outcome equality alone
// does not show that the reduced search visits the same states; these
// counters do, so a refactor of the interleaving loop must leave the
// golden file byte-identical. Regenerate with
//
//	go test ./internal/litmus/ -run TestMachineCounterPins -update
//
// Cells: every catalog test under both backends with default reductions
// and with reductions off, plus SYM-4 in both modes and SYM-5 with
// reductions on (unreduced SYM-5 exceeds flat's state budget and takes
// naive over a minute).
func TestMachineCounterPins(t *testing.T) {
	type cell struct {
		tst  *Test
		mode explore.ReductionMode
	}
	var cells []cell
	for _, tst := range Catalog() {
		cells = append(cells, cell{tst, explore.ReduceOn}, cell{tst, explore.ReduceOff})
	}
	sym4 := symRow(t, 4)
	cells = append(cells, cell{sym4, explore.ReduceOn}, cell{sym4, explore.ReduceOff}, cell{symRow(t, 5), explore.ReduceOn})

	var b strings.Builder
	for _, c := range cells {
		for _, br := range []struct {
			name string
			run  Runner
		}{{"naive", explore.Naive}, {"flat", flat.Explore}} {
			opts := explore.DefaultOptions()
			opts.Parallelism = 1
			opts.Reductions = c.mode
			v, err := Run(c.tst, br.run, opts)
			if err != nil {
				t.Fatalf("%s/%s/%v: %v", c.tst.Name(), br.name, c.mode, err)
			}
			r := v.Result
			sum := sha256.Sum256([]byte(strings.Join(outcomeKeys(r), "\n")))
			fmt.Fprintf(&b, "%s/%s/%v outcomes=%s states=%d interned=%d deadends=%d pruned=%d symhits=%d bound=%t\n",
				c.tst.Name(), br.name, c.mode, hex.EncodeToString(sum[:8]),
				r.States, r.Stats.Interned, r.DeadEnds, r.Stats.PrunedStates, r.Stats.SymmetryHits, r.BoundExceeded)
		}
	}
	got := b.String()
	if *updateCounters {
		if err := os.MkdirAll(filepath.Dir(countersGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(countersGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(countersGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	have := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(want) != len(have) {
		t.Errorf("golden has %d cells, run produced %d", len(want), len(have))
	}
	for i := 0; i < len(want) && i < len(have); i++ {
		if want[i] != have[i] {
			t.Errorf("counter pin differs:\n got: %s\nwant: %s", have[i], want[i])
		}
	}
}
