package promising_test

// Benchmark harness: one testing.B benchmark per evaluation artifact.
//
//   - BenchmarkTable1Inventory reports the Table 1 metrics.
//   - BenchmarkTable2_* / BenchmarkFlat_* time the Promising and Flat
//     backends on (scaled-down) Table 2/3 rows; cmd/bench prints the full
//     tables with the paper's reference numbers side by side.
//   - BenchmarkHerd_* are the §8 herd-comparison rows on the axiomatic
//     backend.
//   - BenchmarkAblation* quantify the design choices: promise-first vs
//     naive interleaving (Theorem 7.1 as a speed-up), and the §7
//     shared-location optimisation.
//   - BenchmarkSymmetrySYM5* time thread-symmetry canonicalization on the
//     naive and flat backends, with allocations.
//
// Run with: go test -bench=. -benchmem

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"promising"
	"promising/internal/explore"
	"promising/internal/lang"
	"promising/internal/litmus"
	"promising/internal/workloads"
)

// benchInstance runs one workload instance to completion under a backend.
func benchInstance(b *testing.B, id string, backend promising.Backend) {
	b.Helper()
	in, err := workloads.ParseID(lang.ARM, id)
	if err != nil {
		b.Fatal(err)
	}
	var states int
	for i := 0; i < b.N; i++ {
		v, err := promising.Run(in.Test, backend, promising.OptionsWithTimeout(5*time.Minute))
		if err != nil {
			b.Fatal(err)
		}
		if v.Result.Aborted {
			b.Fatalf("%s: aborted", id)
		}
		if !v.OK() {
			b.Fatalf("%s: safety condition violated", id)
		}
		states = v.Result.States
	}
	b.ReportMetric(float64(states), "states")
}

func BenchmarkTable1Inventory(b *testing.B) {
	ids := []string{"SLA-2", "SLC-2", "SLR-2", "PCS-2-2", "PCM-2-2-2",
		"TL-2", "STC-110-011-000", "STR-110-011-000", "DQ-111-1-1", "QU-110-011-000"}
	totalLOC, totalThreads := 0, 0
	for i := 0; i < b.N; i++ {
		totalLOC, totalThreads = 0, 0
		for _, id := range ids {
			in, err := workloads.ParseID(lang.ARM, id)
			if err != nil {
				b.Fatal(err)
			}
			loc, ts := in.LOC()
			totalLOC += loc
			totalThreads += ts
		}
	}
	b.ReportMetric(float64(totalLOC), "LOC")
	b.ReportMetric(float64(totalThreads), "threads")
}

// Table 2/3 rows, Promising backend (scaled-down parameters; cmd/bench
// -full runs the paper's).

func BenchmarkTable2SLA2(b *testing.B)  { benchInstance(b, "SLA-2", promising.BackendPromising) }
func BenchmarkTable2SLA3(b *testing.B)  { benchInstance(b, "SLA-3", promising.BackendPromising) }
func BenchmarkTable2SLC1(b *testing.B)  { benchInstance(b, "SLC-1", promising.BackendPromising) }
func BenchmarkTable2SLR1(b *testing.B)  { benchInstance(b, "SLR-1", promising.BackendPromising) }
func BenchmarkTable2PCS22(b *testing.B) { benchInstance(b, "PCS-2-2", promising.BackendPromising) }
func BenchmarkTable2PCM111(b *testing.B) {
	benchInstance(b, "PCM-1-1-1", promising.BackendPromising)
}
func BenchmarkTable2TL1(b *testing.B) { benchInstance(b, "TL-1", promising.BackendPromising) }
func BenchmarkTable2STC(b *testing.B) {
	benchInstance(b, "STC-100-010-000", promising.BackendPromising)
}
func BenchmarkTable2STCOpt(b *testing.B) {
	benchInstance(b, "STC/opt-100-010-000", promising.BackendPromising)
}
func BenchmarkTable2STR(b *testing.B) {
	benchInstance(b, "STR-100-010-000", promising.BackendPromising)
}
func BenchmarkTable2DQ(b *testing.B) { benchInstance(b, "DQ-100-1-0", promising.BackendPromising) }
func BenchmarkTable2DQ110(b *testing.B) {
	benchInstance(b, "DQ-110-1-0", promising.BackendPromising)
}
func BenchmarkTable2QU(b *testing.B) {
	benchInstance(b, "QU-100-000-000", promising.BackendPromising)
}

// The Flat baseline on litmus-scale programs, against Promising and the
// axiomatic backend on the same tests (the Promising/Flat ratio is the
// Table 2 claim; at full workload parameterisations our Flat baseline
// exceeds any benchmark budget, which EXPERIMENTS.md documents as an
// amplified version of the paper's ooT rows — see cmd/bench).

func benchCatalogUnder(b *testing.B, backend promising.Backend, names ...string) {
	b.Helper()
	var tests []*litmus.Test
	for _, n := range names {
		tests = append(tests, litmus.CatalogTest(n))
	}
	for i := 0; i < b.N; i++ {
		for _, t := range tests {
			if _, err := promising.Run(t, backend, promising.Options()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFlatLitmus(b *testing.B) {
	benchCatalogUnder(b, promising.BackendFlat, "MP+dmbs", "LB", "IRIW", "PPOCA", "XCL-atomicity")
}

func BenchmarkPromisingLitmus(b *testing.B) {
	benchCatalogUnder(b, promising.BackendPromising, "MP+dmbs", "LB", "IRIW", "PPOCA", "XCL-atomicity")
}

func BenchmarkAxiomaticLitmus(b *testing.B) {
	benchCatalogUnder(b, promising.BackendAxiomatic, "MP+dmbs", "LB", "IRIW", "PPOCA", "XCL-atomicity")
}

// §8 herd comparison rows on the axiomatic backend. SLC-1 is the largest
// row the axiomatic backend completes in benchmark time (the paper's herd
// comparably stack-overflows at SLC-2 and takes 2370 s at TL-2); the
// litmus-scale comparison above covers the fine-grained ratio.

func BenchmarkHerdSLC1(b *testing.B) { benchInstance(b, "SLC-1", promising.BackendAxiomatic) }

// Ablations.

// BenchmarkAblationPromiseFirst vs BenchmarkAblationNaive quantify the
// promise-first optimisation (Theorem 7.1) on the LB+SB shaped catalog
// tests, where naive exploration interleaves every read.
func ablationTests() []*litmus.Test {
	return []*litmus.Test{
		litmus.CatalogTest("LB"),
		litmus.CatalogTest("SB"),
		litmus.CatalogTest("IRIW"),
		litmus.CatalogTest("2+2W"),
	}
}

func BenchmarkAblationPromiseFirst(b *testing.B) {
	tests := ablationTests()
	for i := 0; i < b.N; i++ {
		for _, t := range tests {
			if _, err := litmus.Run(t, explore.PromiseFirst, explore.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAblationNaive(b *testing.B) {
	tests := ablationTests()
	for i := 0; i < b.N; i++ {
		for _, t := range tests {
			if _, err := litmus.Run(t, explore.Naive, explore.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSymmetrySYM5* time the SYM-5 row, one class of five
// interchangeable threads, where thread-symmetry canonicalization runs on
// every interned state. ReportAllocs: allocations per op divided by the
// reported states is the allocations-per-state figure of the canonical
// form.
func BenchmarkSymmetrySYM5Naive(b *testing.B) {
	b.ReportAllocs()
	benchInstance(b, "SYM-5", promising.BackendNaive)
}

func BenchmarkSymmetrySYM5Flat(b *testing.B) {
	b.ReportAllocs()
	benchInstance(b, "SYM-5", promising.BackendFlat)
}

// BenchmarkCertCache* quantify the exploration-scoped certification cache
// (internal/core.CertCache) that the naive explorer shares: On is the
// default configuration, Off reverts every certification to a one-shot
// search with a call-local memo (explore.Options.CertCacheOff). LB is a
// promise-heavy catalog test, where the same thread/memory configuration
// is re-certified across every global state that differs only in the
// other threads. Promise-first shares no cache, so it has no pair here.

func benchCertCacheNaive(b *testing.B, name string, off bool) {
	tst := litmus.CatalogTest(name)
	opts := explore.DefaultOptions()
	opts.CertCacheOff = off
	var stats explore.ExploreStats
	for i := 0; i < b.N; i++ {
		v, err := litmus.Run(tst, explore.Naive, opts)
		if err != nil {
			b.Fatal(err)
		}
		if v.Result.Aborted {
			b.Fatal("aborted")
		}
		stats = v.Result.Stats
	}
	b.ReportMetric(float64(stats.CertHits), "cert-hits")
	b.ReportMetric(stats.CertHitRate()*100, "cert-hit-%")
}

func BenchmarkCertCacheOnNaiveLB(b *testing.B)  { benchCertCacheNaive(b, "LB", false) }
func BenchmarkCertCacheOffNaiveLB(b *testing.B) { benchCertCacheNaive(b, "LB", true) }

// BenchmarkAblationSharedOpt measures the §7 shared-location optimisation
// on the SLC workload (which spills thread-local temporaries): with the
// optimisation (the default instance) vs treating every location as shared.
func BenchmarkAblationSharedOpt(b *testing.B) {
	in := workloads.SpinlockInstance(lang.ARM, "SLC", 1)
	for i := 0; i < b.N; i++ {
		if _, err := promising.Run(in.Test, promising.BackendPromising, promising.Options()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSharedOptOff(b *testing.B) {
	in := workloads.SpinlockInstance(lang.ARM, "SLC", 1)
	in.Test.Prog.Shared = nil // treat everything as shared
	for i := 0; i < b.N; i++ {
		if _, err := promising.Run(in.Test, promising.BackendPromising, promising.Options()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSamplerOff/On pin the observability tentpole's cost model: the
// in-flight stats sampler hangs off the engine's existing pollStride check
// and publishes at most once per interval, so an ACTIVE sampler (gate open,
// subscriber attached — the daemon's state while a dashboard watches a
// job) must stay within ~2% of no sampler at all on TL-1, the sequential
// acceptance row. The inactive case is cheaper still (one nil check).

func benchSampler(b *testing.B, sampler *promising.Sampler) {
	b.Helper()
	in, err := workloads.ParseID(lang.ARM, "TL-1")
	if err != nil {
		b.Fatal(err)
	}
	opts := promising.Options()
	opts.Sampler = sampler
	var states int
	for i := 0; i < b.N; i++ {
		v, err := promising.Run(in.Test, promising.BackendPromising, opts)
		if err != nil {
			b.Fatal(err)
		}
		if v.Result.Aborted {
			b.Fatal("TL-1: aborted")
		}
		states = v.Result.States
	}
	b.ReportMetric(float64(states), "states")
}

func BenchmarkSamplerOffTL1(b *testing.B) { benchSampler(b, nil) }

func BenchmarkSamplerOnTL1(b *testing.B) {
	var published atomic.Int64
	sm := promising.NewSampler(0) // the daemon's default cadence
	sm.Gate(func() bool { return true })
	sm.OnPublish(func(promising.StatsSnapshot) { published.Add(1) })
	benchSampler(b, sm)
	b.ReportMetric(float64(published.Load()), "samples")
}

// Parallel-engine variants. Options.Parallelism follows GOMAXPROCS, so
// running with -cpu 1,4 measures the worker-pool speedup directly:
//
//	go test -bench 'Par|RunAll' -cpu 1,4
//
// The Par rows are promise-first phase-2-heavy workloads (each final
// memory's per-thread completion is independent work), plus naive and flat
// interleaving rows where the frontier itself is the parallel resource.

// benchInstancePar is benchInstance with the engine at GOMAXPROCS workers.
func benchInstancePar(b *testing.B, id string, backend promising.Backend) {
	b.Helper()
	in, err := workloads.ParseID(lang.ARM, id)
	if err != nil {
		b.Fatal(err)
	}
	opts := promising.ParallelOptions(runtime.GOMAXPROCS(0))
	var states int
	for i := 0; i < b.N; i++ {
		v, err := promising.Run(in.Test, backend, opts)
		if err != nil {
			b.Fatal(err)
		}
		if v.Result.Aborted {
			b.Fatalf("%s: aborted", id)
		}
		if !v.OK() {
			b.Fatalf("%s: safety condition violated", id)
		}
		states = v.Result.States
	}
	b.ReportMetric(float64(states), "states")
}

func BenchmarkParPromiseFirstSLA3(b *testing.B) {
	benchInstancePar(b, "SLA-3", promising.BackendPromising)
}
func BenchmarkParPromiseFirstTL1(b *testing.B) {
	benchInstancePar(b, "TL-1", promising.BackendPromising)
}
func BenchmarkParPromiseFirstPCM111(b *testing.B) {
	benchInstancePar(b, "PCM-1-1-1", promising.BackendPromising)
}
func BenchmarkParPromiseFirstQU(b *testing.B) {
	benchInstancePar(b, "QU-100-000-000", promising.BackendPromising)
}

func benchCatalogPar(b *testing.B, backend promising.Backend, names ...string) {
	b.Helper()
	var tests []*litmus.Test
	for _, n := range names {
		tests = append(tests, litmus.CatalogTest(n))
	}
	opts := promising.ParallelOptions(runtime.GOMAXPROCS(0))
	for i := 0; i < b.N; i++ {
		for _, t := range tests {
			if _, err := promising.Run(t, backend, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkParNaiveLitmus(b *testing.B) {
	benchCatalogPar(b, promising.BackendNaive, "MP+dmbs", "LB", "IRIW", "PPOCA", "XCL-atomicity")
}

func BenchmarkParFlatLitmus(b *testing.B) {
	benchCatalogPar(b, promising.BackendFlat, "MP+dmbs", "LB", "IRIW", "PPOCA", "XCL-atomicity")
}

// BenchmarkRunAllCatalog times the batched runner over the whole canonical
// catalog (cross-test concurrency at GOMAXPROCS; per-test engine
// sequential, mirroring a validation sweep's configuration).
func BenchmarkRunAllCatalog(b *testing.B) {
	tests := promising.Catalog()
	for i := 0; i < b.N; i++ {
		reports, err := promising.RunAll(tests, []promising.Backend{promising.BackendPromising},
			promising.RunAllOptions{Concurrency: runtime.GOMAXPROCS(0)})
		if err != nil {
			b.Fatal(err)
		}
		for r := range reports {
			if !reports[r].OK() {
				b.Fatalf("%s/%s: verdict mismatch", reports[r].Test.Name(), reports[r].Backend)
			}
		}
	}
}

// BenchmarkLitmusCatalog runs the whole canonical catalog under the
// Promising backend (the per-test cost a litmus-validation run pays).
func BenchmarkLitmusCatalog(b *testing.B) {
	tests := promising.Catalog()
	for i := 0; i < b.N; i++ {
		for _, t := range tests {
			v, err := promising.Run(t, promising.BackendPromising, promising.Options())
			if err != nil {
				b.Fatal(err)
			}
			if !v.OK() {
				b.Fatalf("%s: verdict mismatch", t.Name())
			}
		}
	}
}
