package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"promising/internal/backends"
	"promising/internal/lang"
	"promising/internal/litmus"
	"promising/internal/server"
)

// The check-service workload: an in-process promised on a loopback
// listener, driven by closed-loop clients on keep-alive connections.
const (
	serviceClients = 2
	// serviceBlock is the number of requests in one pass.
	serviceBlock = 2000
	// serviceMissEvery: one request in this many checks a fresh generated
	// test (a verdict-cache miss); the rest re-check the warm set.
	serviceMissEvery = 10
	// serviceRate is the request rate, per second, the schedule is sized
	// for; a run that uses the schedule up ends early.
	serviceRate = 12500
)

// serviceBackends are the backends the warm set is checked under.
var serviceBackends = []string{backends.Promising, backends.Naive, backends.Axiomatic}

// request is one scheduled POST /v1/check.
type request struct {
	body []byte
	hit  bool
	// name and backend say what the request checks; pin is the library
	// run's outcome lines, which the response must repeat. Until the pin is
	// computed, a warm request holds its catalog test and a fresh one its
	// source.
	name    string
	backend string
	pin     string
	test    *litmus.Test
	src     string
}

// serviceSchedule builds the request schedule for a seed: blocks of
// serviceMissEvery requests, one of them (at a seeded position) a fresh
// generated test under promise-first, the others a seeded pick from the
// warm set (the catalog under serviceBackends). Generated tests are
// distinct from each other and from the warm set.
func serviceSchedule(tr *tracer, catalog []*litmus.Test, seed int64, n int) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	profile, err := litmus.ProfileByName("full")
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var warm []request
	for _, t := range catalog {
		seen[t.Hash()] = true
		for _, b := range serviceBackends {
			body, err := json.Marshal(server.CheckRequest{TestSpec: server.TestSpec{Catalog: t.Name()}, Backend: b})
			if err != nil {
				return nil, err
			}
			warm = append(warm, request{body: body, hit: true, name: t.Name(), test: t, backend: b})
		}
	}
	fresh := func(i int) (request, error) {
		id := tr.begin("litmus.generate", 0, 0)
		defer tr.end(id)
		for {
			arch := lang.ARM
			if rng.Intn(2) == 1 {
				arch = lang.RISCV
			}
			g := litmus.Generate(litmus.GenConfig{Seed: rng.Int63(), Arch: arch, Profile: profile})
			g.Prog.Name = "GEN-" + strconv.Itoa(i)
			src := litmus.Format(g)
			if h := litmus.SourceHash(src); seen[h] {
				continue
			} else {
				seen[h] = true
			}
			body, err := json.Marshal(server.CheckRequest{TestSpec: server.TestSpec{Source: src}, Backend: backends.Promising})
			return request{body: body, name: g.Prog.Name, src: src, backend: backends.Promising}, err
		}
	}
	out := make([]request, 0, n)
	for len(out) < n {
		missAt := rng.Intn(serviceMissEvery)
		for j := 0; j < serviceMissEvery && len(out) < n; j++ {
			if j != missAt {
				out = append(out, warm[rng.Intn(len(warm))])
				continue
			}
			r, err := fresh(len(out))
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// pinSchedule sets every request's pin from a library run of its (test,
// backend), before any timing; fresh tests are parsed from their source as
// the server will parse them. Untraced, the runs use serviceClients
// goroutines; traced, they run one at a time so each run's heap reads
// belong to it.
func pinSchedule(tr *tracer, schedule []request) error {
	var firsts []int // index of each distinct request's first occurrence
	seen := map[string]bool{}
	for i, r := range schedule {
		if !seen[string(r.body)] {
			seen[string(r.body)] = true
			firsts = append(firsts, i)
		}
	}
	pinOne := func(r request) (string, error) {
		t := r.test
		if t == nil {
			id := tr.begin("litmus.import", 0, 0)
			var err error
			t, err = litmus.Parse(r.src)
			tr.end(id)
			if err != nil {
				return "", err
			}
		}
		run, err := backends.Resolve(r.backend)
		if err != nil {
			return "", err
		}
		v, err := tr.runTest(t, r.backend, run, cellOptions(), 0, 0)
		if err == nil {
			err = checkVerdict(v)
		}
		if err != nil {
			return "", err
		}
		return litmus.FormatOutcomes(v.Spec, v.Result, v.Test.Prog), nil
	}
	pins := make([]string, len(firsts))
	errs := make([]error, len(firsts))
	workers := serviceClients
	if tr != nil {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(firsts); i = int(next.Add(1)) - 1 {
				pins[i], errs[i] = pinOne(schedule[firsts[i]])
			}
		}()
	}
	wg.Wait()
	byBody := make(map[string]string, len(firsts))
	for i, at := range firsts {
		if errs[i] != nil {
			return fmt.Errorf("pin %s/%s: %w", schedule[at].name, schedule[at].backend, errs[i])
		}
		byBody[string(schedule[at].body)] = pins[i]
	}
	for i := range schedule {
		schedule[i].pin = byBody[string(schedule[i].body)]
		schedule[i].test, schedule[i].src = nil, ""
	}
	return nil
}

// service is a running check-service workload.
type service struct {
	srv      *server.Server
	hs       *http.Server
	served   chan struct{} // closed when Serve returns
	base     string
	client   *http.Client
	schedule []request
	next     int
	before   map[string]float64 // /metrics after warming
}

func setupService(e *env, tr *tracer) (*bench, error) {
	id := tr.begin("litmus.import", 0, 0)
	catalog := litmus.Catalog()
	tr.end(id)
	// At least two blocks, so a one-pass traced run has its traced pass.
	n := max(e.cfg.seconds*serviceRate, 2*serviceBlock)
	schedule, err := serviceSchedule(tr, catalog, e.cfg.seed, n)
	if err != nil {
		return nil, err
	}
	if err := pinSchedule(tr, schedule); err != nil {
		return nil, err
	}

	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serviceClients,
			MaxConnsPerHost:     serviceClients,
			DisableCompression:  true,
		}},
		schedule: schedule,
	}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	// Warm the verdict cache: every warm-set entry once, checked. Its first
	// check misses.
	warmed := map[string]bool{}
	for _, r := range schedule {
		if r.hit && !warmed[string(r.body)] {
			warmed[string(r.body)] = true
			first := r
			first.hit = false
			if o := s.do(tr, first); o.err != nil {
				s.stop()
				return nil, fmt.Errorf("warming the verdict cache: %w", o.err)
			}
		}
	}
	if s.before, err = s.scrape(); err != nil {
		s.stop()
		return nil, err
	}
	return &bench{pass: s.pass, layers: s.layers, stop: s.stop}, nil
}

// pass sends the next block of the schedule from the closed-loop clients.
func (s *service) pass(tr *tracer) []op {
	if s.next >= len(s.schedule) {
		return nil
	}
	blk := s.schedule[s.next:min(s.next+serviceBlock, len(s.schedule))]
	s.next += len(blk)
	ops := make([]op, len(blk))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(blk) {
					return
				}
				ops[i] = s.do(tr, blk[i])
			}
		}()
	}
	wg.Wait()
	return ops
}

// do sends one request and checks the response against its pin.
func (s *service) do(tr *tracer, r request) op {
	opID, root := tr.beginOp("request")
	start := time.Now()
	o := op{hit: r.hit}
	o.err = func() error {
		id := tr.begin("server.check", root, opID)
		resp, err := s.client.Post(s.base+"/v1/check", "application/json", bytes.NewReader(r.body))
		var body []byte
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		tr.end(id)
		if err != nil {
			return err
		}
		if resp.StatusCode/100 != 2 {
			o.non2xx = true
			return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		}
		id = tr.begin("json.decode", root, opID)
		var rep server.TestReport
		err = json.Unmarshal(body, &rep)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("decode report: %w", err)
		}
		o.cached, o.elapsedUS = rep.Cached, rep.ElapsedUS
		id = tr.begin("litmus.verdict", root, opID)
		defer tr.end(id)
		if rep.Status != string(litmus.StatusPass) {
			return fmt.Errorf("status %s (%s)", rep.Status, rep.Error)
		}
		if rep.Cached != r.hit {
			return fmt.Errorf("answered from the verdict cache: %t, planned %t", rep.Cached, r.hit)
		}
		if got := strings.Join(rep.Outcomes, "\n"); got != r.pin {
			return fmt.Errorf("outcomes differ from the library run (%d lines, want %d)",
				len(rep.Outcomes), strings.Count(r.pin, "\n")+1)
		}
		return nil
	}()
	o.latency = time.Since(start)
	tr.end(root)
	if o.err != nil {
		o.err = fmt.Errorf("%s/%s: %w", r.name, r.backend, o.err)
	}
	return o
}

// scrape reads the server's GET /metrics counters.
func (s *service) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

func (s *service) stop() {
	_ = s.hs.Close() // the only error is the listener's close error
	<-s.served
	s.srv.Close()
	s.client.CloseIdleConnections()
}

// layers reports the service layers: server overhead (latency minus the
// reported exploration time), server exploration time on misses, non-2xx
// replies, the verdict-cache hit ratio from GET /metrics, and hit and miss
// latencies.
func (s *service) layers(ops []op) []measure {
	hitRatio := 0.0
	if after, err := s.scrape(); err == nil {
		hitRatio = ratio(after["promised_cache_hits_total"]-s.before["promised_cache_hits_total"],
			after["promised_checks_total"]-s.before["promised_checks_total"])
	}
	return serviceLayers(ops, hitRatio)
}

// serviceLayers computes the service layer metrics from the requests and
// the measured cache hit ratio; a workload without a service reports them
// all as zero (serviceLayers(nil, 0)).
func serviceLayers(ops []op, hitRatio float64) []measure {
	var overhead, explore, hits, misses []float64
	non2xx := 0
	for _, o := range ops {
		lat := ms(o.latency)
		if o.hit {
			hits = append(hits, lat)
		} else {
			misses = append(misses, lat)
		}
		if o.non2xx {
			non2xx++
		}
		if o.cached {
			overhead = append(overhead, lat)
		} else {
			overhead = append(overhead, lat-float64(o.elapsedUS)/1000)
			explore = append(explore, float64(o.elapsedUS)/1000)
		}
	}
	return []measure{
		{"server.overhead_ms_p50", "ms", quantile(overhead, 0.50), len(overhead)},
		{"server.overhead_ms_p99", "ms", quantile(overhead, 0.99), len(overhead)},
		{"server.explore_ms_p50", "ms", quantile(explore, 0.50), len(explore)},
		{"server.non2xx", "count", float64(non2xx), len(ops)},
		{"cache.hit_ratio", "ratio", hitRatio, len(ops)},
		{"cache.hit_latency_ms_p50", "ms", quantile(hits, 0.50), len(hits)},
		{"cache.hit_latency_ms_p99", "ms", quantile(hits, 0.99), len(hits)},
		{"cache.miss_latency_ms_p50", "ms", quantile(misses, 0.50), len(misses)},
		{"cache.miss_latency_ms_p99", "ms", quantile(misses, 0.99), len(misses)},
	}
}
