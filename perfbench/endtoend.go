package main

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rumba/internal/cluster"
	"rumba/internal/core"
)

// setupReps is how many times a run sets the system up anew;
// setup_s is their median. Only the last set-up serves the measured load.
const setupReps = 7

// rounds is how many closed and how many open windows the measured time
// alternates; calm is how many of each kind, at the least, the figures are
// taken from.
const (
	rounds = 20
	calm   = 6
	warmUp = 2 * time.Second
)

// calmest returns, in run order, the indices of the k windows whose steal
// (the CPU time the hypervisor took from the machine while each ran) was
// least, and of every window that ties with the k-th: a tie has nothing to
// choose between windows by.
func calmest(steal []int64, k int) []int {
	sorted := append([]int64(nil), steal...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	limit := sorted[min(k, len(sorted))-1]
	var idx []int
	for i, st := range steal {
		if st <= limit {
			idx = append(idx, i)
		}
	}
	return idx
}

// system is a booted fixture with the workload's request pool bound to it.
type system struct {
	w        workload
	f        *fixture
	client   *http.Client
	router   httpTarget
	pool     []request
	handlers map[*cluster.HarnessNode]http.Handler
	tl       tally // every request sent to this system
}

// setUp boots a fixture and binds the pool to it. The returned duration runs
// from the start of training to the first checked, successful invoke through
// the router.
func setUp(w workload, seed int64, workDir string, traceCap int) (*system, time.Duration, error) {
	start := time.Now()
	inputs, tenants := genPool(w, seed)
	f, err := boot(workDir, w.target, traceCap)
	if err != nil {
		return nil, 0, err
	}
	s := &system{w: w, f: f, client: newHTTPClient(), handlers: map[*cluster.HarnessNode]http.Handler{}}
	s.router = httpTarget{client: s.client, url: f.h.URL()}
	first := request{body: encodeRequest(tenants[0], inputs[0], w.target), inputs: inputs[0], exp: f.orc.expect(inputs[0])}
	o := send(s.router, &first)
	s.tl.add(o)
	if o.err != nil {
		s.close()
		return nil, 0, fmt.Errorf("first invoke: %w", o.err)
	}
	setup := time.Since(start)
	if err := f.learnOwner(tenants[0], o.hdr); err != nil {
		s.close()
		return nil, 0, err
	}

	s.pool = make([]request, len(inputs))
	for i, in := range inputs {
		s.pool[i] = request{body: encodeRequest(tenants[i], in, w.target), inputs: in, exp: f.orc.expect(in)}
	}
	if w.transport != viaRouter {
		// Learn each tenant's owner from a routed request, so direct and
		// in-process traffic lands where the cluster would put it.
		for i := range s.pool {
			if f.owner[tenants[i]] != nil {
				continue
			}
			o := send(s.router, &s.pool[i])
			s.tl.add(o)
			if o.err != nil {
				s.close()
				return nil, 0, fmt.Errorf("owner lookup: %w", o.err)
			}
			if err := f.learnOwner(tenants[i], o.hdr); err != nil {
				s.close()
				return nil, 0, err
			}
		}
	}
	for i := range s.pool {
		s.pool[i].to = s.targetFor(w.transport, tenants[i])
	}
	return s, setup, nil
}

func (s *system) targetFor(tr transport, tenant string) target {
	switch tr {
	case viaDirect:
		return httpTarget{client: s.client, url: s.f.owner[tenant].HTTP.URL}
	case viaInproc:
		n := s.f.owner[tenant]
		h, ok := s.handlers[n]
		if !ok {
			h = n.Server.Handler()
			s.handlers[n] = h
		}
		return inprocTarget{h: h}
	default:
		return s.router
	}
}

func (s *system) close() {
	s.client.CloseIdleConnections()
	s.f.h.Close()
}

// counters sums stream counters over every node.
func (s *system) counters() map[string]int64 {
	sum := map[string]int64{}
	for _, n := range s.f.h.Nodes {
		for k, v := range n.Server.Metrics().Snapshot().Counters {
			sum[k] += v
		}
	}
	return sum
}

// passResult is what one ordered pass over the whole pool measured. Its
// figures depend only on the seed: the pool is fixed and every reply is
// checked against the oracle.
type passResult struct {
	deliveredError      float64
	elems               int
	in, fires, fixes    int64 // stream counters summed over the nodes
	fireRate, fixedRate float64
}

// pass sends every pooled request once on `workers` connections, calling
// each (when non-nil) with every outcome. It warms the system and measures
// the quality tenants received.
func (s *system) pass(workers int, each func(i int, o outcome)) passResult {
	before := s.counters()
	var next atomic.Int64
	var mu sync.Mutex
	var errSum float64
	var elems int
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(s.pool) {
					return
				}
				r := &s.pool[i]
				o := send(r.to, r)
				s.tl.add(o)
				if each != nil {
					each(i, o)
				}
				if o.err != nil {
					continue
				}
				mu.Lock()
				if o.shed {
					errSum += r.exp.shedErrSum
				} else {
					errSum += r.exp.errSum
				}
				elems += o.elems
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	after := s.counters()
	p := passResult{
		elems: elems,
		in:    after[core.MetricElementsIn] - before[core.MetricElementsIn],
		fires: after[core.MetricFires] - before[core.MetricFires],
		fixes: after[core.MetricFixes] - before[core.MetricFixes],
	}
	p.deliveredError = errSum / float64(elems)
	p.fireRate = float64(p.fires) / float64(p.in)
	p.fixedRate = float64(p.fixes) / float64(p.fires)
	return p
}

// bootSystems sets the system up setupReps times and keeps the last.
func bootSystems(w workload, seed int64, workDir string, traceCap int) (*system, []float64, error) {
	var setups []float64
	var kept *system
	for rep := 0; rep < setupReps; rep++ {
		s, d, err := setUp(w, seed, workDir, traceCap)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", rep+1, err)
		}
		setups = append(setups, d.Seconds())
		if rep < setupReps-1 {
			s.close()
		} else {
			kept = s
		}
	}
	return kept, setups, nil
}

func runEndToEnd(w workload, seed int64, seconds int) (*result, error) {
	workDir, err := workDirFor()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	s, setups, err := bootSystems(w, seed, workDir, 0)
	if err != nil {
		return nil, err
	}
	defer s.close()
	res := &result{}
	res.add("setup_s", median(setups), "s", len(setups))

	p := s.pass(clients, nil)
	// Warm up past the pass: connection pools, the heap's size and the
	// tenants' per-request state settle before anything is timed.
	var warm tally
	closedLoop(s.pool, warmUp, &warm)
	s.tl.merge(&warm)

	// The measured time alternates closed and open windows. On a shared
	// virtual machine another machine's burst can steal CPU for seconds at a
	// time. Each figure comes from the windows of its kind with the least
	// steal, read from the hypervisor's counter around each whole window: a
	// signal from outside the program, blind to how long any one request
	// took, so the program's own slow spells still count.
	total := time.Duration(seconds) * time.Second
	closedWin := total * 2 / 10 / rounds
	openWin := total * 8 / 10 / rounds
	var closed, open tally
	var mallocs, bytes uint64
	var closedSteal, openSteal []int64
	var rates []float64
	var openWins [][]openSample
	for k := 0; k < rounds; k++ {
		var tl tally
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		st := readSteal()
		elapsed := closedLoop(s.pool, closedWin, &tl)
		closedSteal = append(closedSteal, readSteal()-st)
		rates = append(rates, float64(tl.elems)/elapsed.Seconds())
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
		closed.merge(&tl)
		// Collect the closed window's garbage first, so the open window's
		// tail is its own and not the closed window's GC debt.
		runtime.GC()
		st = readSteal()
		openWins = append(openWins, openLoop(s.pool, w, openWin, &open))
		openSteal = append(openSteal, readSteal()-st)
	}
	var calmRates []float64
	for _, i := range calmest(closedSteal, calm) {
		calmRates = append(calmRates, rates[i])
	}
	var samples, all []openSample
	for _, i := range calmest(openSteal, calm) {
		samples = append(samples, openWins[i]...)
	}
	for _, ss := range openWins {
		all = append(all, ss...)
	}
	lat := latencies(samples, false)
	var sloOK int
	for _, c := range samples {
		if c.ok {
			sloOK++
		}
	}
	reqs := float64(closed.attempted)
	res.add("elems_per_s", median(calmRates), "1/s", closed.attempted)
	res.add("lat_p50_ms", durQuantile(lat, 0.50, time.Millisecond), "ms", len(lat))
	res.add("lat_p99_ms", durQuantile(lat, 0.99, time.Millisecond), "ms", len(lat))
	res.add("slo_ok_frac", float64(sloOK)/float64(len(samples)), "ratio", len(samples))

	for _, t := range []*tally{&closed, &open} {
		s.tl.merge(t)
	}
	res.attempted, res.failed, res.firstErr = s.tl.attempted, s.tl.failed, s.tl.firstErr
	res.add("ok_frac", 1-float64(s.tl.failed)/float64(s.tl.attempted), "ratio", s.tl.attempted)
	res.add("unshed_frac", 1-float64(s.tl.shed)/float64(s.tl.attempted), "ratio", s.tl.attempted)
	res.add("delivered_error", p.deliveredError, "error", p.elems)
	res.add("allocs_per_req", float64(mallocs)/reqs, "count", closed.attempted)
	res.add("alloc_kb_per_req", float64(bytes)/1024/reqs, "KiB", closed.attempted)
	res.notes = append(res.notes,
		fmt.Sprintf("failed_frac %.6g shed_frac %.6g over %d requests", float64(s.tl.failed)/float64(s.tl.attempted),
			float64(s.tl.shed)/float64(s.tl.attempted), s.tl.attempted),
		fmt.Sprintf("pool pass: fire_rate %.6f fixed_per_fire %.6f over %d elements", p.fireRate, p.fixedRate, p.elems),
		fmt.Sprintf("open windows: %d requests due at %.0f/s, %d timed in the calmest; generator late p99 %.3f ms",
			len(all), w.rate, len(samples), durQuantile(latencies(all, true), 0.99, time.Millisecond)),
		fmt.Sprintf("closed windows (elems/s): %.0f", rates),
		fmt.Sprintf("steal ticks per window, closed %v, open %v", closedSteal, openSteal),
	)
	return res, nil
}
