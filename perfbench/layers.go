package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"rumba/internal/exec"
	"rumba/internal/obs"
	"rumba/internal/trace"
)

// probeTenant serves the paired transport probes, apart from the workload's
// own tenants.
const probeTenant = "probe"

// traceCapFor sizes the flight recorders to keep every trace of one pool pass
// and enough of the open phase for a queue-wait p99.
func traceCapFor(w workload) int { return max(w.poolReqs, 2048) }

// runTraced is the per-layer run. It boots the system twice, once with every
// flight recorder on and keeping every trace and once with tracing off, and
// times each layer from outside: paired requests over each transport, the
// spans the nodes and router export over HTTP, and the benchmark's own spans
// around direct calls into the accelerator, checker and exact kernel.
func runTraced(w workload, seed int64, seconds int) (*result, error) {
	workDir, err := workDirFor()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	plain, _, err := setUp(w, seed, workDir, 0)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	traced, _, err := setUp(w, seed, workDir, traceCapFor(w))
	if err != nil {
		return nil, err
	}
	defer traced.close()
	res := &result{}
	total := time.Duration(seconds) * time.Second

	// Accounting pass: every pooled request once, one at a time, so each
	// layer's share is measured without contention.
	accts := make([]accounted, len(traced.pool))
	p := traced.pass(1, func(i int, o outcome) {
		accts[i] = accounted{lat: o.lat, elems: len(traced.pool[i].inputs)}
		if o.err == nil {
			accts[i].traceID = o.hdr.Get(trace.TraceHeader)
		}
	})
	nodeTraces, err := traced.nodeTraces(time.Time{})
	if err != nil {
		return nil, err
	}

	// Paired probes over each transport, one request at a time in rotating
	// order, at the workload's request shape.
	probes, err := traced.probe(total / 5)
	if err != nil {
		return nil, err
	}

	// Tracing overhead and GC share: alternate untraced and traced closed
	// windows so drift on the machine hits both alike.
	var plainElems, tracedElems int
	var plainDur, tracedDur time.Duration
	var gcPlain, cpuPlain float64
	for k := 0; k < 4; k++ {
		var tl tally
		if k%2 == 0 {
			g0 := gcCPU()
			plainDur += closedLoop(plain.pool, total/10, &tl)
			g1 := gcCPU()
			gcPlain += g1.gc - g0.gc
			cpuPlain += g1.total - g0.total
			plainElems += tl.elems
			plain.tl.merge(&tl)
		} else {
			tracedDur += closedLoop(traced.pool, total/10, &tl)
			tracedElems += tl.elems
			traced.tl.merge(&tl)
		}
	}

	// Queue wait under the open schedule, from the admission spans.
	var open tally
	runtime.GC()
	openStart := time.Now()
	openSamples := openLoop(traced.pool, w, total*3/10, &open)
	traced.tl.merge(&open)
	openTraces, err := traced.nodeTraces(openStart)
	if err != nil {
		return nil, err
	}
	var waits []float64
	for _, s := range openTraces {
		if sp, ok := splitTrace(s); ok {
			waits = append(waits, float64(sp.admission)/1e3)
		}
	}

	routerDump, err := fetchDump(traced.f.h.URL())
	if err != nil {
		return nil, err
	}
	var routes, forwards int
	for _, s := range routerDump.Traces {
		routes++
		for _, sp := range s.Spans {
			if sp.Name == "forward" {
				forwards++
			}
		}
	}
	failovers, err := sumCounter(traced.f.h.URL(), "cluster.failovers")
	if err != nil {
		return nil, err
	}

	kernels := traced.kernelCalls(total / 20)

	// Per-request node split over the accounting pass.
	var n, recovers int
	var sum nodeSplit
	sum.parts = map[string]int64{}
	var latSum time.Duration
	var encodeNsPerElem float64
	for _, a := range accts {
		sp, ok := splitTrace(nodeTraces[a.traceID])
		if !ok {
			continue
		}
		n++
		latSum += a.lat
		sum.admission += sp.admission
		sum.rest += sp.rest
		sum.streamSelf += sp.streamSelf
		sum.mergeBusy += sp.mergeBusy
		sum.recoverSum += sp.recoverSum
		recovers += sp.recovers
		for k, v := range sp.parts {
			sum.parts[k] += v
		}
		encodeNsPerElem += float64(sp.rest) / float64(a.elems)
	}
	if n == 0 {
		return nil, fmt.Errorf("no accounting request matched a node trace")
	}
	per := func(ns int64) float64 { return float64(ns) / float64(n) / 1e3 } // µs per request
	hopUs := probes.p50(viaRouter) - probes.p50(viaDirect)
	transportUs := probes.p50(viaDirect) - probes.p50(viaInproc)
	decodeNs := probes.decodeNsPerElem()

	res.add("cluster.hop_us", hopUs, "us", probes.n)
	res.add("cluster.forwards_per_req", float64(forwards)/float64(max(routes, 1)), "ratio", routes)
	res.add("cluster.failovers", float64(failovers), "count", routes)
	res.add("transport.us_per_req", transportUs, "us", probes.n)
	res.add("server.decode_ns_per_elem", decodeNs, "ns", probes.n)
	res.add("server.encode_ns_per_elem", encodeNsPerElem/float64(n), "ns", n)
	res.add("server.queue_wait_p50_us", quantile(waits, 0.50), "us", len(waits))
	res.add("server.queue_wait_p99_us", quantile(waits, 0.99), "us", len(waits))
	res.add("core.stream_self_us_per_req", per(sum.streamSelf), "us", n)
	res.add("core.merge_us_per_req", per(sum.mergeBusy), "us", n)
	res.add("core.recover_ns_per_fire", float64(sum.recoverSum)/float64(max(recovers, 1)), "ns", recovers)
	res.add("core.fire_rate", p.fireRate, "ratio", int(p.in))
	res.add("core.fixed_per_fire", p.fixedRate, "ratio", int(p.fires))
	res.add("accel.forward_ns_per_elem", kernels.forward, "ns", kernels.n)
	res.add("predictor.check_ns_per_elem", kernels.check, "ns", kernels.n)
	res.add("bench.exact_ns_per_elem", kernels.exact, "ns", kernels.n)
	res.add("pkg.boot_ms", median([]float64{ms(plain.f.bootDur), ms(traced.f.bootDur)}), "ms", 2)
	plainRate := float64(plainElems) / plainDur.Seconds()
	tracedRate := float64(tracedElems) / tracedDur.Seconds()
	res.add("trace.overhead_frac", 1-tracedRate/plainRate, "ratio", 2)
	res.add("runtime.gc_cpu_frac", gcPlain/cpuPlain, "ratio", 2)
	res.add("loadgen.late_p99_ms", durQuantile(latencies(openSamples, true), 0.99, time.Millisecond), "ms", len(openSamples))

	// The accounting table: client latency split into layers. Transport and
	// decode come from the paired probes; the rest from the node spans.
	elems := float64(w.elems)
	type part struct {
		name string
		us   float64
	}
	var parts []part
	if w.transport == viaRouter {
		parts = append(parts, part{"router_hop", hopUs})
	}
	if w.transport != viaInproc {
		parts = append(parts, part{"transport", transportUs})
	}
	parts = append(parts,
		part{"decode", decodeNs * elems / 1e3},
		part{"queue_wait", per(sum.admission)},
		part{"encode", per(sum.rest)},
		part{"stream_self", per(sum.streamSelf)},
	)
	for _, name := range streamLayers {
		parts = append(parts, part{name + "_self", per(sum.parts[name])})
	}
	totalUs := float64(latSum.Nanoseconds()) / float64(n) / 1e3
	var sumUs float64
	for _, pt := range parts {
		sumUs += pt.us
		res.notes = append(res.notes, fmt.Sprintf("layer %-22s %10.2f us/req %6.1f%%", pt.name, pt.us, 100*pt.us/totalUs))
	}
	res.notes = append(res.notes, fmt.Sprintf("layer %-22s %10.2f us/req (client latency, %d requests)", "total", totalUs, n))
	res.add("layers.residual_frac", 1-sumUs/totalUs, "ratio", n)

	for _, s := range []*system{plain, traced} {
		res.attempted += s.tl.attempted
		res.failed += s.tl.failed
		if res.firstErr == nil {
			res.firstErr = s.tl.firstErr
		}
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// accounted is one request of the accounting pass.
type accounted struct {
	lat     time.Duration
	elems   int
	traceID string
}

func fetchDump(baseURL string) (trace.Dump, error) {
	var d trace.Dump
	err := getJSON(baseURL+"/debug/rumba/traces", &d)
	return d, err
}

func getJSON(url string, into any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// nodeTraces fetches every node's flight recorder over HTTP and returns the
// traces begun at or after since, keyed by trace ID.
func (s *system) nodeTraces(since time.Time) (map[string]trace.Snapshot, error) {
	out := map[string]trace.Snapshot{}
	for _, n := range s.f.h.Nodes {
		d, err := fetchDump(n.HTTP.URL)
		if err != nil {
			return nil, err
		}
		for _, t := range d.Traces {
			if !t.Begin.Before(since) {
				out[t.TraceID] = t
			}
		}
	}
	return out, nil
}

// sumCounter adds up a labelled counter family from a /metrics.json.
func sumCounter(baseURL, family string) (int64, error) {
	var snap obs.Snapshot
	if err := getJSON(baseURL+"/metrics.json", &snap); err != nil {
		return 0, err
	}
	var n int64
	for name, v := range snap.Counters {
		if name == family || strings.HasPrefix(name, family+"{") {
			n += v
		}
	}
	return n, nil
}

// probeResult holds the paired probes' latencies per transport.
type probeResult struct {
	lat    map[transport][]float64 // µs
	decode []float64               // ns per element: in-process handler time minus the node's root span
	n      int
}

func (p *probeResult) p50(t transport) float64 { return median(p.lat[t]) }

func (p *probeResult) decodeNsPerElem() float64 { return median(p.decode) }

// probe sends the pool's requests as the probe tenant over the router,
// straight to the owning node, and into that node's handler, rotating the
// order every round, for d.
func (s *system) probe(d time.Duration) (*probeResult, error) {
	w := s.w
	reqs := make([]request, len(s.pool))
	for i, r := range s.pool {
		reqs[i] = request{body: encodeRequest(probeTenant, r.inputs, w.target), inputs: r.inputs, exp: r.exp}
	}
	o := send(s.router, &reqs[0])
	s.tl.add(o)
	if o.err != nil {
		return nil, fmt.Errorf("probe: %w", o.err)
	}
	if err := s.f.learnOwner(probeTenant, o.hdr); err != nil {
		return nil, err
	}
	order := []transport{viaRouter, viaDirect, viaInproc}
	targets := map[transport]target{}
	for _, t := range order {
		targets[t] = s.targetFor(t, probeTenant)
	}
	res := &probeResult{lat: map[transport][]float64{}}
	type inproc struct {
		id    string
		lat   time.Duration
		elems int
	}
	var handled []inproc
	stop := time.Now().Add(d)
	for round := 0; time.Now().Before(stop); round++ {
		r := &reqs[round%len(reqs)]
		for k := range order {
			t := order[(round+k)%len(order)]
			o := send(targets[t], r)
			s.tl.add(o)
			if o.err != nil {
				continue
			}
			res.lat[t] = append(res.lat[t], float64(o.lat)/1e3)
			if t == viaInproc {
				handled = append(handled, inproc{o.hdr.Get(trace.TraceHeader), o.lat, len(r.inputs)})
			}
		}
		res.n++
	}
	traces, err := s.nodeTraces(time.Time{})
	if err != nil {
		return nil, err
	}
	for _, h := range handled {
		if t, ok := traces[h.id]; ok {
			res.decode = append(res.decode, float64(h.lat.Nanoseconds()-t.DurationNs)/float64(h.elems))
		}
	}
	return res, nil
}

// kernelTimes is the cost per element of the three compute layers, called
// directly on the pool's inputs in the stream's own chunk shape.
type kernelTimes struct {
	forward, check, exact float64
	n                     int
}

// kernelCalls times the package's accelerator, checker and exact kernel
// under the benchmark's own spans, each for about d, and reads the cost per
// element back from the spans.
func (s *system) kernelCalls(d time.Duration) kernelTimes {
	orc := s.f.orc
	chunk := min(s.w.elems, 64) // the serving layer's default detection chunk
	var batches, approx [][][]float64
	for _, r := range s.pool {
		for i := 0; i < len(r.inputs); i += chunk {
			b := r.inputs[i:min(i+chunk, len(r.inputs))]
			a := make([][]float64, len(b))
			exec.InvokeBatch(orc.exec, a, b)
			batches = append(batches, b)
			approx = append(approx, a)
		}
	}
	dst := make([][]float64, chunk)
	preds := make([]float64, chunk)
	tr := trace.New("perfbench.layers", 0)
	elems := map[string]int{}
	run := func(name string, body func(i int)) {
		sp := tr.Root().Start(name)
		for start := time.Now(); time.Since(start) < d; {
			for i := range batches {
				body(i)
				elems[name] += len(batches[i])
			}
		}
		sp.End()
	}
	run("accel.InvokeBatch", func(i int) { exec.InvokeBatch(orc.exec, dst[:len(batches[i])], batches[i]) })
	run("predictor.PredictErrorBatch", func(i int) {
		orc.checker.PredictErrorBatch(preds[:len(batches[i])], batches[i], approx[i])
	})
	run("bench.Spec.Exact", func(i int) {
		for _, in := range batches[i] {
			sink = orc.spec.Exact(in)
		}
	})
	tr.Finish()
	per := map[string]float64{}
	for _, sp := range tr.Snapshot().Spans[1:] {
		per[sp.Name] = float64(sp.End-sp.Start) / float64(elems[sp.Name])
	}
	return kernelTimes{
		forward: per["accel.InvokeBatch"],
		check:   per["predictor.PredictErrorBatch"],
		exact:   per["bench.Spec.Exact"],
		n:       elems["accel.InvokeBatch"],
	}
}

var sink []float64

// cpuSample is the process's cumulative GC and total CPU seconds.
type cpuSample struct{ gc, total float64 }

// gcCPU reads the runtime's GC CPU estimate, which it updates at the end of
// each cycle, and the CPU time the kernel has charged the process.
func gcCPU() cpuSample {
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(samples)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	total := time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	return cpuSample{gc: samples[0].Value.Float64(), total: total}
}
