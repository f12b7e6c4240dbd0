package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"time"

	"rumba/internal/accel"
	"rumba/internal/bench"
	"rumba/internal/bundle"
	"rumba/internal/cluster"
	"rumba/internal/pkg"
	"rumba/internal/server"
	"rumba/internal/trainer"
)

const (
	kernelName  = "blackscholes"
	checkerName = "tree"
	nodes       = 2
	clients     = 2 // closed-loop clients and open-loop connections
)

// transport is how the load generator reaches a node.
type transport string

const (
	viaRouter transport = "routed" // HTTP to rumba-router, which forwards to the owner
	viaDirect transport = "direct" // HTTP straight to the owning node
	viaInproc transport = "inproc" // Handler().ServeHTTP with no socket
)

// workload is one traffic mix. Targets, rates and latency limits were
// calibrated on the seed (see README.md); they are fixed here so every
// commit is measured at the same offered load.
type workload struct {
	name      string
	transport transport
	elems     int     // elements per request
	tenants   int     // tenants, served round-robin in a seed-shuffled order
	target    float64 // every tenant's TOQ target, which is its firing threshold
	rate      float64 // open-phase requests per second
	limit     time.Duration
	poolReqs  int // distinct requests generated from the seed and cycled through
}

var workloads = []workload{
	{name: "tiny-routed", transport: viaRouter, elems: 1, tenants: 32, target: 0.10,
		rate: 2200, limit: 5 * time.Millisecond, poolReqs: 4096},
	{name: "bulk-direct", transport: viaDirect, elems: 1024, tenants: 2, target: 1.18,
		rate: 160, limit: 15 * time.Millisecond, poolReqs: 32},
	{name: "recover-inproc", transport: viaInproc, elems: 64, tenants: 4, target: 0.032,
		rate: 1100, limit: 5 * time.Millisecond, poolReqs: 512},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// request is one pre-generated invoke: its encoded body and the oracle's
// expectation for it.
type request struct {
	body   []byte
	inputs [][]float64
	exp    expected
	to     target
}

// genInputs draws blackscholes inputs from the kernel's own input domain
// (spot and strike 20..120, maturity 0.1..2 years, rate 10%, volatility 30%,
// calls), from the run's seed.
func genInputs(r *rand.Rand, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		s := 20 + 100*r.Float64()
		k := 20 + 100*r.Float64()
		t := 0.1 + 1.9*r.Float64()
		out[i] = []float64{s, k, 0.10, 0.30, t, 0}
	}
	return out
}

// genPool generates the workload's request pool from the seed: the inputs
// and the order in which tenants take turns. Nothing else depends on it.
func genPool(w workload, seed int64) ([][][]float64, []string) {
	r := rand.New(rand.NewSource(seed))
	inputs := make([][][]float64, w.poolReqs)
	for i := range inputs {
		inputs[i] = genInputs(r, w.elems)
	}
	order := r.Perm(w.tenants)
	tenants := make([]string, w.poolReqs)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("tenant-%02d", order[i%w.tenants])
	}
	return inputs, tenants
}

func encodeRequest(tenant string, inputs [][]float64, target float64) []byte {
	body, err := json.Marshal(server.InvokeRequest{
		Tenant: tenant, Kernel: kernelName, Inputs: inputs,
		Checker: checkerName, Mode: "toq", Target: target,
	})
	if err != nil {
		panic(err) // finite float64 inputs always encode
	}
	return body
}

// trainPackage trains blackscholes with the trainer's defaults and builds it
// into a kernel package under registryDir, returning the package directory.
func trainPackage(registryDir string) (string, error) {
	spec := bench.BlackScholes
	train := spec.GenTrain(0)
	acfg, err := trainer.TrainAccelerator(spec, spec.RumbaTopo, spec.RumbaFeatures, train,
		trainer.DefaultAccelTrainConfig(spec.Name))
	if err != nil {
		return "", err
	}
	acc, err := accel.New(acfg, 0)
	if err != nil {
		return "", err
	}
	preds, err := trainer.TrainPredictors(spec, train, trainer.Observe(spec, acc, train))
	if err != nil {
		return "", err
	}
	b, err := bundle.New(spec, acfg, preds)
	if err != nil {
		return "", err
	}
	p, err := pkg.Build(registryDir, b, pkg.BuildConfig{Version: "1.0.0"})
	if err != nil {
		return "", err
	}
	return p.Dir, nil
}

// fixture is one booted system under test: a two-node cluster behind a
// router, every node loaded from the same package directory.
type fixture struct {
	h       *cluster.Harness
	orc     *oracle
	bootDur time.Duration
	// owner maps a tenant to the node the router forwarded it to.
	owner map[string]*cluster.HarnessNode
}

// boot trains the kernel, builds its package into a fresh directory under
// workDir, and boots the cluster from that directory through the package
// gate. traceCap > 0 turns on every node's and the router's flight recorder
// with every trace kept.
func boot(workDir string, target float64, traceCap int) (*fixture, error) {
	dir, err := os.MkdirTemp(workDir, "registry-")
	if err != nil {
		return nil, err
	}
	pkgDir, err := trainPackage(dir)
	if err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	orc, err := newOracle(pkgDir, target)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	h, err := cluster.NewHarness(cluster.HarnessOptions{
		Nodes: nodes,
		Router: cluster.Options{
			Probe:            cluster.ProbeConfig{Interval: time.Second},
			TraceCapacity:    traceCap,
			TraceSampleEvery: 1,
		},
		Registry: func(int) (*server.Registry, error) {
			reg := server.NewKernelRegistry()
			if _, err := reg.LoadPackageDir(dir); err != nil {
				return nil, err
			}
			return reg, nil
		},
		ServerOptions: func(int) server.Options {
			return server.Options{TraceCapacity: traceCap, TraceSampleEvery: 1}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	f := &fixture{h: h, orc: orc, owner: map[string]*cluster.HarnessNode{}}
	if err := waitReady(h.URL() + "/readyz"); err != nil {
		h.Close()
		return nil, err
	}
	f.bootDur = time.Since(start)
	return f, nil
}

func waitReady(url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router not ready after 10s (last error %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// learnOwner records the node the router chose for a tenant, named by the
// X-Rumba-Node header of a routed reply.
func (f *fixture) learnOwner(tenant string, hdr http.Header) error {
	name := hdr.Get("X-Rumba-Node")
	n := f.h.Node(name)
	if n == nil {
		return fmt.Errorf("routed reply names unknown node %q", name)
	}
	f.owner[tenant] = n
	return nil
}

// workDirFor is where a run keeps its package registries: inside the
// checkout's build directory, removed when the run ends.
func workDirFor() (string, error) {
	base := os.Getenv("CARGO_TARGET_DIR")
	if base == "" {
		base = ".bench_build"
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "perfbench-run-")
}
