package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rumba/internal/obs"
	"rumba/internal/server"
)

// fakeNode is a scriptable stand-in for rumba-serve: always ready, and its
// /v1/invoke answer identifies which node served (the router tests are about
// routing, not pipelines — e2e_test.go covers real nodes).
type fakeNode struct {
	name    string
	hs      *httptest.Server
	invokes atomic.Int64
	// respond overrides the invoke answer; nil echoes {"served_by": name}.
	respond func(w http.ResponseWriter, r *http.Request)
}

func newFakeNode(t *testing.T, name string) *fakeNode {
	t.Helper()
	n := &fakeNode{name: name}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/invoke", func(w http.ResponseWriter, r *http.Request) {
		n.invokes.Add(1)
		if n.respond != nil {
			n.respond(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"served_by":%q}`, n.name)
	})
	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"tenants":[{"tenant":"on-%s","kernel":"synth","checker":"score","threshold":0.1}]}`, n.name)
	})
	mux.HandleFunc("GET /v1/kernels", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"kernels":["synth"]}`)
	})
	mux.HandleFunc("GET /v1/tenants/{id}/health", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"tenant":%q,"node":%q}`, r.PathValue("id"), n.name)
	})
	n.hs = httptest.NewServer(mux)
	t.Cleanup(n.hs.Close)
	return n
}

// newFakeCluster builds a router over n scripted nodes and probes once so
// every node starts up.
func newFakeCluster(t *testing.T, n int, opts Options) (*Router, map[string]*fakeNode) {
	t.Helper()
	nodes := make([]Node, 0, n)
	fakes := make(map[string]*fakeNode, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("n%d", i)
		f := newFakeNode(t, name)
		fakes[name] = f
		nodes = append(nodes, Node{Name: name, URL: f.hs.URL})
	}
	rt, err := NewRouter(nodes, opts)
	if err != nil {
		t.Fatal(err)
	}
	rt.Membership().ProbeNow(context.Background())
	return rt, fakes
}

// routerInvoke POSTs an invoke body through the router and returns status,
// decoded body and the X-Rumba-Node header.
func routerInvoke(t *testing.T, url string, body string) (int, map[string]any, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/invoke", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	var decoded map[string]any
	if len(payload) > 0 {
		if err := json.Unmarshal(payload, &decoded); err != nil {
			t.Fatalf("undecodable reply %q: %v", payload, err)
		}
	}
	return resp.StatusCode, decoded, resp.Header.Get("X-Rumba-Node")
}

func TestRouterRoutesByTenantDeterministically(t *testing.T) {
	rt, fakes := newFakeCluster(t, 3, Options{})
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()

	owner := rt.Ring().Owner("acme")
	for i := 0; i < 5; i++ {
		status, body, node := routerInvoke(t, hs.URL, `{"tenant":"acme","kernel":"synth","inputs":[[1,0,0]]}`)
		if status != http.StatusOK {
			t.Fatalf("status = %d", status)
		}
		if node != owner || body["served_by"] != owner {
			t.Fatalf("request %d served by %v (header %q), want owner %s", i, body["served_by"], node, owner)
		}
	}
	if got := fakes[owner].invokes.Load(); got != 5 {
		t.Fatalf("owner saw %d invokes, want 5", got)
	}
	// The empty tenant routes as "default", same placement every time.
	_, _, a := routerInvoke(t, hs.URL, `{"kernel":"synth","inputs":[[1,0,0]]}`)
	_, _, b := routerInvoke(t, hs.URL, `{"kernel":"synth","inputs":[[1,0,0]]}`)
	if a != b || a != rt.Ring().Owner("default") {
		t.Fatalf("default tenant flapped: %q vs %q", a, b)
	}
	if c := rt.Metrics().Counter(obs.Labeled(MetricForwards, "node", owner)).Value(); c < 5 {
		t.Fatalf("forwards{%s} = %d", owner, c)
	}
}

func TestRouterFailsOverOnDeadOwner(t *testing.T) {
	rt, fakes := newFakeCluster(t, 3, Options{})
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()

	replicas := rt.Ring().Replicas("acme", 0)
	owner, second := replicas[0], replicas[1]
	fakes[owner].hs.Close() // crash, no probe round yet: router learns from the failed forward

	status, body, node := routerInvoke(t, hs.URL, `{"tenant":"acme","kernel":"synth","inputs":[[1,0,0]]}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200 via failover", status)
	}
	if node != second || body["served_by"] != second {
		t.Fatalf("served by %v, want second replica %s", body["served_by"], second)
	}
	if c := rt.Metrics().Counter(obs.Labeled(MetricFailovers, "node", owner)).Value(); c != 1 {
		t.Fatalf("failovers{%s} = %d, want 1", owner, c)
	}
	if c := rt.Metrics().Counter(MetricUnroutable).Value(); c != 0 {
		t.Fatalf("unroutable = %d, want 0", c)
	}

	// Once probing marks the owner down, forwards skip it without burning an
	// attempt — the failover counter stays put.
	for i := 0; i < 3; i++ {
		rt.Membership().ProbeNow(context.Background())
	}
	if st := rt.Membership().State(owner); st != NodeDown {
		t.Fatalf("owner state = %v after 3 failed probes", st)
	}
	if _, _, node := routerInvoke(t, hs.URL, `{"tenant":"acme","kernel":"synth","inputs":[[1,0,0]]}`); node != second {
		t.Fatalf("post-probe request served by %q", node)
	}
	if c := rt.Metrics().Counter(obs.Labeled(MetricFailovers, "node", owner)).Value(); c != 1 {
		t.Fatalf("skipping a down node consumed failover budget: failovers{%s} = %d", owner, c)
	}
}

func TestRouterRetriesOn503(t *testing.T) {
	rt, fakes := newFakeCluster(t, 2, Options{})
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()

	replicas := rt.Ring().Replicas("acme", 0)
	fakes[replicas[0]].respond = func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "shedding", http.StatusServiceUnavailable)
	}
	status, _, node := routerInvoke(t, hs.URL, `{"tenant":"acme","kernel":"synth","inputs":[[1,0,0]]}`)
	if status != http.StatusOK || node != replicas[1] {
		t.Fatalf("status=%d node=%q, want 200 from %s", status, node, replicas[1])
	}
}

func TestRouterDoesNotRetryApplicationErrors(t *testing.T) {
	rt, fakes := newFakeCluster(t, 3, Options{})
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()

	owner := rt.Ring().Owner("acme")
	fakes[owner].respond = func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"no kernel ghost"}`, http.StatusNotFound)
	}
	status, _, node := routerInvoke(t, hs.URL, `{"tenant":"acme","kernel":"ghost","inputs":[[1,0,0]]}`)
	if status != http.StatusNotFound || node != owner {
		t.Fatalf("status=%d node=%q — a 404 is the tenant's answer, not grounds for failover", status, node)
	}
	for name, f := range fakes {
		if name != owner && f.invokes.Load() != 0 {
			t.Fatalf("node %s saw an invoke after a non-retryable status", name)
		}
	}
}

func TestRouterUnroutableWhenAllReplicasDead(t *testing.T) {
	rt, fakes := newFakeCluster(t, 2, Options{})
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()
	for _, f := range fakes {
		f.hs.Close()
	}
	status, body, _ := routerInvoke(t, hs.URL, `{"tenant":"acme","kernel":"synth","inputs":[[1,0,0]]}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", status)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "unroutable") {
		t.Fatalf("error = %v", body)
	}
	if c := rt.Metrics().Counter(MetricUnroutable).Value(); c != 1 {
		t.Fatalf("unroutable = %d", c)
	}
}

func TestRouterRetryBudgetDisabled(t *testing.T) {
	// Retries < 0 pins every tenant to its owner: a dead owner is an error
	// even with healthy replicas (strict-affinity deployments).
	rt, fakes := newFakeCluster(t, 3, Options{Retries: -1})
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()
	owner := rt.Ring().Owner("acme")
	fakes[owner].hs.Close()
	status, _, _ := routerInvoke(t, hs.URL, `{"tenant":"acme","kernel":"synth","inputs":[[1,0,0]]}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 with failover disabled", status)
	}
	for name, f := range fakes {
		if name != owner && f.invokes.Load() != 0 {
			t.Fatalf("node %s served despite Retries<0", name)
		}
	}
}

func TestRouterDeadlineStopsFailover(t *testing.T) {
	rt, fakes := newFakeCluster(t, 2, Options{})
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()
	for _, f := range fakes {
		f.respond = func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(300 * time.Millisecond)
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{}`)
		}
	}
	start := time.Now()
	status, body, _ := routerInvoke(t, hs.URL, `{"tenant":"acme","kernel":"synth","inputs":[[1,0,0]],"deadlineMs":100}`)
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%v), want 504 on expired deadline", status, body)
	}
	// One slow attempt eats the whole 100ms budget; the second replica must
	// not be tried for another 300ms after the client's deadline passed.
	if elapsed > time.Second {
		t.Fatalf("router kept failing over for %v after the deadline", elapsed)
	}
}

func TestRouterBadInvokeBody(t *testing.T) {
	rt, _ := newFakeCluster(t, 2, Options{})
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()
	status, body, _ := routerInvoke(t, hs.URL, `{not json`)
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d (%v)", status, body)
	}
}

// TestTrailingBytesRejectedOnBothPaths: a body with non-space bytes after
// the object is a 400 whether it goes through the router or straight to the
// owning node (json.Decoder used to let the node accept what the router's
// json.Unmarshal refused), while trailing white space is fine on both.
func TestTrailingBytesRejectedOnBothPaths(t *testing.T) {
	h, err := NewHarness(HarnessOptions{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	const body = `{"tenant":"acme","kernel":"synth","inputs":[[1,0,0]]}`
	for _, path := range []struct{ name, url string }{
		{"router", h.URL()},
		{"node", h.Nodes[0].HTTP.URL},
	} {
		for _, tc := range []struct {
			suffix string
			status int
		}{{" \n", http.StatusOK}, {" x", http.StatusBadRequest}, {"{}", http.StatusBadRequest}} {
			status, decoded, _ := routerInvoke(t, path.url, body+tc.suffix)
			if status != tc.status {
				t.Fatalf("%s: body+%q = %d (%v), want %d", path.name, tc.suffix, status, decoded, tc.status)
			}
		}
	}
}

// TestRouterBodyTooLarge: one byte past maxForwardBytes is a 413 on both the
// invoke and the tenant-scoped routes, and nothing is forwarded.
func TestRouterBodyTooLarge(t *testing.T) {
	rt, fakes := newFakeCluster(t, 2, Options{})
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()
	big := bytes.Repeat([]byte{' '}, maxForwardBytes+1)
	for _, route := range []struct{ method, path string }{
		{http.MethodPost, "/v1/invoke"},
		{http.MethodPut, "/v1/tenants/acme/state"},
	} {
		req, err := http.NewRequest(route.method, hs.URL+route.path, bytes.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var body struct {
			Error string `json:"error"`
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge || json.Unmarshal(payload, &body) != nil || body.Error == "" {
			t.Fatalf("%s %s with %d bytes = %d %q, want 413", route.method, route.path, len(big), resp.StatusCode, payload)
		}
	}
	for name, f := range fakes {
		if n := f.invokes.Load(); n != 0 {
			t.Fatalf("node %s saw %d invokes of an oversized body", name, n)
		}
	}
}

func TestRouterTenantScopedForwarding(t *testing.T) {
	rt, _ := newFakeCluster(t, 3, Options{})
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()
	owner := rt.Ring().Owner("acme")
	resp, err := http.Get(hs.URL + "/v1/tenants/acme/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Tenant string `json:"tenant"`
		Node   string `json:"node"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Tenant != "acme" || body.Node != owner {
		t.Fatalf("health forwarded to %q for %q, want owner %s", body.Node, body.Tenant, owner)
	}
}

func TestRouterTenantsMergeAcrossNodes(t *testing.T) {
	rt, fakes := newFakeCluster(t, 3, Options{})
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()

	var listing struct {
		Tenants []server.TenantInfo `json:"tenants"`
	}
	getInto(t, hs.URL+"/v1/tenants", &listing)
	if len(listing.Tenants) != 3 {
		t.Fatalf("merged %d tenants, want 3: %+v", len(listing.Tenants), listing.Tenants)
	}
	for i := 1; i < len(listing.Tenants); i++ {
		if listing.Tenants[i-1].Tenant > listing.Tenants[i].Tenant {
			t.Fatalf("merge unsorted: %+v", listing.Tenants)
		}
	}

	// A dead node drops out of the merge instead of failing it.
	fakes["n0"].hs.Close()
	for i := 0; i < 3; i++ {
		rt.Membership().ProbeNow(context.Background())
	}
	getInto(t, hs.URL+"/v1/tenants", &listing)
	if len(listing.Tenants) != 2 {
		t.Fatalf("merged %d tenants after node loss, want 2", len(listing.Tenants))
	}
}

func TestRouterClusterStatusAndOps(t *testing.T) {
	rt, fakes := newFakeCluster(t, 3, Options{TraceCapacity: 16})
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()

	var status ClusterStatus
	getInto(t, hs.URL+"/v1/cluster", &status)
	if len(status.Nodes) != 3 || status.VNodes != DefaultVNodes {
		t.Fatalf("cluster status = %+v", status)
	}
	for _, n := range status.Nodes {
		if n.State != "up" {
			t.Fatalf("node %s state %q, want up", n.Name, n.State)
		}
	}

	var version server.VersionInfo
	getInto(t, hs.URL+"/v1/version", &version)
	if version.Service != "rumba-router" || version.GoVersion == "" {
		t.Fatalf("version = %+v", version)
	}

	if status, _ := httpGetText(t, hs.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz = %d", status)
	}
	if status, _ := httpGetText(t, hs.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("readyz = %d with all nodes up", status)
	}
	if status, body := httpGetText(t, hs.URL+"/metrics"); status != http.StatusOK ||
		!strings.Contains(body, "rumba_cluster_probe_state") {
		t.Fatalf("metrics = %d, missing probe gauge:\n%s", status, body)
	}

	// readyz flips once every node is down.
	for _, f := range fakes {
		f.hs.Close()
	}
	for i := 0; i < 3; i++ {
		rt.Membership().ProbeNow(context.Background())
	}
	if status, body := httpGetText(t, hs.URL+"/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d %q with the whole cluster down", status, body)
	}
}

func TestRouterKernelsForwarding(t *testing.T) {
	rt, _ := newFakeCluster(t, 2, Options{})
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()
	var kernels struct {
		Kernels []string `json:"kernels"`
	}
	getInto(t, hs.URL+"/v1/kernels", &kernels)
	if len(kernels.Kernels) != 1 || kernels.Kernels[0] != "synth" {
		t.Fatalf("kernels = %+v", kernels)
	}
}

func TestRouterTracesFailover(t *testing.T) {
	rt, fakes := newFakeCluster(t, 2, Options{TraceCapacity: 16})
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()

	replicas := rt.Ring().Replicas("acme", 0)
	fakes[replicas[0]].hs.Close()
	if status, _, _ := routerInvoke(t, hs.URL, `{"tenant":"acme","kernel":"synth","inputs":[[1,0,0]]}`); status != http.StatusOK {
		t.Fatalf("failover invoke = %d", status)
	}
	status, body := httpGetText(t, hs.URL+"/debug/rumba/traces")
	if status != http.StatusOK {
		t.Fatalf("traces = %d", status)
	}
	if !strings.Contains(body, "failover") || !strings.Contains(body, "forward") {
		t.Fatalf("trace dump lacks the failover-flagged forward spans:\n%s", body)
	}
}

func TestRouterTracingDisabledByDefault(t *testing.T) {
	rt, _ := newFakeCluster(t, 2, Options{})
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()
	if status, _ := httpGetText(t, hs.URL+"/debug/rumba/traces"); status != http.StatusNotFound {
		t.Fatalf("traces = %d without TraceCapacity, want 404", status)
	}
}

func getInto(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, bytes.TrimSpace(payload))
	}
	if err := json.Unmarshal(payload, into); err != nil {
		t.Fatalf("GET %s: %v in %q", url, err, payload)
	}
}

func httpGetText(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}
