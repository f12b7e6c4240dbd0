package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"rumba/internal/server"
	"rumba/internal/trace"
)

// benchmarkFile is the part of ../BENCHMARK.json these tests hold the
// program to.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEveryMetricPrinted runs every workload briefly, untraced and traced,
// and checks the last line names exactly the declared metrics with their
// units, and that every request passed the oracle.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the cluster six times")
	}
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": b.EndToEnd, "1": b.PerLayer} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", trace}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w.Name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var got struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w.Name, trace, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Fatalf("%s trace %s: correct=%v attempted=%d failed=%d", w.Name, trace, got.Correct, got.Attempted, got.Failed)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics printed, %d declared", w.Name, trace, len(got.Metrics), len(want))
			}
			for _, m := range want {
				g, ok := got.Metrics[m.Name]
				if !ok || g.Unit != m.Unit || math.IsNaN(g.Value) || math.IsInf(g.Value, 0) {
					t.Errorf("%s trace %s: metric %s = %+v, want a number in %s", w.Name, trace, m.Name, g, m.Unit)
				}
			}
		}
	}
}

// TestOracleRejectsWrongReplies checks that the oracle accepts the reply it
// predicts and refuses a corrupted output, a dropped element, a wrong fixed
// count and a shed reply that is not all approximate.
func TestOracleRejectsWrongReplies(t *testing.T) {
	pkgDir, err := trainPackage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	orc, err := newOracle(pkgDir, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	exp := orc.expect(genInputs(rand.New(rand.NewSource(3)), 64))
	if exp.fixed == 0 || exp.fixed == 64 {
		t.Fatalf("want a mix of fired and quiet elements, got %d fired of 64", exp.fixed)
	}
	reply := func() *server.InvokeResponse {
		out := make([][]float64, len(exp.outputs))
		for i, row := range exp.outputs {
			out[i] = append([]float64(nil), row...)
		}
		return &server.InvokeResponse{Outputs: out, Elements: len(out), Fixed: exp.fixed, Checker: checkerName}
	}
	if err := exp.check(reply()); err != nil {
		t.Fatalf("oracle rejects the reply it predicts: %v", err)
	}
	corrupt := reply()
	corrupt.Outputs[5][0] = math.Nextafter(corrupt.Outputs[5][0], math.Inf(1))
	dropped := reply()
	dropped.Outputs = dropped.Outputs[:63]
	dropped.Elements = 63
	wrongFixed := reply()
	wrongFixed.Fixed++
	shedExact := reply()
	shedExact.Degraded, shedExact.Fixed = true, 0
	shedApprox := reply()
	shedApprox.Degraded, shedApprox.Fixed, shedApprox.Outputs = true, 0, exp.approx
	if err := exp.check(shedApprox); err != nil {
		t.Fatalf("oracle rejects an all-approximate shed reply: %v", err)
	}
	for name, r := range map[string]*server.InvokeResponse{
		"corrupted output": corrupt, "dropped element": dropped,
		"wrong fixed count": wrongFixed, "shed reply with exact outputs": shedExact,
	} {
		if err := exp.check(r); err == nil {
			t.Errorf("oracle accepts a reply with a %s", name)
		}
	}
}

// TestCalibratedFireRates pins the fire rates README.md documents for the
// seed's pool: each workload's TOQ target was chosen for them.
func TestCalibratedFireRates(t *testing.T) {
	pkgDir, err := trainPackage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		workload string
		lo, hi   float64
	}{{"tiny-routed", 0.55, 0.60}, {"bulk-direct", 0.001, 0.01}, {"recover-inproc", 0.85, 0.97}} {
		w, err := workloadByName(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		orc, err := newOracle(pkgDir, w.target)
		if err != nil {
			t.Fatal(err)
		}
		inputs, _ := genPool(w, 1)
		var fired, n int
		for _, in := range inputs {
			fired += orc.expect(in).fixed
			n += len(in)
		}
		if rate := float64(fired) / float64(n); rate < c.lo || rate > c.hi {
			t.Errorf("%s: seed 1 fires on %.4f of elements, calibrated for [%v, %v]", c.workload, rate, c.lo, c.hi)
		}
	}
}

// TestSplitTraceSumsToStream checks that overlapping child spans are charged
// once: the stream's parts and its self time add up to the stream span.
func TestSplitTraceSumsToStream(t *testing.T) {
	s := trace.Snapshot{DurationNs: 100, Spans: []trace.SpanSnapshot{
		{ID: 1, Name: "invoke", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "admission", Start: 5, End: 10},
		{ID: 3, Parent: 1, Name: "stream", Start: 10, End: 90},
		{ID: 4, Parent: 3, Name: "stream.chunk", Start: 12, End: 50},
		{ID: 5, Parent: 4, Name: "accel.invoke", Start: 14, End: 30},
		{ID: 6, Parent: 4, Name: "checker.predict", Start: 30, End: 34},
		{ID: 7, Parent: 3, Name: "exec.recover", Start: 25, End: 60},
		{ID: 8, Parent: 3, Name: "merge.commit", Start: 55, End: 95},
	}}
	sp, ok := splitTrace(s)
	if !ok {
		t.Fatal("splitTrace rejected a well-formed trace")
	}
	want := map[string]int64{
		"accel.invoke":    16, // 14..30
		"checker.predict": 4,  // 30..34
		"exec.recover":    26, // 25..60 less 25..34
		"merge.commit":    30, // 55..90 (clipped to the stream) less 55..60
		"stream.chunk":    2,  // 12..14
	}
	var sum int64
	for name, v := range want {
		if sp.parts[name] != v {
			t.Errorf("%s: %d ns, want %d", name, sp.parts[name], v)
		}
		sum += sp.parts[name]
	}
	if sp.streamSelf != 80-sum || sp.streamSelf != 2 { // 10..12
		t.Errorf("stream self %d, want %d", sp.streamSelf, 80-sum)
	}
	if sp.admission != 5 || sp.rest != 100-5-80 || sp.mergeBusy != 40 || sp.recovers != 1 {
		t.Errorf("admission %d rest %d mergeBusy %d recovers %d", sp.admission, sp.rest, sp.mergeBusy, sp.recovers)
	}
}

// TestCalmestKeepsLeastStolenInRunOrder checks the window selection the
// end-to-end figures rest on.
func TestCalmestKeepsLeastStolenInRunOrder(t *testing.T) {
	for _, c := range []struct {
		steal []int64
		k     int
		want  []int
	}{
		{[]int64{5, 0, 3, 0, 9, 1, 7, 2, 0, 8}, 6, []int{1, 2, 3, 5, 7, 8}}, // steals 0, 3, 0, 1, 2, 0
		{[]int64{4, 0, 1, 0, 0, 2}, 2, []int{1, 3, 4}},                      // three tie for the calmest two
		{[]int64{0, 0, 0, 0}, 2, []int{0, 1, 2, 3}},                         // a steady counter keeps every window
		{[]int64{3, 1}, 6, []int{0, 1}},                                     // fewer windows than k
	} {
		if got := calmest(c.steal, c.k); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("calmest(%v, %d) = %v, want %v", c.steal, c.k, got, c.want)
		}
	}
}
