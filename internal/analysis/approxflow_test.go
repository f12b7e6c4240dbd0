package analysis

import "testing"

// TestApproxFlowUncheckedCommit: an approximate value reaching a channel
// send without a check is the canonical finding.
func TestApproxFlowUncheckedCommit(t *testing.T) {
	diags := runFixture(t, `package af

//rumba:approx
func kernel(in []float64) []float64 { return in }

func pipeline(in []float64, out chan []float64) {
	v := kernel(in)
	out <- v
}
`, AnalyzerApproxFlow)
	expectDiags(t, diags, "approxflow", 1, `approximate value "v" reaches a channel send`)
}

// TestApproxFlowCheckedIsClean: passing the value through an
// //rumba:checked sanitizer discharges the obligation.
func TestApproxFlowCheckedIsClean(t *testing.T) {
	diags := runFixture(t, `package af

//rumba:approx
func kernel(in []float64) []float64 { return in }

//rumba:checked
func check(approx []float64) float64 { return approx[0] }

func pipeline(in []float64, out chan []float64) {
	v := kernel(in)
	_ = check(v)
	out <- v
}
`, AnalyzerApproxFlow)
	expectDiags(t, diags, "approxflow", 0)
}

// TestApproxFlowPredictErrorSanitizes: a method named PredictError* is a
// sanitizer without any directive (the predictor convention).
func TestApproxFlowPredictErrorSanitizes(t *testing.T) {
	diags := runFixture(t, `package af

type checker struct{}

func (checker) PredictErrorBatch(dst []float64, ins, outs [][]float64) {}

//rumba:approx
func kernelBatch(ins [][]float64) [][]float64 { return ins }

func pipeline(c checker, ins [][]float64, preds []float64, out chan [][]float64) {
	rows := kernelBatch(ins)
	c.PredictErrorBatch(preds, ins, rows)
	out <- rows
}
`, AnalyzerApproxFlow)
	expectDiags(t, diags, "approxflow", 0)
}

// TestApproxFlowOrdering: checking AFTER the commit does not discharge the
// obligation — the CFG sees the order.
func TestApproxFlowOrdering(t *testing.T) {
	diags := runFixture(t, `package af

//rumba:approx
func kernel(in []float64) []float64 { return in }

//rumba:checked
func check(approx []float64) float64 { return approx[0] }

func pipeline(in []float64, out chan []float64) {
	v := kernel(in)
	out <- v
	_ = check(v)
}
`, AnalyzerApproxFlow)
	expectDiags(t, diags, "approxflow", 1, "reaches a channel send")
}

// TestApproxFlowCheckedOnSomePath: the merge join takes the furthest
// typestate, so a value checked under a conditional counts as checked
// downstream (the Checker != nil pattern of internal/core).
func TestApproxFlowCheckedOnSomePath(t *testing.T) {
	diags := runFixture(t, `package af

//rumba:approx
func kernel(in []float64) []float64 { return in }

//rumba:checked
func check(approx []float64) float64 { return approx[0] }

func pipeline(in []float64, haveChecker bool, out chan []float64) {
	v := kernel(in)
	if haveChecker {
		_ = check(v)
	}
	out <- v
}
`, AnalyzerApproxFlow)
	expectDiags(t, diags, "approxflow", 0)
}

// TestApproxFlowInterproceduralDst: a helper that fills its destination
// parameter from the approximate path taints the caller's buffer; a helper
// that commits its parameter reports at the caller's call site.
func TestApproxFlowInterproceduralDst(t *testing.T) {
	diags := runFixture(t, `package af

//rumba:approx
func kernel(in []float64) []float64 { return in }

func fill(dst []float64, in []float64) {
	v := kernel(in)
	copy(dst, v)
}

func commit(v []float64, out chan []float64) {
	out <- v
}

func pipeline(in []float64, out chan []float64) {
	buf := make([]float64, len(in))
	fill(buf, in)
	commit(buf, out)
}
`, AnalyzerApproxFlow)
	expectDiags(t, diags, "approxflow", 1, "af.commit (which commits it)")
}

// TestApproxFlowPassThrough: taint survives a pass-through helper and a
// composite literal wrap.
func TestApproxFlowPassThrough(t *testing.T) {
	diags := runFixture(t, `package af

//rumba:approx
func kernel(in []float64) []float64 { return in }

func id(x []float64) []float64 { return x }

type result struct {
	Output []float64
}

func pipeline(in []float64, out chan result) {
	v := id(kernel(in))
	out <- result{Output: v}
}
`, AnalyzerApproxFlow)
	expectDiags(t, diags, "approxflow", 1, "reaches a channel send")
}

// TestApproxFlowDerivedParamSink: a helper that encodes one parameter into
// a local buffer and writes that buffer commits the parameter, so the
// caller passing an unchecked value is the finding — and only for that
// parameter, not the writer or the buffer beside it.
func TestApproxFlowDerivedParamSink(t *testing.T) {
	diags := runFixture(t, `package af

import (
	"net/http"
	"strconv"
)

//rumba:approx
func kernel(in []float64) []float64 { return in }

func encode(b []byte, out []float64) []byte {
	for _, v := range out {
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return b
}

func reply(w http.ResponseWriter, buf []byte, out []float64) {
	enc := encode(buf[:0], out)
	_, _ = w.Write(enc)
}

func serve(w http.ResponseWriter, in []float64) {
	reply(w, nil, in)
	reply(w, nil, kernel(in))
}
`, AnalyzerApproxFlow)
	expectDiags(t, diags, "approxflow", 1, "reaches af.reply (which commits it)")
}

// TestApproxFlowAllowSuppression: //rumba:allow approxflow acknowledges a
// deliberate unchecked commit (the Checker-less deployment mode).
func TestApproxFlowAllowSuppression(t *testing.T) {
	diags := runFixture(t, `package af

//rumba:approx
func kernel(in []float64) []float64 { return in }

func pipeline(in []float64, out chan []float64) {
	v := kernel(in)
	//rumba:allow approxflow unchecked mode is explicit in this deployment
	out <- v
}
`, AnalyzerApproxFlow)
	expectDiags(t, diags, "approxflow", 0)
	suppressed := 0
	for _, d := range diags {
		if d.Analyzer == "approxflow" && d.Suppressed {
			suppressed++
		}
	}
	if suppressed != 1 {
		t.Fatalf("want exactly 1 suppressed approxflow finding, got %d", suppressed)
	}
}

// TestApproxFlowClosureCapture: taint reaches a commit inside a nested
// function literal through a captured variable.
func TestApproxFlowClosureCapture(t *testing.T) {
	diags := runFixture(t, `package af

//rumba:approx
func kernel(in []float64) []float64 { return in }

func pipeline(in []float64, out chan []float64) func() {
	v := kernel(in)
	return func() {
		out <- v
	}
}
`, AnalyzerApproxFlow)
	expectDiags(t, diags, "approxflow", 1, "reaches a channel send")
}

// TestApproxFlowRecoveryShape: the detect -> fire -> recover -> merge shape
// of internal/core, reduced: checked rows go to either path, recovery
// passes the approx value through to a clean commit. No findings.
func TestApproxFlowRecoveryShape(t *testing.T) {
	diags := runFixture(t, `package af

type job struct {
	input  []float64
	approx []float64
}

//rumba:approx
func kernelBatch(ins [][]float64) [][]float64 { return ins }

type checker struct{}

func (checker) PredictErrorBatch(dst []float64, ins, outs [][]float64) {}

func exact(in []float64) []float64 { return in }

func recoverOne(j job) []float64 {
	out := exact(j.input)
	if out == nil {
		return j.approx // degraded: commit the approximate output
	}
	return out
}

func detect(c checker, ins [][]float64, preds []float64, recovery chan job, merged chan []float64) {
	rows := kernelBatch(ins)
	c.PredictErrorBatch(preds, ins, rows)
	for i := range rows {
		if preds[i] > 0.5 {
			recovery <- job{input: ins[i], approx: rows[i]}
		} else {
			merged <- rows[i]
		}
	}
}

func worker(recovery chan job, merged chan []float64) {
	for j := range recovery {
		merged <- recoverOne(j)
	}
}
`, AnalyzerApproxFlow)
	expectDiags(t, diags, "approxflow", 0)
}
