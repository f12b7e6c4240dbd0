package main

import (
	"fmt"
	"math"
	"strconv"

	"rumba/internal/bench"
	"rumba/internal/exec"
	"rumba/internal/pkg"
	"rumba/internal/predictor"
	"rumba/internal/quality"
	"rumba/internal/server"
)

// oracle predicts, element by element, what a TOQ tenant must receive: the
// package's own approximate output when the checker stays quiet, the exact
// kernel output when it fires. In TOQ mode the threshold is pinned at the
// tenant's target, so the expectation depends on the input alone.
type oracle struct {
	spec    *bench.Spec
	exec    exec.Executor
	checker predictor.Predictor
	target  float64
}

// newOracle builds an oracle over a private executor and checker loaded from
// the package directory the nodes booted from.
func newOracle(pkgDir string, target float64) (*oracle, error) {
	p, err := pkg.Load(pkgDir)
	if err != nil {
		return nil, err
	}
	acc, err := p.Bundle.Accelerator()
	if err != nil {
		return nil, err
	}
	checker, name := p.DefaultChecker()
	if name != checkerName {
		return nil, fmt.Errorf("oracle: package default checker is %q, want %q", name, checkerName)
	}
	return &oracle{spec: p.Spec, exec: acc, checker: checker, target: target}, nil
}

// expected is the oracle's verdict for one request.
type expected struct {
	outputs [][]float64 // what an unshed reply carries, after the JSON round trip
	approx  [][]float64 // what a shed reply carries
	fixed   int         // fired elements, which the reply's fixed count must equal
	// errSum and shedErrSum are the summed quality.ElementError against
	// Spec.Exact of outputs and of approx: the error a tenant receives.
	errSum, shedErrSum float64
}

func (o *oracle) expect(inputs [][]float64) expected {
	e := expected{outputs: make([][]float64, len(inputs)), approx: make([][]float64, len(inputs))}
	for i, in := range inputs {
		approx := o.exec.Invoke(in)
		exact := o.spec.Exact(in)
		out := approx
		if o.checker.PredictError(in, approx) > o.target {
			out = exact
			e.fixed++
		}
		e.outputs[i] = jsonRoundTrip(out)
		e.approx[i] = jsonRoundTrip(approx)
		e.errSum += quality.ElementError(o.spec.Metric, exact, e.outputs[i], o.spec.Scale)
		e.shedErrSum += quality.ElementError(o.spec.Metric, exact, e.approx[i], o.spec.Scale)
	}
	return e
}

// jsonRoundTrip is what encoding/json does to a float64 on the wire: the
// shortest decimal that parses back to the same value.
func jsonRoundTrip(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i], _ = strconv.ParseFloat(strconv.FormatFloat(x, 'g', -1, 64), 64)
	}
	return out
}

// check compares a reply with the expectation bit for bit.
func (e *expected) check(resp *server.InvokeResponse) error {
	want := e.outputs
	if resp.Degraded {
		want = e.approx
		if resp.Fixed != 0 {
			return fmt.Errorf("shed reply reports %d fixed elements", resp.Fixed)
		}
	} else if resp.Fixed != e.fixed {
		return fmt.Errorf("reply fixed %d elements, oracle fired on %d", resp.Fixed, e.fixed)
	}
	if len(resp.Outputs) != len(want) || resp.Elements != len(want) {
		return fmt.Errorf("reply has %d outputs (elements %d), request had %d", len(resp.Outputs), resp.Elements, len(want))
	}
	for i, row := range resp.Outputs {
		if len(row) != len(want[i]) {
			return fmt.Errorf("output %d has width %d, want %d", i, len(row), len(want[i]))
		}
		for j, v := range row {
			if math.Float64bits(v) != math.Float64bits(want[i][j]) {
				return fmt.Errorf("output %d[%d] = %v, oracle expects %v", i, j, v, want[i][j])
			}
		}
	}
	return nil
}
