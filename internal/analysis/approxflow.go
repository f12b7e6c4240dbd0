package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The approxflow analyzer enforces the Rumba contract that gives the whole
// system its quality guarantee: a value produced by the approximate path
// (an accelerator invoke, a batched NPU forward, an //rumba:approx
// function) must flow through a checker — a predictor PredictError*,
// quality.ElementError, or an //rumba:checked function — before it is
// committed (sent on a channel toward the output merger, written to an
// HTTP response, encoded or persisted).
//
// It is a typestate analysis over the CFGs of cfg.go with three states per
// object, ordered Clean < Tainted < Checked:
//
//	Clean    not derived from the approximate path
//	Tainted  approximate output with an undischarged check obligation
//	Checked  approximate output that has passed a checker
//
// At CFG merge points the join takes the FURTHEST typestate (a value
// checked on one incoming path counts as checked: the analysis is
// "checked-on-some-path", trading soundness for a signal that stays useful
// — the alternative poisons every checked value with the state of the
// not-yet-checked path that always joins it). Inside one expression the
// combination is tainted-dominant: mixing a tainted operand into a
// composite taints the composite. Ordering is respected — committing a
// value and checking it afterwards still reports, which an AST walk cannot
// see.
//
// Interprocedural flow uses per-function summaries computed to a fixpoint,
// each from two runs over the function's CFGs: one with clean parameters
// (local findings, returns-taint, which reference parameters the function
// taints or checks for its caller) and one with tainted parameters
// (pass-through, which parameters reach a commit sink). Function literals
// are analysed under their own CFGs, inheriting the accumulated state of
// the variables they capture.
//
// Escape hatch: //rumba:allow approxflow on or above the reported line,
// with a justification (the Checker-less configuration of internal/core
// commits unchecked by design; the annotation is where that design
// decision becomes visible and greppable).

// Taint states. Numeric order IS the typestate progression; the CFG join
// takes the max.
const (
	taintClean   int8 = 0
	taintTainted int8 = 1
	taintChecked int8 = 2
)

type taintState = map[types.Object]int8

func cloneTaint(s taintState) taintState {
	out := make(taintState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// joinTaint is the CFG merge: furthest typestate wins.
func joinTaint(dst, src taintState) bool {
	changed := false
	for k, v := range src {
		if v > dst[k] {
			dst[k] = v
			changed = true
		}
	}
	return changed
}

// taintCombine merges taints within one expression: tainted dominates.
func taintCombine(a, b int8) int8 {
	if a == taintTainted || b == taintTainted {
		return taintTainted
	}
	if a > b {
		return a
	}
	return b
}

func setTaint(s taintState, o types.Object, t int8) {
	if o == nil {
		return
	}
	if t == taintClean {
		delete(s, o)
		return
	}
	s[o] = t
}

// taintSourceSpec marks well-known approximate-path producers that live
// behind interfaces or outside the summary fixpoint's reach. Methods only;
// free module functions get summaries from their bodies.
type taintSourceSpec struct {
	pkgSuffix string // import path or suffix ("internal/accel")
	name      string
	dstArgs   []int // argument indices the call fills with approximate data
	results   bool  // results carry approximate data
}

var taintSourceSpecs = []taintSourceSpec{
	{"internal/accel", "Invoke", nil, true},
	{"internal/accel", "InvokeBatch", []int{0}, false},
	{"internal/accel", "InvokeAll", nil, true},
	{"internal/nn", "ForwardBatch", []int{0}, false},
	{"internal/exec", "Invoke", nil, true},
	{"internal/exec", "InvokeBatch", []int{0}, false},
}

func taintSourceFor(obj *types.Func) *taintSourceSpec {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	pkg := obj.Pkg()
	if pkg == nil {
		return nil
	}
	for i := range taintSourceSpecs {
		sp := &taintSourceSpecs[i]
		if sp.name != obj.Name() {
			continue
		}
		if pkg.Path() == sp.pkgSuffix || strings.HasSuffix(pkg.Path(), "/"+sp.pkgSuffix) {
			return sp
		}
	}
	return nil
}

// taintSinkSpecs are external commit points: handing a tainted value to one
// of these publishes it.
var taintSinkSpecs = []struct {
	pkgPath string
	name    string
	method  bool
}{
	{"net/http", "Write", true},
	{"encoding/json", "Encode", true},
	{"encoding/json", "Marshal", false},
	{"os", "WriteFile", false},
	{"os", "Write", true},
	{"bufio", "Write", true},
}

func taintSinkFor(obj *types.Func) bool {
	pkg := obj.Pkg()
	if pkg == nil {
		return false
	}
	sig, _ := obj.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	for _, sp := range taintSinkSpecs {
		if sp.pkgPath == pkg.Path() && sp.name == obj.Name() && sp.method == isMethod {
			return true
		}
	}
	return false
}

// taintSummary is the interprocedural fact for one module function.
type taintSummary struct {
	// returnsTaint: results are tainted even with clean inputs (a source).
	returnsTaint bool
	// passThrough: tainted inputs reach the results.
	passThrough bool
	// sanitizes: the function is a checker (//rumba:checked); its arguments
	// come back checked.
	sanitizes bool
	// taintsParams/checksParams: reference parameters (by flattened index)
	// the call leaves tainted/checked.
	taintsParams map[int]bool
	checksParams map[int]bool
	// taintsRecv: the call taints its receiver's state.
	taintsRecv bool
	// sinksParams: parameters that reach a commit sink inside the function
	// while still tainted — passing a tainted argument is the caller's
	// finding.
	sinksParams map[int]bool
}

func newTaintSummary() *taintSummary {
	return &taintSummary{
		taintsParams: map[int]bool{},
		checksParams: map[int]bool{},
		sinksParams:  map[int]bool{},
	}
}

func sameIntSet(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func (a *taintSummary) equal(b *taintSummary) bool {
	return a.returnsTaint == b.returnsTaint &&
		a.passThrough == b.passThrough &&
		a.sanitizes == b.sanitizes &&
		a.taintsRecv == b.taintsRecv &&
		sameIntSet(a.taintsParams, b.taintsParams) &&
		sameIntSet(a.checksParams, b.checksParams) &&
		sameIntSet(a.sinksParams, b.sinksParams)
}

// taintFacts caches the module's summaries and per-function CFGs.
type taintFacts struct {
	sums   map[*types.Func]*taintSummary
	bodies map[*types.Func][]*CFG
}

// taintSummaries computes the interprocedural fixpoint (memoized).
func (m *Module) taintSummaries() map[*types.Func]*taintSummary {
	if m.taint != nil {
		return m.taint.sums
	}
	m.taint = &taintFacts{
		sums:   map[*types.Func]*taintSummary{},
		bodies: map[*types.Func][]*CFG{},
	}
	for obj := range m.infos {
		m.taint.sums[obj] = newTaintSummary()
	}
	// Summaries grow monotonically in practice; the cap is a backstop
	// against oscillation, degrading to the last computed summary.
	for iter := 0; iter < 10; iter++ {
		changed := false
		for obj, fi := range m.infos {
			ns := computeTaintSummary(m, fi, m.taint.sums)
			if !ns.equal(m.taint.sums[obj]) {
				m.taint.sums[obj] = ns
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return m.taint.sums
}

func (m *Module) taintBodies(fi *FuncInfo) []*CFG {
	if cfgs, ok := m.taint.bodies[fi.Obj]; ok {
		return cfgs
	}
	var cfgs []*CFG
	eachFuncBody(fi.Decl, func(body *ast.BlockStmt, _ *ast.FuncLit) {
		cfgs = append(cfgs, buildCFG(fi.Pkg.Info, body))
	})
	m.taint.bodies[fi.Obj] = cfgs
	return cfgs
}

// refLike reports whether a parameter of this type can carry state back to
// the caller (so taints/checks on it are part of the summary).
func refLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}

func computeTaintSummary(m *Module, fi *FuncInfo, sums map[*types.Func]*taintSummary) *taintSummary {
	s := newTaintSummary()
	if fi.Approx {
		s.returnsTaint = true
	}
	if fi.Checked {
		s.sanitizes = true
		return s
	}
	// Run A: clean parameters. Yields returns-taint and the caller-visible
	// effect on reference parameters.
	trA := newTaintRunner(m, fi, sums, false)
	exitA := trA.run(false)
	if trA.retTaint {
		s.returnsTaint = true
	}
	for o, idx := range trA.params {
		if !refLike(o.Type()) {
			continue
		}
		switch exitA[o] {
		case taintTainted:
			s.taintsParams[idx] = true
		case taintChecked:
			s.checksParams[idx] = true
		}
	}
	if trA.recvObj != nil && exitA[trA.recvObj] == taintTainted {
		s.taintsRecv = true
	}
	// Run B: tainted parameters. Yields pass-through and parameter sinks.
	trB := newTaintRunner(m, fi, sums, false)
	trB.run(true)
	if trB.retTaint {
		s.passThrough = true
	}
	for idx := range trB.paramSinks {
		s.sinksParams[idx] = true
	}
	if trB.derivedSink {
		// A value derived from some parameter (an encoded buffer, say)
		// reached a sink: re-run with one parameter tainted at a time to
		// learn which parameters it came from.
		for o, idx := range trB.params {
			tr := newTaintRunner(m, fi, sums, false)
			tr.runTainting(taintState{o: taintTainted})
			if tr.derivedSink || len(tr.paramSinks) > 0 {
				s.sinksParams[idx] = true
			}
		}
	}
	return s
}

// taintRunner analyses one function (declaration body plus nested function
// literals, each under its own CFG).
type taintRunner struct {
	m      *Module
	fi     *FuncInfo
	info   *types.Info
	sums   map[*types.Func]*taintSummary
	report bool

	params       map[types.Object]int // flattened parameter index
	recvObj      types.Object
	namedResults []types.Object

	retTaint   bool
	paramSinks map[int]bool
	// derivedSink: in summary mode, a tainted value whose root is not a
	// parameter (but may derive from one) reached a sink.
	derivedSink bool
	findings    map[token.Pos]string
}

func newTaintRunner(m *Module, fi *FuncInfo, sums map[*types.Func]*taintSummary, report bool) *taintRunner {
	tr := &taintRunner{
		m:          m,
		fi:         fi,
		info:       fi.Pkg.Info,
		sums:       sums,
		report:     report,
		params:     map[types.Object]int{},
		paramSinks: map[int]bool{},
		findings:   map[token.Pos]string{},
	}
	idx := 0
	if fi.Decl.Type.Params != nil {
		for _, f := range fi.Decl.Type.Params.List {
			if len(f.Names) == 0 {
				idx++
				continue
			}
			for _, n := range f.Names {
				if o := tr.info.Defs[n]; o != nil {
					tr.params[o] = idx
				}
				idx++
			}
		}
	}
	if fi.Decl.Recv != nil && len(fi.Decl.Recv.List) > 0 && len(fi.Decl.Recv.List[0].Names) > 0 {
		tr.recvObj = tr.info.Defs[fi.Decl.Recv.List[0].Names[0]]
	}
	if fi.Decl.Type.Results != nil {
		for _, f := range fi.Decl.Type.Results.List {
			for _, n := range f.Names {
				if o := tr.info.Defs[n]; o != nil {
					tr.namedResults = append(tr.namedResults, o)
				}
			}
		}
	}
	return tr
}

// run solves the function's CFGs and returns the state at the declaration
// body's normal exit. Findings are deduplicated by position, so the
// solver's repeated transfers are harmless.
func (tr *taintRunner) run(taintParams bool) taintState {
	entry := taintState{}
	if taintParams {
		for o := range tr.params {
			entry[o] = taintTainted
		}
		if tr.recvObj != nil {
			entry[tr.recvObj] = taintTainted
		}
	}
	return tr.runTainting(entry)
}

// runTainting is run from an explicit entry state.
func (tr *taintRunner) runTainting(entry taintState) taintState {
	transfer := func(b *cfgBlock, in taintState) taintState {
		for _, n := range b.nodes {
			tr.transferNode(n, in)
		}
		return in
	}
	// acc accumulates, tainted-dominant, every state each object may be in
	// at any program point analysed so far: the entry state for a nested
	// literal, which may run at any of those points with its captured
	// variables in any of those states.
	acc := cloneTaint(entry)
	var exit taintState
	for i, cfg := range tr.m.taintBodies(tr.fi) {
		ins := solveForward(cfg, cloneTaint(acc), cloneTaint, joinTaint, transfer)
		if i == 0 {
			if e, ok := ins[cfg.exit]; ok {
				exit = e
			}
		}
		for blk, in := range ins {
			out := transfer(blk, cloneTaint(in))
			for o, t := range out {
				acc[o] = taintCombine(acc[o], t)
			}
		}
	}
	if exit == nil {
		exit = taintState{}
	}
	return exit
}

// root resolves the base object of an expression chain (x, x[i], x.f, *x).
func (tr *taintRunner) root(e ast.Expr) (types.Object, bool) {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		if o := tr.info.Uses[v]; o != nil {
			return o, true
		}
		if o := tr.info.Defs[v]; o != nil {
			return o, true
		}
	case *ast.IndexExpr:
		return tr.root(v.X)
	case *ast.IndexListExpr:
		return tr.root(v.X)
	case *ast.SelectorExpr:
		return tr.root(v.X)
	case *ast.StarExpr:
		return tr.root(v.X)
	case *ast.SliceExpr:
		return tr.root(v.X)
	}
	return nil, false
}

// sink records one commit of a tainted value. In summary mode a sink whose
// root is a parameter becomes the caller's obligation instead of a local
// finding.
func (tr *taintRunner) sink(pos token.Pos, root types.Object, where string) {
	if root != nil {
		if idx, isParam := tr.params[root]; isParam {
			tr.paramSinks[idx] = true
			if !tr.report {
				return
			}
		}
	}
	if !tr.report {
		tr.derivedSink = true
	}
	if _, dup := tr.findings[pos]; dup {
		return
	}
	name := "value"
	if root != nil {
		name = fmt.Sprintf("value %q", root.Name())
	}
	tr.findings[pos] = fmt.Sprintf(
		"approximate %s reaches %s without passing a checker (PredictError*, quality.ElementError, or //rumba:checked)",
		name, where)
}

// transferNode pushes the state through one CFG block node.
func (tr *taintRunner) transferNode(n ast.Node, s taintState) {
	switch v := n.(type) {
	case *ast.RangeStmt:
		// Block node = range header only: bind key/value to the ranged
		// expression's taint.
		t := tr.eval(v.X, s)
		for _, e := range []ast.Expr{v.Key, v.Value} {
			id, ok := e.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			if o := tr.info.Defs[id]; o != nil {
				setTaint(s, o, t)
			} else if o := tr.info.Uses[id]; o != nil {
				setTaint(s, o, t)
			}
		}
	case *ast.AssignStmt:
		tr.assign(v, s)
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					t := taintClean
					if len(vs.Values) == 1 && len(vs.Names) > 1 {
						t = tr.eval(vs.Values[0], s)
					} else if i < len(vs.Values) {
						t = tr.eval(vs.Values[i], s)
					}
					if o := tr.info.Defs[name]; o != nil {
						setTaint(s, o, t)
					}
				}
			}
		}
	case *ast.SendStmt:
		tr.eval(v.Chan, s)
		if tr.eval(v.Value, s) == taintTainted {
			root, _ := tr.root(v.Value)
			tr.sink(v.Pos(), root, "a channel send (commit to the output path)")
		}
	case *ast.ReturnStmt:
		if len(v.Results) == 0 {
			for _, o := range tr.namedResults {
				if s[o] == taintTainted {
					tr.retTaint = true
				}
			}
		}
		for _, e := range v.Results {
			if tr.eval(e, s) == taintTainted {
				tr.retTaint = true
			}
		}
	case *ast.IncDecStmt:
		tr.eval(v.X, s)
	case *ast.GoStmt:
		tr.eval(v.Call, s)
	case *ast.DeferStmt:
		tr.eval(v.Call, s)
	case *ast.ExprStmt:
		tr.eval(v.X, s)
	case ast.Expr:
		tr.eval(v, s)
	}
}

func (tr *taintRunner) assign(as *ast.AssignStmt, s taintState) {
	vals := make([]int8, len(as.Lhs))
	switch {
	case len(as.Rhs) == len(as.Lhs):
		for i, rhs := range as.Rhs {
			vals[i] = tr.eval(rhs, s)
		}
	case len(as.Rhs) == 1:
		t := tr.eval(as.Rhs[0], s)
		for i := range vals {
			vals[i] = t
		}
	}
	compound := as.Tok != token.ASSIGN && as.Tok != token.DEFINE
	for i, lhs := range as.Lhs {
		t := vals[i]
		if id, ok := lhs.(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			o := tr.info.Defs[id]
			if o == nil {
				o = tr.info.Uses[id]
			}
			if o == nil {
				continue
			}
			if compound {
				t = taintCombine(s[o], t)
			}
			setTaint(s, o, t)
			continue
		}
		// Write through a selector/index/deref chain: the root object
		// accumulates the taint (field-insensitive).
		if root, ok := tr.root(lhs); ok {
			setTaint(s, root, taintCombine(s[root], t))
		}
	}
}

func (tr *taintRunner) eval(e ast.Expr, s taintState) int8 {
	switch v := e.(type) {
	case *ast.Ident:
		if o := tr.info.Uses[v]; o != nil {
			return s[o]
		}
		if o := tr.info.Defs[v]; o != nil {
			return s[o]
		}
	case *ast.ParenExpr:
		return tr.eval(v.X, s)
	case *ast.SelectorExpr:
		if root, ok := tr.root(v); ok {
			return s[root]
		}
	case *ast.IndexExpr:
		t := tr.eval(v.X, s)
		tr.eval(v.Index, s)
		return t
	case *ast.IndexListExpr:
		t := tr.eval(v.X, s)
		for _, ix := range v.Indices {
			tr.eval(ix, s)
		}
		return t
	case *ast.SliceExpr:
		t := tr.eval(v.X, s)
		for _, ix := range []ast.Expr{v.Low, v.High, v.Max} {
			if ix != nil {
				tr.eval(ix, s)
			}
		}
		return t
	case *ast.StarExpr:
		return tr.eval(v.X, s)
	case *ast.UnaryExpr:
		t := tr.eval(v.X, s)
		if v.Op == token.ARROW {
			// A channel receive crossed a commit boundary: the send side
			// already carried the obligation.
			return taintClean
		}
		return t
	case *ast.BinaryExpr:
		return taintCombine(tr.eval(v.X, s), tr.eval(v.Y, s))
	case *ast.CallExpr:
		return tr.call(v, s)
	case *ast.CompositeLit:
		t := taintClean
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			t = taintCombine(t, tr.eval(el, s))
		}
		return t
	case *ast.TypeAssertExpr:
		return tr.eval(v.X, s)
	case *ast.FuncLit:
		// Analysed under its own CFG; the value itself is clean.
		return taintClean
	}
	return taintClean
}

// isSanitizer reports whether calling obj discharges the check obligation.
func (tr *taintRunner) isSanitizer(obj *types.Func) bool {
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		if obj.Name() == "PredictError" || obj.Name() == "PredictErrorBatch" {
			return true
		}
	}
	if pkg := obj.Pkg(); pkg != nil && obj.Name() == "ElementError" &&
		(pkg.Path() == "internal/quality" || strings.HasSuffix(pkg.Path(), "/internal/quality")) {
		return true
	}
	if fi, ok := tr.m.infos[obj]; ok && fi.Checked {
		return true
	}
	return false
}

func (tr *taintRunner) call(call *ast.CallExpr, s taintState) int8 {
	if tv, ok := tr.info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: the value's taint passes through.
		if len(call.Args) == 1 {
			return tr.eval(call.Args[0], s)
		}
		return taintClean
	}
	argT := make([]int8, len(call.Args))
	for i, a := range call.Args {
		argT[i] = tr.eval(a, s)
	}
	var recvRoot types.Object
	recvT := taintClean
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if r, ok := tr.root(sel.X); ok {
			recvRoot = r
			recvT = s[r]
		}
	}
	anyTainted := recvT == taintTainted
	for _, t := range argT {
		if t == taintTainted {
			anyTainted = true
		}
	}
	switch callee := calleeObject(tr.info, call).(type) {
	case *types.Builtin:
		switch callee.Name() {
		case "append":
			t := taintClean
			for _, a := range argT {
				t = taintCombine(t, a)
			}
			return t
		case "copy":
			if len(call.Args) == 2 {
				if root, ok := tr.root(call.Args[0]); ok {
					setTaint(s, root, taintCombine(s[root], argT[1]))
				}
			}
		}
		return taintClean
	case *types.Func:
		if spec := taintSourceFor(callee); spec != nil {
			for _, i := range spec.dstArgs {
				if i < len(call.Args) {
					if root, ok := tr.root(call.Args[i]); ok {
						setTaint(s, root, taintTainted)
					}
				}
			}
			if spec.results {
				return taintTainted
			}
			return taintClean
		}
		if tr.isSanitizer(callee) {
			for _, a := range call.Args {
				if root, ok := tr.root(a); ok {
					setTaint(s, root, taintChecked)
				}
			}
			return taintChecked
		}
		if fi, inModule := tr.m.infos[callee]; inModule {
			result := taintClean
			if fi.Approx {
				result = taintTainted
			}
			if sum := tr.sums[callee]; sum != nil {
				for i := range sum.taintsParams {
					if i < len(call.Args) {
						if root, ok := tr.root(call.Args[i]); ok {
							setTaint(s, root, taintTainted)
						}
					}
				}
				for i := range sum.checksParams {
					if i < len(call.Args) {
						if root, ok := tr.root(call.Args[i]); ok {
							setTaint(s, root, taintChecked)
						}
					}
				}
				if sum.taintsRecv && recvRoot != nil {
					setTaint(s, recvRoot, taintTainted)
				}
				for i := range sum.sinksParams {
					if i < len(call.Args) && argT[i] == taintTainted {
						root, _ := tr.root(call.Args[i])
						tr.sink(call.Args[i].Pos(), root, objName(callee)+" (which commits it)")
					}
				}
				if sum.returnsTaint {
					result = taintTainted
				} else if sum.passThrough && anyTainted {
					result = taintTainted
				}
			}
			return result
		}
		if taintSinkFor(callee) {
			for i, t := range argT {
				if t == taintTainted {
					root, _ := tr.root(call.Args[i])
					tr.sink(call.Args[i].Pos(), root, objName(callee))
				}
			}
			return taintClean
		}
		// Unknown external: conservative pass-through.
		t := taintClean
		for _, a := range argT {
			t = taintCombine(t, a)
		}
		return t
	default:
		// Dynamic call: pass-through of argument taint.
		t := taintClean
		for _, a := range argT {
			t = taintCombine(t, a)
		}
		return t
	}
}

// AnalyzerApproxFlow reports approximate values committed without a check.
var AnalyzerApproxFlow = &Analyzer{
	Name:     "approxflow",
	Doc:      "approximate-path values must pass a checker before being committed",
	Severity: SeverityWarning,
	Run: func(p *Pass) {
		m := p.Module
		sums := m.taintSummaries()
		for _, fi := range m.FuncsIn(p.Pkg) {
			tr := newTaintRunner(m, fi, sums, true)
			tr.run(false)
			if len(tr.findings) == 0 {
				continue
			}
			positions := make([]token.Pos, 0, len(tr.findings))
			for pos := range tr.findings {
				positions = append(positions, pos)
			}
			sort.Slice(positions, func(i, j int) bool { return positions[i] < positions[j] })
			for _, pos := range positions {
				p.Reportf(pos, "%s", tr.findings[pos])
			}
		}
	},
}
