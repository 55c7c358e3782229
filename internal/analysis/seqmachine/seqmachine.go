// Package seqmachine defines an Analyzer that checks the
// well-formedness of sim.Seq continuation state machines: the
// pc-indexed step programs that replaced blocking device loops
// (internal/nic's receive, deliberate-update, and outgoing-FIFO
// engines are the canonical users).
//
// A machine is recognized by its `X.Init(e, n, step)` call: when the
// step dispatcher resolves to a function declared in the analyzed
// package, the analyzer interprets its `switch pc` program
// symbolically — Next/Sleep/Acquire advance to pc+1 (inline or via the
// armed resume continuation), Goto jumps to its constant target, Wait
// parks until an external Start — and reports:
//
//   - non-constant step counts, case labels, or Goto targets (the
//     program counter space must be auditable at vet time);
//   - case labels or Goto targets outside [0, n);
//   - steps unreachable from any Start entry point through the
//     advance/Goto/resume edges;
//   - a terminal step that advances past the end of the step list,
//     silently halting the machine where a park (Wait) or an explicit
//     Goto was almost certainly intended;
//   - returning a Ctl produced by a different sequencer than the one
//     the dispatcher was Init'd on (the wrong machine's pc would
//     advance);
//   - hotpath coverage gaps: when the dispatcher is marked
//     //shrimp:hotpath, every step helper it dispatches to must be
//     marked too (so the hotpath analyzer's allocation checks see
//     them); when the machine is unmarked, closures allocated inside
//     its steps are flagged here directly — steps run per dispatched
//     event, so a closure per step is a closure per event.
//
// Machines whose dispatcher is a literal closure over a step slice
// (the NewSeq convenience path) are not modeled; the analyzer is
// silent about them.
package seqmachine

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"shrimp/internal/analysis"
)

// Analyzer checks sim.Seq step programs for well-formedness.
var Analyzer = &analysis.Analyzer{
	Name: "seqmachine",
	Doc: "check sim.Seq state machines: constant, in-range pc labels and Goto targets, " +
		"all steps reachable from Start entries, no silent fall-through past the last " +
		"step, no cross-sequencer Ctl returns, and hotpath marks (or closure-freedom) " +
		"on every step the dispatcher reaches",
	Run: run,
}

const (
	simPath          = "shrimp/internal/sim"
	hotpathDirective = "//shrimp:hotpath"
)

// resultKind classifies one possible Ctl outcome of a step.
type resultKind int

const (
	resAdvance resultKind = iota // Next/Sleep/Acquire: control lands on pc+1
	resGoto                      // Goto C / constant Ctl: control lands on C
	resWait                      // parks; an external Start re-enters
	resUnknown                   // unmodeled: assume nothing
)

// result is one classified Ctl outcome, positioned at the producing
// return expression.
type result struct {
	kind   resultKind
	target int // resGoto only
	pos    token.Pos
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:     pass,
		decls:    map[*types.Func]*ast.FuncDecl{},
		memo:     map[*types.Func][]result{},
		active:   map[*types.Func]bool{},
		helpers:  map[*types.Func]bool{},
		reported: map[token.Pos]bool{},
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					c.decls[fn] = fd
				}
			}
		}
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := c.calleeOf(call); isSeqMethod(fn, "Init") && len(call.Args) == 3 {
				c.checkMachine(call)
			}
			return true
		})
	}
	return nil
}

// checker carries the per-package state of one run.
type checker struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
	// memo caches the classified outcomes of step helpers; active
	// guards the recursion against helper cycles.
	memo   map[*types.Func][]result
	active map[*types.Func]bool
	// helpers collects the step helpers reached while classifying the
	// current machine, for the hotpath checks.
	helpers  map[*types.Func]bool
	reported map[token.Pos]bool
}

// reportf deduplicates by position: helper bodies are classified once
// but shared across clauses and machines.
func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, format, args...)
}

// checkMachine analyzes one X.Init(e, n, step) site.
func (c *checker) checkMachine(call *ast.CallExpr) {
	var stepFn *types.Func
	switch e := ast.Unparen(call.Args[2]).(type) {
	case *ast.SelectorExpr:
		stepFn, _ = c.pass.TypesInfo.Uses[e.Sel].(*types.Func)
	case *ast.Ident:
		stepFn, _ = c.pass.TypesInfo.Uses[e].(*types.Func)
	}
	dispatch := c.decls[stepFn]
	if dispatch == nil {
		return // NewSeq-style literal dispatcher: not modeled
	}
	n, ok := c.intConst(call.Args[1])
	if !ok {
		c.reportf(call.Args[1].Pos(),
			"step count of %s's sequencer is not a constant; the pc space of a Seq machine must be auditable statically",
			dispatch.Name.Name)
		return
	}
	seqVar := c.resolveVar(selReceiver(call.Fun))

	pcVar := dispatchPCParam(c.pass.TypesInfo, dispatch)
	if pcVar == nil {
		return
	}
	var sw *ast.SwitchStmt
	ast.Inspect(dispatch.Body, func(nd ast.Node) bool {
		if s, ok := nd.(*ast.SwitchStmt); ok && sw == nil {
			if id, ok := ast.Unparen(s.Tag).(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == pcVar {
				sw = s
			}
		}
		return true
	})
	if sw == nil {
		return // not a switch-shaped dispatcher; nothing to model
	}

	c.helpers = map[*types.Func]bool{}

	// Map each clause to the pcs it covers and its classified outcomes.
	type clauseInfo struct {
		clause  *ast.CaseClause
		pcs     []int
		results []result
	}
	var clauses []clauseInfo
	covered := map[int]bool{}
	var defaultClause *ast.CaseClause
	for _, stmt := range sw.Body.List {
		cc := stmt.(*ast.CaseClause)
		if cc.List == nil {
			defaultClause = cc
			continue
		}
		ci := clauseInfo{clause: cc}
		for _, labelExpr := range cc.List {
			k, ok := c.intConst(labelExpr)
			if !ok {
				c.reportf(labelExpr.Pos(),
					"non-constant case label in %s's pc switch; step indices must be constants",
					dispatch.Name.Name)
				continue
			}
			if k < 0 || k >= n {
				c.reportf(labelExpr.Pos(),
					"case label %d in %s is outside the step range [0,%d)", k, dispatch.Name.Name, n)
				continue
			}
			ci.pcs = append(ci.pcs, int(k))
			covered[int(k)] = true
		}
		ci.results = c.classifyBody(cc.Body, seqVar, n, dispatch.Name.Name)
		clauses = append(clauses, ci)
	}
	if defaultClause != nil {
		ci := clauseInfo{clause: defaultClause}
		for k := 0; k < int(n); k++ {
			if !covered[k] {
				ci.pcs = append(ci.pcs, k)
			}
		}
		ci.results = c.classifyBody(defaultClause.Body, seqVar, n, dispatch.Name.Name)
		clauses = append(clauses, ci)
	}

	// Entry points: constant Start(pc) calls on the same sequencer
	// anywhere in the package. A non-constant Start makes every pc a
	// potential entry; reachability is then vacuous but the other
	// checks still apply.
	entries, allEntries := c.startEntries(seqVar, n)

	// Reachability over advance/Goto edges from the entries. Sleep and
	// Acquire arm a resume at pc+1, so resAdvance covers both the
	// inline and the continuation path.
	reachable := map[int]bool{}
	if allEntries || seqVar == nil {
		for k := 0; k < int(n); k++ {
			reachable[k] = true
		}
	} else {
		succ := map[int][]int{}
		for _, ci := range clauses {
			for _, k := range ci.pcs {
				for _, r := range ci.results {
					switch r.kind {
					case resAdvance:
						succ[k] = append(succ[k], k+1)
					case resGoto:
						succ[k] = append(succ[k], r.target)
					}
				}
			}
		}
		work := append([]int(nil), entries...)
		for len(work) > 0 {
			k := work[len(work)-1]
			work = work[:len(work)-1]
			if k < 0 || k >= int(n) || reachable[k] {
				continue
			}
			reachable[k] = true
			work = append(work, succ[k]...)
		}
	}

	for _, ci := range clauses {
		if len(ci.pcs) == 0 {
			continue
		}
		anyReachable := false
		for _, k := range ci.pcs {
			if reachable[k] {
				anyReachable = true
			}
		}
		if !anyReachable {
			c.reportf(ci.clause.Pos(),
				"step %s of %s is unreachable: no Start entry, Goto, or resume continuation leads to it",
				pcList(ci.pcs), dispatch.Name.Name)
		}
		for _, k := range ci.pcs {
			if k != int(n)-1 {
				continue
			}
			for _, r := range ci.results {
				if r.kind == resAdvance {
					c.reportf(r.pos,
						"last step of %s advances past the end of the %d-step list, silently halting the machine; park with Wait or jump with Goto",
						dispatch.Name.Name, n)
				}
			}
		}
	}

	c.checkHotpath(dispatch)
}

// classifyBody classifies every return in a case clause body, flagging
// per-dispatch closures along the way.
func (c *checker) classifyBody(body []ast.Stmt, seqVar *types.Var, n int64, dispatchName string) []result {
	var out []result
	for _, stmt := range body {
		ast.Inspect(stmt, func(nd ast.Node) bool {
			switch nd := nd.(type) {
			case *ast.FuncLit:
				return false // classified (and flagged) by the hotpath checks
			case *ast.ReturnStmt:
				if len(nd.Results) == 1 {
					out = append(out, c.classifyExpr(nd.Results[0], seqVar, n, dispatchName)...)
				}
			}
			return true
		})
	}
	return out
}

// classifyExpr resolves one returned Ctl expression to its outcomes.
func (c *checker) classifyExpr(expr ast.Expr, seqVar *types.Var, n int64, dispatchName string) []result {
	expr = ast.Unparen(expr)
	if k, ok := c.intConst(expr); ok {
		if k == -1 { // sim.Wait
			return []result{{kind: resWait, pos: expr.Pos()}}
		}
		if k < 0 || k >= n {
			c.reportf(expr.Pos(),
				"constant Ctl %d returned in %s is outside the step range [0,%d)", k, dispatchName, n)
			return []result{{kind: resUnknown, pos: expr.Pos()}}
		}
		return []result{{kind: resGoto, target: int(k), pos: expr.Pos()}}
	}
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return []result{{kind: resUnknown, pos: expr.Pos()}}
	}
	fn := c.calleeOf(call)
	if fn == nil {
		return []result{{kind: resUnknown, pos: expr.Pos()}}
	}
	if isSeqType(recvType(fn)) {
		if seqVar != nil {
			if rv := c.resolveVar(selReceiver(call.Fun)); rv != nil && rv != seqVar {
				c.reportf(expr.Pos(),
					"%s returns a Ctl produced by sequencer %s, but it drives a machine Init'd on %s; the wrong machine's pc would advance",
					dispatchName, rv.Name(), seqVar.Name())
			}
		}
		switch fn.Name() {
		case "Next", "Sleep", "Acquire":
			return []result{{kind: resAdvance, pos: expr.Pos()}}
		case "Goto":
			if len(call.Args) == 1 {
				k, ok := c.intConst(call.Args[0])
				if !ok {
					c.reportf(call.Args[0].Pos(),
						"non-constant Goto target in %s; step indices must be constants", dispatchName)
					return []result{{kind: resUnknown, pos: expr.Pos()}}
				}
				if k < 0 || k >= n {
					c.reportf(call.Args[0].Pos(),
						"Goto target %d in %s is outside the step range [0,%d)", k, dispatchName, n)
					return []result{{kind: resUnknown, pos: expr.Pos()}}
				}
				return []result{{kind: resGoto, target: int(k), pos: expr.Pos()}}
			}
		}
		return []result{{kind: resUnknown, pos: expr.Pos()}}
	}
	// A same-package helper returning sim.Ctl: a step function. Inline
	// its outcomes (memoized; cycles break to unknown).
	if fd, ok := c.decls[fn]; ok && returnsCtl(fn) {
		c.helpers[fn] = true
		if c.active[fn] {
			return []result{{kind: resUnknown, pos: expr.Pos()}}
		}
		if memo, ok := c.memo[fn]; ok {
			return memo
		}
		c.active[fn] = true
		var out []result
		ast.Inspect(fd.Body, func(nd ast.Node) bool {
			switch nd := nd.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				if len(nd.Results) == 1 {
					out = append(out, c.classifyExpr(nd.Results[0], seqVar, n, dispatchName)...)
				}
			}
			return true
		})
		delete(c.active, fn)
		c.memo[fn] = out
		return out
	}
	return []result{{kind: resUnknown, pos: expr.Pos()}}
}

// startEntries collects the constant pcs passed to Start on seqVar
// anywhere in the package. allEntries reports that the entry set could
// not be bounded (a non-constant Start or an unresolvable sequencer
// variable).
func (c *checker) startEntries(seqVar *types.Var, n int64) (entries []int, allEntries bool) {
	if seqVar == nil {
		return nil, true
	}
	for _, f := range c.pass.Files {
		if c.pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(nd ast.Node) bool {
			call, ok := nd.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := c.calleeOf(call)
			if fn == nil || !isSeqType(recvType(fn)) {
				return true
			}
			if c.resolveVar(selReceiver(call.Fun)) != seqVar {
				return true
			}
			if fn.Name() == "Start" && len(call.Args) == 1 {
				if k, ok := c.intConst(call.Args[0]); ok && k >= 0 && k < n {
					entries = append(entries, int(k))
				} else {
					allEntries = true
				}
			}
			return true
		})
	}
	return entries, allEntries
}

// checkHotpath enforces allocation discipline over the dispatcher and
// the step helpers it reaches: a hotpath-marked dispatcher must mark
// its helpers too (so the hotpath analyzer covers them); an unmarked
// machine gets its per-dispatch closures flagged here.
func (c *checker) checkHotpath(dispatch *ast.FuncDecl) {
	flagClosures := func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(nd ast.Node) bool {
			if lit, ok := nd.(*ast.FuncLit); ok {
				c.reportf(lit.Pos(),
					"closure allocated inside Seq step %s runs once per dispatched event; bind the continuation once at construction",
					fd.Name.Name)
				return false
			}
			return true
		})
	}
	dispatchMarked := marked(dispatch)
	if !dispatchMarked {
		flagClosures(dispatch)
	}
	for fn := range c.helpers {
		fd := c.decls[fn]
		if fd == nil {
			continue
		}
		switch {
		case dispatchMarked && !marked(fd):
			c.reportf(fd.Name.Pos(),
				"step %s is dispatched by hotpath function %s but is not marked %s; the hotpath allocation checks do not see it",
				fd.Name.Name, dispatch.Name.Name, hotpathDirective)
		case !marked(fd):
			flagClosures(fd)
		}
	}
}

// --- small resolvers -------------------------------------------------

// calleeOf resolves a call to its static callee, if any.
func (c *checker) calleeOf(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := c.pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := c.pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// intConst evaluates expr as a constant integer.
func (c *checker) intConst(expr ast.Expr) (int64, bool) {
	tv, ok := c.pass.TypesInfo.Types[expr]
	if !ok || tv.Value == nil {
		return 0, false
	}
	return constant.Int64Val(constant.ToInt(tv.Value))
}

// resolveVar resolves an expression to the variable it denotes: a
// plain identifier or a field selection (n.rxSeq).
func (c *checker) resolveVar(expr ast.Expr) *types.Var {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		v, _ := c.pass.TypesInfo.Uses[e].(*types.Var)
		return v
	case *ast.SelectorExpr:
		if sel := c.pass.TypesInfo.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
			return sel.Obj().(*types.Var)
		}
	}
	return nil
}

// selReceiver returns the receiver expression of a method-call fun.
func selReceiver(fun ast.Expr) ast.Expr {
	if sel, ok := ast.Unparen(fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// dispatchPCParam returns the variable of the dispatcher's single int
// parameter.
func dispatchPCParam(info *types.Info, fd *ast.FuncDecl) *types.Var {
	if fd.Type.Params == nil || len(fd.Type.Params.List) != 1 {
		return nil
	}
	names := fd.Type.Params.List[0].Names
	if len(names) != 1 {
		return nil
	}
	v, _ := info.Defs[names[0]].(*types.Var)
	return v
}

// recvType returns the base named type of fn's receiver, if any.
func recvType(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isSeqType reports whether named is sim.Seq.
func isSeqType(named *types.Named) bool {
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == simPath && named.Obj().Name() == "Seq"
}

// isSeqMethod reports whether fn is the sim.Seq method with the given
// name.
func isSeqMethod(fn *types.Func, name string) bool {
	return fn != nil && fn.Name() == name && isSeqType(recvType(fn))
}

// returnsCtl reports whether fn's single result is sim.Ctl.
func returnsCtl(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	named, ok := sig.Results().At(0).Type().(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == simPath && named.Obj().Name() == "Ctl"
}

// marked reports whether fd's doc comment carries the hotpath
// directive on a line of its own (the same contract the hotpath
// analyzer uses).
func marked(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, cm := range fd.Doc.List {
		if strings.TrimSpace(cm.Text) == hotpathDirective {
			return true
		}
	}
	return false
}

// pcList renders a pc set for a diagnostic.
func pcList(pcs []int) string {
	parts := make([]string, len(pcs))
	for i, k := range pcs {
		parts[i] = fmt.Sprint(k)
	}
	return strings.Join(parts, ",")
}
