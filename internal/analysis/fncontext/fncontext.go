// Package fncontext rejects blocking calls reachable from fn-event
// continuation context, across package boundaries.
//
// PR 6 rebuilt the device engines on continuations: sim.Seq step
// functions, Queue.PopFn/Cond.WaitFn/Resource.AcquireFn callbacks and
// Engine.At/After/NewTimer fn events all execute inline in engine
// context, where there is no process to park — a call to Queue.Pop,
// Cond.Wait, Resource.Acquire/Use or Proc.Sleep from there panics at
// runtime ("block of nil proc"), and only on the code path a test
// happens to execute. This analyzer turns that runtime panic into a
// compile-time diagnostic naming the call path.
//
// The continuation roots are declared, not guessed: a function whose
// doc comment carries //shrimp:continuation marks its func-typed
// parameters as continuation entry points (sim.Engine.At/After/
// NewTimer, Queue.PopFn, Cond.WaitFn, Resource.AcquireFn, Seq.Init,
// NewSeq, Proc.SleepThen's wakeup step, mesh.Network.Attach), and a
// func-typed struct field carrying the directive marks every value
// assigned to it as running in continuation context
// (nic.NIC.RaiseInterrupt/OnDeliver, the NIC engine re-arm hooks,
// mesh.Packet's delivery thunk, the memory snoop). Directives travel across packages as facts, so vmmc wiring
// its onDeliver method into nic's hook is checked in vmmc without
// nic's source in scope.
//
// Reachability is computed over static call edges (direct calls and
// method values; single-assignment func-valued fields and locals are
// resolved to their one assigned function). Calls through func values
// the analyzer cannot resolve are skipped — the live tree routes every
// such value through an annotated root or field, so the blind spots
// are themselves annotated. Engine.Spawn/SpawnAt count as blocking
// only outside the packages the nogoroutine analyzer already allows
// to spawn (sim, machine): an interrupt handler spawning a kernel
// process is the designed never-blocks pattern.
package fncontext

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"shrimp/internal/analysis"
)

// Directive marks continuation roots: on a function declaration it
// declares the func-typed parameters as continuation entry points; on
// a func-typed struct field it declares assigned values as running in
// continuation context.
const Directive = "//shrimp:continuation"

// Analyzer is the fncontext rule.
var Analyzer = &analysis.Analyzer{
	Name: "fncontext",
	Doc: "reject blocking primitives (Pop, Wait, Acquire, Sleep, stray Spawn) reachable from " +
		"//shrimp:continuation fn-event context, across packages",
	Run: run,
}

// pkgFact is the per-package summary exported for importing packages.
type pkgFact struct {
	// Blocking maps a function's full name to the call path from it
	// to a blocking primitive (display names, primitive last).
	Blocking map[string][]string `json:"blocking,omitempty"`
	// RootParams maps a directive-marked function's full name to the
	// indices of its continuation-root parameters.
	RootParams map[string][]int `json:"rootParams,omitempty"`
	// RootFields lists directive-marked func-typed fields as
	// "pkgpath.Type.Field" keys.
	RootFields []string `json:"rootFields,omitempty"`
}

const simPath = "shrimp/internal/sim"

// blockingMethods are the sim primitives that park or spawn a process:
// illegal in continuation context.
var blockingMethods = map[string]map[string]bool{
	"Queue":    {"Pop": true},
	"Cond":     {"Wait": true},
	"Resource": {"Acquire": true},
	"Proc":     {"Sleep": true, "SleepUntil": true, "SleepThen": true},
}

type checker struct {
	pass *analysis.Pass

	// decls maps each package function to its declaration.
	decls map[*types.Func]*ast.FuncDecl
	// rootParams maps directive-marked package functions to root
	// parameter indices; rootFieldVars the marked field objects.
	rootParams    map[*types.Func][]int
	rootFieldVars map[*types.Var]bool
	rootFieldKeys map[string]bool
	// assigns collects every expression assigned to a func-typed
	// variable or field in the package, for single-assignment
	// resolution.
	assigns map[*types.Var][]ast.Expr

	// imported facts, keyed by full function name / field key.
	impBlocking   map[string][]string
	impRootParams map[string][]int
	impRootFields map[string]bool

	// blockMemo caches per-node blocking paths; nil = not blocking.
	blockMemo  map[any][]string
	inProgress map[any]bool

	reported map[string]bool
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:          pass,
		decls:         map[*types.Func]*ast.FuncDecl{},
		rootParams:    map[*types.Func][]int{},
		rootFieldVars: map[*types.Var]bool{},
		rootFieldKeys: map[string]bool{},
		assigns:       map[*types.Var][]ast.Expr{},
		impBlocking:   map[string][]string{},
		impRootParams: map[string][]int{},
		impRootFields: map[string]bool{},
		blockMemo:     map[any][]string{},
		inProgress:    map[any]bool{},
		reported:      map[string]bool{},
	}
	c.importFacts()
	c.index()
	c.checkRoots()
	return c.export()
}

// importFacts merges the fncontext summaries of every module-internal
// dependency.
func (c *checker) importFacts() {
	imps := c.pass.Pkg.Imports()
	paths := make([]string, 0, len(imps))
	for _, imp := range imps {
		paths = append(paths, imp.Path())
	}
	sort.Strings(paths)
	for _, path := range paths {
		if !strings.HasPrefix(path, "shrimp/") {
			continue
		}
		var f pkgFact
		if !c.pass.ImportPackageFact(path, &f) {
			continue
		}
		for k, v := range f.Blocking {
			c.impBlocking[k] = v
		}
		for k, v := range f.RootParams {
			c.impRootParams[k] = v
		}
		for _, k := range f.RootFields {
			c.impRootFields[k] = true
		}
	}
}

// index builds the package-local tables: declarations, directive
// marks, and the func-value assignment map.
func (c *checker) index() {
	for _, f := range c.pass.Files {
		if c.pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, _ := c.pass.TypesInfo.Defs[d.Name].(*types.Func)
				if fn == nil {
					continue
				}
				if d.Body != nil {
					c.decls[fn] = d
				}
				if hasDirective(d.Doc) {
					c.rootParams[fn] = funcParamIndices(d, fn)
				}
			case *ast.GenDecl:
				c.indexTypeDirectives(d)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break // multi-value RHS: not a func wiring pattern
					}
					if v := c.varOf(lhs); v != nil && isFuncType(v.Type()) {
						c.assigns[v] = append(c.assigns[v], n.Rhs[i])
					}
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					if v, ok := c.pass.TypesInfo.Uses[key].(*types.Var); ok && isFuncType(v.Type()) {
						c.assigns[v] = append(c.assigns[v], kv.Value)
					}
				}
			}
			return true
		})
	}
}

// indexTypeDirectives records //shrimp:continuation marks on
// func-typed struct fields.
func (c *checker) indexTypeDirectives(d *ast.GenDecl) {
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, fld := range st.Fields.List {
			if !hasDirective(fld.Doc) && !hasDirective(fld.Comment) {
				continue
			}
			for _, name := range fld.Names {
				v, _ := c.pass.TypesInfo.Defs[name].(*types.Var)
				if v == nil {
					continue
				}
				c.rootFieldVars[v] = true
				c.rootFieldKeys[c.pass.Pkg.Path()+"."+ts.Name.Name+"."+name.Name] = true
			}
		}
	}
}

// checkRoots walks every non-test function, finds continuation
// registrations (root-param calls and marked-field assignments), and
// verifies the registered function cannot reach a blocking primitive.
func (c *checker) checkRoots() {
	for _, f := range c.pass.Files {
		if c.pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			enclosing, _ := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					c.checkRootCall(n, enclosing)
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if i >= len(n.Rhs) {
							break
						}
						if key, ok := c.markedFieldKey(lhs); ok {
							c.checkRootValue(n.Rhs[i], "assigned to "+key, enclosing)
						}
					}
				case *ast.CompositeLit:
					c.checkRootLit(n, enclosing)
				}
				return true
			})
		}
	}
}

// checkRootCall inspects one call for continuation-root arguments.
func (c *checker) checkRootCall(call *ast.CallExpr, enclosing *types.Func) {
	fn := c.calleeOf(call)
	if fn == nil {
		return
	}
	idxs, ok := c.rootParams[fn]
	if !ok {
		idxs, ok = c.impRootParams[fn.FullName()]
	}
	if !ok {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return
	}
	label := "passed to " + shortName(fn.FullName())
	for _, idx := range idxs {
		if sig.Variadic() && idx == sig.Params().Len()-1 {
			if call.Ellipsis.IsValid() {
				continue // spread slice: elements unresolvable
			}
			for _, arg := range call.Args[min(idx, len(call.Args)):] {
				c.checkRootValue(arg, label, enclosing)
			}
			continue
		}
		if idx < len(call.Args) {
			c.checkRootValue(call.Args[idx], label, enclosing)
		}
	}
}

// checkRootLit inspects a composite literal for values assigned to
// marked fields.
func (c *checker) checkRootLit(cl *ast.CompositeLit, enclosing *types.Func) {
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		v, ok := c.pass.TypesInfo.Uses[key].(*types.Var)
		if !ok || !c.isMarkedField(v, c.litFieldKey(cl, key.Name)) {
			continue
		}
		c.checkRootValue(kv.Value, "assigned to "+shortName(c.litFieldKey(cl, key.Name)), enclosing)
	}
}

// checkRootValue resolves a continuation value to its function(s) and
// reports any resolved function that can reach a blocking primitive.
func (c *checker) checkRootValue(e ast.Expr, label string, enclosing *types.Func) {
	for _, t := range c.resolve(e, enclosing, map[*types.Var]bool{}) {
		var path []string
		var name string
		switch t := t.(type) {
		case *ast.FuncLit:
			path = c.blockPath(t)
			name = "func literal"
		case *types.Func:
			path = c.funcBlockPath(t)
			name = shortName(t.FullName())
		}
		if path == nil {
			continue
		}
		msg := "continuation " + label + " can reach a blocking call: " +
			name + " → " + strings.Join(path, " → ") +
			"; fn-event continuations must not block (use PopFn/AcquireFn/WaitFn or Seq.Sleep)"
		key := c.pass.Fset.Position(e.Pos()).String() + msg
		if !c.reported[key] {
			c.reported[key] = true
			c.pass.Reportf(e.Pos(), "%s", msg)
		}
	}
}

// resolve maps a func-valued expression to the declared functions and
// literals it may hold. Values that are themselves continuation-marked
// (a marked field, or a root parameter of the enclosing function) are
// safe by induction — their assignments are checked at their own
// sites — and resolve to nothing. Unresolvable dynamic values also
// resolve to nothing: the live tree routes every such value through an
// annotated root (documented limitation).
func (c *checker) resolve(e ast.Expr, enclosing *types.Func, visited map[*types.Var]bool) []any {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return []any{e}
	case *ast.Ident, *ast.SelectorExpr:
		switch obj := c.useOf(e).(type) {
		case *types.Func:
			return []any{originOf(obj)}
		case *types.Var:
			v := obj
			if visited[v] {
				return nil
			}
			visited[v] = true
			if c.isMarkedField(v, c.selFieldKey(e)) || c.isRootParam(v, enclosing) {
				return nil // checked at its own registration/assignment sites
			}
			var out []any
			for _, rhs := range c.assigns[v] {
				out = append(out, c.resolve(rhs, enclosing, visited)...)
			}
			return out
		}
	}
	return nil
}

// isMarkedField reports whether v (with field key, when derivable) is
// a //shrimp:continuation field of this or an imported package.
func (c *checker) isMarkedField(v *types.Var, key string) bool {
	return c.rootFieldVars[v] || (key != "" && (c.rootFieldKeys[key] || c.impRootFields[key]))
}

// isRootParam reports whether v is a continuation-root parameter of
// the enclosing function.
func (c *checker) isRootParam(v *types.Var, enclosing *types.Func) bool {
	if enclosing == nil {
		return false
	}
	idxs := c.rootParams[enclosing]
	if len(idxs) == 0 {
		return false
	}
	sig, _ := enclosing.Type().(*types.Signature)
	if sig == nil {
		return false
	}
	for _, idx := range idxs {
		if idx < sig.Params().Len() && sig.Params().At(idx) == v {
			return true
		}
	}
	return false
}

// markedFieldKey reports whether lhs selects a continuation-marked
// field, returning its display key.
func (c *checker) markedFieldKey(lhs ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	v, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok {
		return "", false
	}
	key := c.selFieldKey(sel)
	if c.isMarkedField(v, key) {
		return shortName(key), true
	}
	return "", false
}

// selFieldKey derives "pkgpath.Type.Field" for a field selection, or
// "" when the receiver is not a named struct.
func (c *checker) selFieldKey(e ast.Expr) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	s, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	return fieldKey(s.Recv(), sel.Sel.Name)
}

// litFieldKey derives the field key for a composite literal's type.
func (c *checker) litFieldKey(cl *ast.CompositeLit, field string) string {
	tv, ok := c.pass.TypesInfo.Types[cl]
	if !ok {
		return ""
	}
	return fieldKey(tv.Type, field)
}

// fieldKey renders "pkgpath.Type.Field" for a (possibly pointer)
// named struct type.
func fieldKey(t types.Type, field string) string {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		if p, ok := t.(*types.Pointer); ok {
			named, ok = p.Elem().(*types.Named)
			if !ok {
				return ""
			}
		} else {
			return ""
		}
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name() + "." + field
}

// funcBlockPath returns the call path from fn to a blocking primitive,
// or nil. Package-local functions recurse through their bodies;
// imported functions consult facts.
func (c *checker) funcBlockPath(fn *types.Func) []string {
	fn = originOf(fn)
	if prim := c.primitiveLabel(fn); prim != "" {
		return []string{prim}
	}
	if _, ok := c.decls[fn]; ok {
		return c.blockPath(fn)
	}
	if path, ok := c.impBlocking[fn.FullName()]; ok {
		return path
	}
	return nil
}

// blockPath computes (and memoizes) the blocking path from a package
// function or literal node. Cycles resolve to non-blocking through
// the back edge; any other edge out of the cycle still reports.
func (c *checker) blockPath(node any) []string {
	if path, ok := c.blockMemo[node]; ok {
		return path
	}
	if c.inProgress[node] {
		return nil
	}
	c.inProgress[node] = true
	defer delete(c.inProgress, node)

	var body *ast.BlockStmt
	switch n := node.(type) {
	case *types.Func:
		d := c.decls[n]
		if d == nil {
			return nil
		}
		body = d.Body
	case *ast.FuncLit:
		body = n.Body
	default:
		return nil
	}

	var found []string
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			// A nested literal runs when *it* is called, not when the
			// enclosing function does — unless invoked immediately,
			// which surfaces as a CallExpr below.
			_ = lit
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			if sub := c.blockPath(lit); sub != nil {
				found = append([]string{"func literal"}, sub...)
			}
			return true
		}
		callee := c.calleeOf(call)
		if callee == nil {
			return true
		}
		if prim := c.primitiveLabel(callee); prim != "" {
			found = []string{prim}
			return false
		}
		if _, local := c.decls[callee]; local {
			if sub := c.blockPath(callee); sub != nil {
				found = append([]string{shortName(callee.FullName())}, sub...)
			}
			return true
		}
		if sub, ok := c.impBlocking[callee.FullName()]; ok {
			found = append([]string{shortName(callee.FullName())}, sub...)
		}
		return true
	})
	c.blockMemo[node] = found
	return found
}

// primitiveLabel reports the display name of a blocking sim primitive,
// or "" if fn is not one.
func (c *checker) primitiveLabel(fn *types.Func) string {
	if fn.Pkg() == nil || fn.Pkg().Path() != simPath {
		return ""
	}
	recv := recvTypeName(fn)
	if recv == "Engine" && (fn.Name() == "Spawn" || fn.Name() == "SpawnAt") {
		// Inside these packages a Spawn from fn-event context is the
		// designed interrupt-handler pattern, not a bug.
		if analysis.MaySpawn(c.pass.Pkg.Path()) {
			return ""
		}
		return shortName(fn.FullName()) + " (goroutine spawn outside sim/machine)"
	}
	if blockingMethods[recv][fn.Name()] {
		return shortName(fn.FullName())
	}
	return ""
}

// export publishes this package's summary: blocking paths for every
// declared function, plus its directive marks.
func (c *checker) export() error {
	fact := pkgFact{
		Blocking:   map[string][]string{},
		RootParams: map[string][]int{},
	}
	for fn := range c.decls {
		if path := c.blockPath(fn); path != nil {
			fact.Blocking[fn.FullName()] = path
		}
	}
	for fn, idxs := range c.rootParams {
		fact.RootParams[fn.FullName()] = idxs
	}
	for key := range c.rootFieldKeys {
		fact.RootFields = append(fact.RootFields, key)
	}
	sort.Strings(fact.RootFields)
	return c.pass.ExportPackageFact(fact)
}

// calleeOf resolves a call's static target function, if any.
func (c *checker) calleeOf(call *ast.CallExpr) *types.Func {
	fn, _ := c.useOf(ast.Unparen(call.Fun)).(*types.Func)
	if fn == nil {
		return nil
	}
	return originOf(fn)
}

// useOf resolves an identifier or selector to its object.
func (c *checker) useOf(e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return c.pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		return c.pass.TypesInfo.Uses[e.Sel]
	}
	return nil
}

// varOf resolves an assignable expression to a variable object.
func (c *checker) varOf(e ast.Expr) *types.Var {
	v, _ := c.useOf(ast.Unparen(e)).(*types.Var)
	return v
}

// originOf maps instantiated generic functions back to their generic
// declaration, so Queue[T] methods key consistently.
func originOf(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// recvTypeName returns the name of fn's receiver base type, or "".
func recvTypeName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	}
	return ""
}

// funcParamIndices returns the indices of fd's func-typed parameters
// (named func types included), flattened to match types.Signature.
func funcParamIndices(fd *ast.FuncDecl, fn *types.Func) []int {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return nil
	}
	var idxs []int
	for i := 0; i < sig.Params().Len(); i++ {
		if isFuncType(sig.Params().At(i).Type()) {
			idxs = append(idxs, i)
		}
	}
	return idxs
}

// isFuncType reports whether t is (or names, or slices over) a
// function type. Variadic func parameters arrive as slices.
func isFuncType(t types.Type) bool {
	if s, ok := t.Underlying().(*types.Slice); ok {
		t = s.Elem()
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// hasDirective reports whether the comment group carries the
// directive on a line of its own.
func hasDirective(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.TrimSpace(c.Text) == Directive {
			return true
		}
	}
	return false
}

// shortName strips the module prefix from a full function or field
// name for display.
func shortName(full string) string {
	return strings.ReplaceAll(full, "shrimp/internal/", "")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
