// Package maporder flags map iteration whose body has order-dependent
// effects.
//
// Go randomizes map iteration order per run on purpose; the simulator
// requires the opposite — every event, packet, result row and trace
// record must be produced in an order derived only from the experiment
// configuration. A `for k := range m` that schedules events, sends
// packets, writes output or accumulates results therefore injects the
// runtime's hash seed straight into the data the paper's figures are
// built from. The fix is the sorted-keys idiom the exporters already
// use: collect the keys into a slice (which this analyzer permits),
// sort it, then act in sorted order.
package maporder

import (
	"go/ast"
	"go/types"

	"shrimp/internal/analysis"
)

// Analyzer is the maporder rule.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag range-over-map whose body emits events, sends packets, writes output or " +
		"accumulates results; iterate sorted keys instead",
	Run: run,
}

// effectCalls names functions and methods whose call order is
// observable: event scheduling, packet injection, trace recording and
// stream output. Name matching is deliberately coarse — a method
// called Send or Record on any type is presumed order-sensitive.
var effectCalls = map[string]string{
	"Record":      "records a trace event",
	"Latency":     "records a latency sample",
	"Send":        "sends a packet",
	"SendDU":      "sends a packet",
	"SendAU":      "sends a packet",
	"Push":        "enqueues work",
	"At":          "schedules an event",
	"After":       "schedules an event",
	"Spawn":       "spawns a process",
	"SpawnAt":     "spawns a process",
	"NewTimer":    "schedules an event",
	"Signal":      "wakes a waiter",
	"Broadcast":   "wakes waiters",
	"Write":       "writes output",
	"WriteString": "writes output",
	"WriteByte":   "writes output",
	"Printf":      "writes output",
	"Print":       "writes output",
	"Println":     "writes output",
	"Fprintf":     "writes output",
	"Fprint":      "writes output",
	"Fprintln":    "writes output",
	"emit":        "writes output",
	"Emit":        "writes output",
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if rng.Key == nil && rng.Value == nil {
				// `for range m`: iterations are indistinguishable, so
				// their order cannot be observed.
				return true
			}
			checkBody(pass, rng)
			return true
		})
	}
	return nil
}

// checkBody reports the first order-dependent effect in the range body.
func checkBody(pass *analysis.Pass, rng *ast.RangeStmt) {
	keyName := identName(rng.Key)
	done := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if done {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			report(pass, rng, "sends on a channel")
			done = true
		case *ast.CallExpr:
			name := calleeName(n)
			if name == "append" {
				// Appending only the key (possibly through a type
				// conversion) is the sorted-keys idiom's collection
				// step; anything else accumulates results in hash
				// order.
				for _, arg := range n.Args[1:] {
					if !isKeyExpr(pass, arg, keyName) {
						report(pass, rng, "appends map-dependent values to a result")
						done = true
						break
					}
				}
				return !done
			}
			if what, bad := effectCalls[name]; bad {
				report(pass, rng, what+" ("+name+")")
				done = true
			}
		}
		return !done
	})
}

func report(pass *analysis.Pass, rng *ast.RangeStmt, what string) {
	pass.Reportf(rng.Pos(),
		"map iteration body %s, making the outcome depend on Go's randomized map order; "+
			"collect the keys, sort them, then act in sorted order", what)
}

// identName returns the identifier's name, or "" for non-identifiers.
func identName(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// isKeyExpr reports whether e is the range key, possibly wrapped in
// parentheses or type conversions (`uint32(pg)`): collecting converted
// keys for later sorting is still the sorted-keys idiom.
func isKeyExpr(pass *analysis.Pass, e ast.Expr, keyName string) bool {
	if keyName == "" {
		return false
	}
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == keyName
	case *ast.ParenExpr:
		return isKeyExpr(pass, e.X, keyName)
	case *ast.CallExpr:
		// Only genuine type conversions qualify; a function call could
		// carry order-dependent state.
		if tv, ok := pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return isKeyExpr(pass, e.Args[0], keyName)
		}
	}
	return false
}

// calleeName extracts the called function or method name.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
