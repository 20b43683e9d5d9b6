package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces the cancellation contract threaded through the stack:
// every first-party operation takes a context.Context, once a context
// enters a call chain it must flow to the leaves, and library code must
// never invent a fresh root context.
//
// Three rules:
//
//  1. A function that receives a context must not synthesize
//     context.Background() or context.TODO(): the received ctx (or a
//     context derived from it) is the only root in scope.
//  2. Outside package main, context.Background()/TODO() is forbidden
//     everywhere: roots are created at the edges (main, signal handlers,
//     tests) and passed down.
//  3. A literal nil is never a context. Passing nil to a context.Context
//     parameter is flagged everywhere: no API in this module reads a nil
//     ctx as "never cancel", so a nil either drops a received ctx on the
//     floor or panics in the callee.
//
// Test files are not analyzed (see load.go), so tests create their roots
// with context.Background() freely.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "requires received contexts to be threaded to every callee, forbids " +
		"synthesizing context.Background()/TODO() in library code, and forbids nil contexts",
	Run: runCtxFlow,
}

func runCtxFlow(p *Pass) error {
	for _, f := range p.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p.TypesInfo, call)
			if fn == nil {
				return true
			}

			// Rules 1 and 2: synthesized roots.
			if isPkgFunc(fn, "context", "Background") || isPkgFunc(fn, "context", "TODO") {
				switch {
				case ctxInScope(p.TypesInfo, stack):
					p.Reportf(call.Pos(),
						"context.%s synthesized in a function that already receives a ctx; thread the received context instead",
						fn.Name())
				case !p.IsMain():
					p.Reportf(call.Pos(),
						"context.%s in library code; accept a ctx parameter from the caller",
						fn.Name())
				}
				return true
			}

			// Rule 3: nil handed to a context parameter.
			if i := sigContextParam(funcSig(fn)); i >= 0 && i < len(call.Args) {
				if id, ok := ast.Unparen(call.Args[i]).(*ast.Ident); ok && id.Name == "nil" {
					if _, isNil := p.TypesInfo.Uses[id].(*types.Nil); isNil {
						p.Reportf(call.Args[i].Pos(),
							"passes a nil ctx to %s; a nil context is never valid — pass the received ctx, or create a root at main",
							fn.Name())
					}
				}
			}
			return true
		})
	}
	return nil
}

// ctxInScope reports whether any function enclosing the current node —
// declaration or literal — declares a context.Context parameter.
func ctxInScope(info *types.Info, stack []ast.Node) bool {
	for _, n := range stack {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if obj, ok := info.Defs[fn.Name].(*types.Func); ok &&
				sigContextParam(funcSig(obj)) >= 0 {
				return true
			}
		case *ast.FuncLit:
			if sig, ok := info.Types[fn].Type.(*types.Signature); ok &&
				sigContextParam(sig) >= 0 {
				return true
			}
		}
	}
	return false
}
