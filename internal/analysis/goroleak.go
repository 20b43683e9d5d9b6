package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroLeak enforces the no-leaked-goroutines contract: library functions
// return only after every goroutine they spawned has been joined (the
// property the pipeline and experiment sweeps advertise as "no goroutine
// outlives the call"). The join must be visible in the spawning function
// itself — a sync.WaitGroup/parallel.Group Wait call, a channel receive,
// or a range over a channel. Structured-concurrency primitives whose whole
// purpose is to carry the join elsewhere (parallel.Group.GoCtx hands it
// to Group.Wait) document themselves with //rfvet:allow goroleak.
//
// Package main and tests are exempt: commands may detach UX helpers for
// the life of the process, and test scaffolding joins through t.Cleanup.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc: "every go statement in a library package needs a visible join " +
		"(Wait call, channel receive, or range over a channel) in the same function",
	Run: runGoroLeak,
}

func runGoroLeak(p *Pass) error {
	if p.IsMain() {
		return nil
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			body := funcBody(n)
			if body == nil {
				return true
			}
			var spawns []*ast.GoStmt
			joined := false
			// Walk this function's own statements: nested literals are
			// separate units (they are visited by the outer Inspect), and a
			// join inside a spawned goroutine is not a join by the spawner.
			ast.Inspect(body, func(m ast.Node) bool {
				if m != body && funcBody(m) != nil {
					return false
				}
				switch m := m.(type) {
				case *ast.GoStmt:
					spawns = append(spawns, m)
				case *ast.CallExpr:
					if fn := calleeFunc(p.TypesInfo, m); fn != nil &&
						fn.Name() == "Wait" && funcSig(fn).Recv() != nil {
						joined = true
					}
				case *ast.UnaryExpr:
					if m.Op == token.ARROW {
						joined = true
					}
				case *ast.RangeStmt:
					if tv, ok := p.TypesInfo.Types[m.X]; ok {
						if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
							joined = true
						}
					}
				}
				return true
			})
			if !joined {
				for _, g := range spawns {
					p.Reportf(g.Pos(),
						"goroutine has no visible join in the spawning function (no Wait call, channel receive, or channel range); join it, or annotate //rfvet:allow goroleak where a primitive delegates the join")
				}
			}
			return true
		})
	}
	return nil
}
