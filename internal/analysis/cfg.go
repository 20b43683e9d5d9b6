package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the light intraprocedural control-flow machinery shared by
// the path-sensitive analyzers (poolcheck, lockorder). It deliberately
// stops far short of SSA: blocks hold the AST nodes evaluated on that
// straight-line segment (simple statements plus the header expressions of
// compound statements), edges model the branch structure, and a small
// generic worklist driver runs a forward may-analysis to fixpoint. That is
// exactly enough to ask "does every path from this checkout reach a Put?"
// and "which locks are held at this acquisition?" without importing
// golang.org/x/tools/go/ssa, which the dependency-free module bans.

// cfgBlock is one straight-line segment of a function body.
type cfgBlock struct {
	// nodes are the AST nodes evaluated on this segment in order: simple
	// statements (assignments, calls, sends, defers, go statements,
	// returns) and the header expressions of compound statements (an if
	// condition, a switch tag, a range operand). Nested block structure
	// never appears here — it lives in successor blocks.
	nodes []ast.Node
	succs []*cfgBlock

	// retStmt is set when the block ends in an explicit return. The
	// virtual exit block of a function that can fall off its end is a
	// successor with retStmt == nil.
	retStmt *ast.ReturnStmt
	// panics is set when the block ends in a call that never returns
	// (panic); such blocks have no successors and exempt their path from
	// exit-time checks — an abnormal unwind is neither an error return nor
	// a success return.
	panics bool

	// cond is set on the two branches of an if: the block is entered only
	// when cond evaluated to condTrue. Analyzers may refine their facts on
	// it (poolcheck: a comma-ok checkout owns nothing where ok is false).
	cond     ast.Expr
	condTrue bool
}

// funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	entry  *cfgBlock
	exit   *cfgBlock // virtual: every return and the fall-off-end reach it
	blocks []*cfgBlock
	// unanalyzable is set when the body uses control flow the builder does
	// not model (goto); path-sensitive analyzers skip such functions
	// rather than report from a wrong graph.
	unanalyzable bool
}

// cfgBuilder incrementally assembles a funcCFG.
type cfgBuilder struct {
	g    *funcCFG
	cur  *cfgBlock
	info *types.Info // may be nil; resolves the panic builtin
	// branch targets for break/continue, innermost last. A nil cont marks
	// a switch/select scope (break only).
	scopes []branchScope
}

type branchScope struct {
	label string
	brk   *cfgBlock
	cont  *cfgBlock
}

// buildCFG builds the graph for one function body. info may be nil; with
// type information, calls to the panic builtin terminate their block.
func buildCFG(body *ast.BlockStmt, info *types.Info) *funcCFG {
	g := &funcCFG{}
	b := &cfgBuilder{g: g}
	g.entry = b.newBlock()
	g.exit = &cfgBlock{}
	b.cur = g.entry
	b.info = info
	b.stmtList(body.List)
	if b.cur != nil {
		b.link(b.cur, g.exit) // fall off the end
	}
	g.blocks = append(g.blocks, g.exit)
	return g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) link(from, to *cfgBlock) {
	from.succs = append(from.succs, to)
}

// emit appends a node to the current block, starting a fresh unreachable
// block if control already left (code after return).
func (b *cfgBuilder) emit(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock() // unreachable code; keep it walkable
	}
	b.cur.nodes = append(b.cur.nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// isPanicCall reports whether the statement is a call to the predeclared
// panic builtin (resolved through type info when available, by name
// otherwise).
func (b *cfgBuilder) isPanicCall(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	if b.info != nil {
		if _, isBuiltin := b.info.Uses[id].(*types.Builtin); isBuiltin {
			return true
		}
		return false
	}
	return true
}

func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.ReturnStmt:
		b.emit(s)
		if b.cur != nil {
			b.cur.retStmt = s
			b.link(b.cur, b.g.exit)
			b.cur = nil
		}

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.findBreak(labelName(s)); t != nil {
				b.link(b.curOrNew(), t)
			} else {
				b.g.unanalyzable = true
			}
			b.cur = nil
		case token.CONTINUE:
			if t := b.findContinue(labelName(s)); t != nil {
				b.link(b.curOrNew(), t)
			} else {
				b.g.unanalyzable = true
			}
			b.cur = nil
		case token.GOTO:
			b.g.unanalyzable = true
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled structurally by the switch builder (each clause body
			// already links to the next on fallthrough); nothing to emit.
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.emit(s.Cond)
		head := b.cur
		after := b.newBlock()
		then := b.newBlock()
		then.cond, then.condTrue = s.Cond, true
		b.link(head, then)
		b.cur = then
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.link(b.cur, after)
		}
		// A missing else is an empty block, so the false edge carries its
		// condition too.
		els := b.newBlock()
		els.cond = s.Cond
		b.link(head, els)
		b.cur = els
		if s.Else != nil {
			b.stmt(s.Else, "")
		}
		if b.cur != nil {
			b.link(b.cur, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		b.link(b.curOrNew(), head)
		if s.Cond != nil {
			head.nodes = append(head.nodes, s.Cond)
			b.link(head, after)
		}
		b.link(head, body)
		b.scopes = append(b.scopes, branchScope{label: label, brk: after, cont: post})
		b.cur = body
		b.stmtList(s.Body.List)
		b.scopes = b.scopes[:len(b.scopes)-1]
		if b.cur != nil {
			b.link(b.cur, post)
		}
		if s.Post != nil {
			post.nodes = append(post.nodes, s.Post)
			b.link(post, head)
		}
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.emit(s.X)
		b.link(b.curOrNew(), head)
		// The per-iteration key/value rebinding is not modeled as a node:
		// emitting the whole RangeStmt would drag the loop body into the
		// head block. The operand (s.X) above is what analyzers care about.
		b.link(head, body)
		b.link(head, after)
		b.scopes = append(b.scopes, branchScope{label: label, brk: after, cont: head})
		b.cur = body
		b.stmtList(s.Body.List)
		b.scopes = b.scopes[:len(b.scopes)-1]
		if b.cur != nil {
			b.link(b.cur, head)
		}
		b.cur = after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.switchLike(s, label)

	case *ast.DeferStmt, *ast.GoStmt, *ast.AssignStmt, *ast.ExprStmt,
		*ast.SendStmt, *ast.IncDecStmt, *ast.DeclStmt, *ast.EmptyStmt:
		if b.isPanicCall(s) {
			b.emit(s)
			if b.cur != nil {
				b.cur.panics = true
			}
			b.cur = nil
			return
		}
		b.emit(s)

	default:
		// Unmodeled statement kind: give up on path sensitivity.
		b.g.unanalyzable = true
		b.emit(s)
	}
}

// switchLike builds switch, type-switch, and select statements: a header
// block fans out to one block per clause, every clause body links to the
// after block, and fallthrough links a clause to the next clause's body.
func (b *cfgBuilder) switchLike(s ast.Stmt, label string) {
	var init ast.Stmt
	var header []ast.Node
	var clauses []ast.Stmt
	hasDefault := false
	isSelect := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		init = s.Init
		if s.Tag != nil {
			header = append(header, s.Tag)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		init = s.Init
		header = append(header, s.Assign)
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
		isSelect = true
	}
	if init != nil {
		b.stmt(init, "")
	}
	for _, n := range header {
		b.emit(n)
	}
	head := b.curOrNew()
	after := b.newBlock()
	b.scopes = append(b.scopes, branchScope{label: label, brk: after})

	bodies := make([]*cfgBlock, len(clauses))
	for i := range clauses {
		bodies[i] = b.newBlock()
	}
	for i, c := range clauses {
		blk := bodies[i]
		b.link(head, blk)
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				blk.nodes = append(blk.nodes, e)
			}
			list = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				b.cur = blk
				b.stmt(c.Comm, "")
				blk = b.curOrNew()
			}
			list = c.Body
		}
		b.cur = blk
		fallsThrough := false
		for _, st := range list {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
			b.stmt(st, "")
		}
		if fallsThrough && i+1 < len(bodies) {
			b.link(b.curOrNew(), bodies[i+1])
			b.cur = nil
		}
		if b.cur != nil {
			b.link(b.cur, after)
		}
	}
	// A switch without a default can skip every clause, so the header
	// reaches the after block directly. A select without a default only
	// leaves through a clause (it blocks otherwise), so no such edge — an
	// invented skip path would manufacture false "leak" reports in
	// poolcheck for selects that hand a buffer to every case.
	if !isSelect && (!hasDefault || len(clauses) == 0) {
		b.link(head, after)
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	b.cur = after
}

func (b *cfgBuilder) curOrNew() *cfgBlock {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func labelName(s *ast.BranchStmt) string {
	if s.Label == nil {
		return ""
	}
	return s.Label.Name
}

func (b *cfgBuilder) findBreak(label string) *cfgBlock {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		sc := b.scopes[i]
		if label == "" || sc.label == label {
			return sc.brk
		}
	}
	return nil
}

func (b *cfgBuilder) findContinue(label string) *cfgBlock {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		sc := b.scopes[i]
		if sc.cont != nil && (label == "" || sc.label == label) {
			return sc.cont
		}
	}
	return nil
}

// dataflow runs a forward may-analysis over the graph to fixpoint and
// returns the state at entry to each block. transfer must not mutate its
// input; it returns the state after executing the block. merge joins the
// states of two incoming edges; equal bounds the iteration.
func dataflow[S any](g *funcCFG, entry S, transfer func(*cfgBlock, S) S, merge func(S, S) S, equal func(S, S) bool) map[*cfgBlock]S {
	in := map[*cfgBlock]S{g.entry: entry}
	work := []*cfgBlock{g.entry}
	seen := map[*cfgBlock]bool{g.entry: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		seen[blk] = false
		out := transfer(blk, in[blk])
		for _, succ := range blk.succs {
			cur, ok := in[succ]
			var next S
			if !ok {
				next = out
			} else {
				next = merge(cur, out)
			}
			if !ok || !equal(cur, next) {
				in[succ] = next
				if !seen[succ] {
					seen[succ] = true
					work = append(work, succ)
				}
			}
		}
	}
	return in
}

// funcsOf yields every function body in the file — declarations and
// literals — paired with the node that owns it. Literals nested inside a
// function are yielded separately; CFG construction never descends into
// them, so each body is analyzed exactly once, as its own unit.
func funcsOf(f *ast.File, visit func(node ast.Node, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				visit(n, n.Body)
			}
		case *ast.FuncLit:
			visit(n, n.Body)
		}
		return true
	})
}
