// Package ctxflow is the golden fixture for the ctxflow analyzer:
// synthesized roots with and without a received ctx, nil contexts passed
// with and without a ctx in scope, and the escape hatch.
package ctxflow

import "context"

// Work is a context-accepting leaf.
func Work(ctx context.Context) error { return ctx.Err() }

// runner carries the method form of a context-accepting leaf.
type runner struct{}

func (runner) Tick(ctx context.Context) error { return ctx.Err() }

// synth holds a ctx and synthesizes a fresh root anyway.
func synth(ctx context.Context) error {
	c := context.TODO() // want `already receives a ctx`
	_ = c
	return Work(ctx)
}

// nilHandoff throws the received ctx away.
func nilHandoff(ctx context.Context) error {
	_ = ctx
	return Work(nil) // want `nil ctx`
}

// nilRoot holds no ctx and passes nil anyway: nil is never a context,
// whether or not one is in scope.
func nilRoot(r runner) error {
	return r.Tick(nil) // want `nil ctx`
}

// closure: a literal inside a ctx-bearing function is in ctx scope.
func closure(ctx context.Context) func() error {
	return func() error {
		return Work(context.Background()) // want `already receives a ctx`
	}
}

// root synthesizes a root in library code without receiving one.
func root() error {
	return Work(context.Background()) // want `library code`
}

// allowed shows the escape hatch: an annotated root is suppressed.
func allowed() error {
	return Work(context.Background()) //rfvet:allow ctxflow -- fixture: suppressed root
}

// threaded is fully clean: the ctx flows to every callee.
func threaded(ctx context.Context, r runner) error {
	if err := Work(ctx); err != nil {
		return err
	}
	return r.Tick(ctx)
}
