// Package parallel provides the small concurrency substrate shared by the
// simulation stack: a persistent worker pool for index-addressed fan-out
// (Pool, with the package-level ForEachCtx running on a shared default
// pool) and a deterministic seed-splitting mix (SplitSeed) so parallel code
// can hand every independent unit of work its own RNG stream. ForEachCtx is
// the only fan-out primitive: heterogeneous tasks are indices too, each
// writing its own result slot and, where it can fail, its own error slot,
// which the caller scans in index order after the join — so the reported
// error never depends on which task finished first.
//
// Everything here is designed around one invariant: results must be
// bit-identical regardless of the worker count. The helpers guarantee that
// by construction — workers only ever write to disjoint, index-addressed
// destinations, and randomness is never drawn from a shared stream inside a
// pool; it is split up front with SplitSeed. DESIGN.md ("Concurrency
// model") documents the scheme.
//
// # The persistent pool
//
// Pool parks a fixed set of worker goroutines once, at construction, and
// wakes them per batch; the steady state of a ForEachCtx spawns nothing.
// Batches are claim-counter based — each participant (the caller included)
// atomically claims the next index until none remain — so the schedule is
// work-stealing-ish without any per-index channel traffic. Joins help while
// waiting: a caller whose batch still has outstanding helper tokens
// consumes other batches' tokens from the shared queue instead of parking,
// which is what makes nested ForEachCtx calls from inside pool workers
// deadlock-free by construction. Wake tokens are sent non-blocking: helpers
// are strictly opportunistic, and a full queue just means the caller covers
// the indices itself. A panic in fn, on whichever goroutine it happens, is
// re-raised on the fan-out's caller as a *Panic once the batch has joined.
//
// # Contexts
//
// Every fan-out takes a context.Context (ForEachCtx, Pool.ForEachCtx):
// there is no context-free variant and no nil-ctx "never cancel" reading.
// Roots are made once, at main or in a test, with context.Background().
package parallel
