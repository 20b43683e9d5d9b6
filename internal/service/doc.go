// Package service hosts many concurrent RF-Protect sessions behind a
// sharded room manager with an HTTP/streaming API — the multi-tenant layer
// between the single-session library (internal/core + internal/pipeline)
// and the rfprotectd daemon.
//
// # Rooms
//
// A Room is one tenant deployment: its own core.Session (scene, tag,
// controller), the shared radar.PlanFrontEnd plan of its shape, its own
// pipeline.Pools, and a pooled stage chain ending in a tracker — assembled
// in exactly the order a library caller would use, so a synthetic room's
// detections and tracks are bit-identical to the same configuration run by
// hand. Rooms come in two modes. A synthetic room (Frames > 0) synthesizes
// its own capture from a seed, optionally paced to a real-time frame rate,
// and finishes on its own. An ingest room (Frames == 0) processes frames
// POSTed to it through a bounded queue until closed or drained; the
// full-queue policy is per room — block the producer (backpressure, the
// default) or drop with a 429 (load-shedding).
//
// # Manager
//
// The Manager shards the room table by FNV-1a of the room ID: each shard
// has its own lock, map, and counters, so lookups and per-frame accounting
// scale across rooms. Every room is driven by exactly one runner goroutine,
// spawned at creation and joined by Drain through one WaitGroup — the
// package never leaks a goroutine past Drain's return.
//
// # Drain
//
// Drain is the orderly shutdown behind SIGTERM: new rooms and new frames
// are refused, synthetic sources stop at the next frame boundary, ingest
// queues close, and every frame already accepted — queued or in flight —
// still completes every stage before the runner exits. Enqueue vs. close is
// serialized (non-blocking sends under a read lock against close under the
// write lock), so a Push that returned success has its frame in the buffer
// and the closed channel delivers it to the pipeline before io.EOF: a clean
// drain drops nothing. Only when the drain deadline expires are stragglers
// hard-cancelled.
//
// # Output
//
// Each processed frame is broadcast to the room's subscribers as one NDJSON
// Event: the frame's detections, the confirmed tracks still live, and one
// last record, marked retired, of each track that retired on that frame.
// A consumer that applies every event's entries rebuilds the full set the
// final event carries (every confirmed track, retired and live), so a
// per-frame event's size tracks the room's occupants rather than its age.
// Subscriber buffers are bounded; a slow stream consumer sheds events
// (counted per shard) rather than stalling the room. /metrics exposes
// rooms, summed ingest queue depth, and processed/dropped counters per
// shard, plus global frames/sec and allocations/frame between scrapes.
//
// # Failure
//
// A panic in a room's stages fails that room alone: its runner recovers,
// the room's state becomes failed with the panic as its error, and its
// subscribers receive a final event carrying that error. The panic's stack
// goes to the process log (package log).
//
// DESIGN.md ("Service architecture") documents the invariants; API.md
// documents every endpoint with examples.
package service
