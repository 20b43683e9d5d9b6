// Package core is the top of the RF-Protect stack: it wires the trajectory
// generator (internal/gan over internal/motion) to the hardware tag
// (internal/reflector), manages ghost deployments, and implements the
// legitimate-sensor path (§11.3) that removes disclosed fake trajectories
// from tracking output.
//
// A typical deployment through the System API:
//
//	sess, _ := core.NewSession(core.SessionConfig{Room: scene.HomeRoom()})
//	sys := sess.NewSystem(core.Config{Seed: 1}) // shares sess.Tag
//	sys.TrainGenerator(nil, 200)                // or sys.LoadGenerator(r)
//	rec, _ := sys.DeployGhost(2, anchor, 0)     // class-2 ghost at t=0
//	frames, _ := sess.Scene.CaptureCtx(ctx, 0, n, rng)
//
// # Sessions
//
// Session/SessionConfig is the one shared wiring point for the
// scene→tag→radar stack: NewSession assembles a room, an eavesdropper
// radar, and a tag already appended to the scene's sources, with
// ExtraRadars adding coordinated eavesdropper views that share the single
// tag (the §13 extended threat model). Every consumer of a full deployment
// — the experiments, the examples, the service layer behind rfprotectd —
// builds it through a Session so the assembly order (and therefore the
// bit-exact output for a given seed) is identical everywhere.
package core
