//go:build !amd64

package radar

// useBeamAVX is always false off amd64: the beamforming sweep runs the
// portable scalar kernel, beamRowScalar.
var useBeamAVX = false

// beamSweepAVX is unreachable off amd64 (useBeamAVX is never set); the stub
// keeps the package compiling without per-architecture dispatch at the call
// sites.
func beamSweepAVX(row *float64, n, nAnt int, s, wre, wim *float64, stride int) (rowMax float64, rowNaN bool) {
	panic("radar: beamSweepAVX without AVX support")
}
