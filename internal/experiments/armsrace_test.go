package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// The arms-race acceptance bounds: with the fixed seed the naive tag's
// switching-harmonic comb is near-perfectly separable (AUC ≥ 0.9), hardening
// (duty dithering + harmonic suppression) pushes it measurably below that,
// kinematic Doppler-consistency survives both arms, and no human is ever
// flagged. The margins are generous — the assertions pin the statistical
// claim, not the exact sample values.
func TestArmsRaceSeparatesArms(t *testing.T) {
	if testing.Short() {
		t.Skip("full radar captures for three arms")
	}
	r, err := ArmsRaceCtx(context.Background(), Quick(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.GhostTracks == 0 || r.HumanTracks == 0 {
		t.Fatalf("missing populations: %d ghost, %d human tracks", r.GhostTracks, r.HumanTracks)
	}

	// Naive tag: the harmonic comb alone separates ghosts from humans.
	if r.HarmonicAUCNaive < 0.9 {
		t.Errorf("naive harmonic AUC = %v, want >= 0.9", r.HarmonicAUCNaive)
	}
	// Hardening measurably degrades the harmonic detector.
	if r.HarmonicAUCHardened > r.HarmonicAUCNaive-0.25 {
		t.Errorf("hardened harmonic AUC = %v vs naive %v, want a >= 0.25 drop",
			r.HarmonicAUCHardened, r.HarmonicAUCNaive)
	}
	// Kinematic consistency is the detector hardening cannot beat: a
	// free-running switch cannot fake coherent Doppler.
	if r.KinematicAUCNaive < 0.9 || r.KinematicAUCHardened < 0.9 {
		t.Errorf("kinematic AUC naive %v / hardened %v, want both >= 0.9",
			r.KinematicAUCNaive, r.KinematicAUCHardened)
	}
	if r.CombinedAUCNaive < 0.9 || r.CombinedAUCHardened < 0.9 {
		t.Errorf("combined AUC naive %v / hardened %v, want both >= 0.9",
			r.CombinedAUCNaive, r.CombinedAUCHardened)
	}

	// Operating point: every naive ghost flagged, no human ever flagged.
	if r.HumansFlagged != 0 {
		t.Errorf("flagged %d of %d human tracks, want 0", r.HumansFlagged, r.HumanTracks)
	}
	if r.NaiveFlagged != r.GhostTracks {
		t.Errorf("flagged %d of %d naive ghosts, want all", r.NaiveFlagged, r.GhostTracks)
	}

	// Replay spoofer: per-chirp sync jitter separates replay phantoms from
	// humans, and the sync-lag probe separates the spoofer (finite shutdown
	// lag) from the passive tag (none).
	if r.ReplayJitterAUC < 0.9 {
		t.Errorf("replay jitter AUC = %v, want >= 0.9", r.ReplayJitterAUC)
	}
	if r.ReplayLag < 0.05 || r.ReplayLag > 0.12 {
		t.Errorf("replay sync lag = %v s, want ~0.08", r.ReplayLag)
	}
	if r.TagLag != 0 {
		t.Errorf("tag sync lag = %v s, want 0 (passive reflector)", r.TagLag)
	}

	var buf bytes.Buffer
	r.Print(&buf)
	for _, want := range []string{"arms race", "harmonic", "kinematic", "replay"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("print output missing %q", want)
		}
	}
}

// The whole experiment is a deterministic function of (Sizes, seed): two
// runs must agree bit-for-bit, or CI flakes and A/B comparisons between
// hardening strategies are meaningless.
func TestArmsRaceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full arms-race runs")
	}
	a, err := ArmsRaceCtx(context.Background(), Quick(), 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ArmsRaceCtx(context.Background(), Quick(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("reruns diverge:\n%+v\n%+v", a, b)
	}
}
