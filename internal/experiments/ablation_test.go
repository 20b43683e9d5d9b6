package experiments

import (
	"context"
	"testing"
)

func TestAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("full radar sweeps")
	}
	r, err := AblationCtx(context.Background(), 11)
	if err != nil {
		t.Fatal(err)
	}
	// Removing diffuse multipath must not make localization worse (and
	// typically improves it by several cm; exact margins vary with the
	// small per-run trajectory sample).
	if r.LocErrWithoutSpeckle > r.LocErrWithSpeckle+0.01 {
		t.Fatalf("speckle ablation: %.3f with vs %.3f without", r.LocErrWithSpeckle, r.LocErrWithoutSpeckle)
	}
	if r.DetectionsSSB > r.DetectionsFullHarmonics {
		t.Fatalf("SSB should not add detections: %d vs %d", r.DetectionsSSB, r.DetectionsFullHarmonics)
	}
	if r.MatchedPowerRatio < 0.2 || r.MatchedPowerRatio > 5 {
		t.Fatalf("matched power ratio %v not near 1", r.MatchedPowerRatio)
	}
}
