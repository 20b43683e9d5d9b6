package experiments

import (
	"context"
	"testing"
)

func TestMultiRadarFlagsGhost(t *testing.T) {
	r, err := MultiRadarCtx(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.HumanDisagreement < 0 || r.GhostDisagreement < 0 {
		t.Fatalf("entities not matched: human %v ghost %v", r.HumanDisagreement, r.GhostDisagreement)
	}
	if r.HumanFlagged {
		t.Fatalf("real human flagged (disagreement %v)", r.HumanDisagreement)
	}
	if !r.GhostFlagged {
		t.Fatalf("ghost not flagged (disagreement %v)", r.GhostDisagreement)
	}
	if r.GhostDisagreement <= 2*r.HumanDisagreement {
		t.Fatalf("ghost disagreement %v not clearly above human %v", r.GhostDisagreement, r.HumanDisagreement)
	}
}
