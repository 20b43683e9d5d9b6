package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the quick-report goldens under testdata")

// goldenExperiments are the experiments cheap enough to pin in -short runs:
// every experiment that does not train the shared cGAN.
var goldenExperiments = []string{
	"fig7", "fig9", "fig13", "fig14", "ablation", "probe", "multiradar", "armsrace",
}

// TestQuickReportsGolden pins the quick report of every non-GAN experiment
// byte for byte, so a refactor of the synthesis, front-end or tracking path
// cannot move a paper result silently. Regenerate with
// `go test ./internal/experiments -run TestQuickReportsGolden -update`.
func TestQuickReportsGolden(t *testing.T) {
	for _, name := range goldenExperiments {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := RunCtx(context.Background(), name, Quick(), 1, &buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name+".quick.golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s quick report differs from %s:\n--- got ---\n%s\n--- want ---\n%s", name, path, buf.Bytes(), want)
			}
		})
	}
}
