package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenOutput pins the rendered report of every deterministic
// experiment byte for byte. The goldens in testdata were recorded from
// Run(name, Config{Seed: 1}); a change that alters any inferred expression,
// token count or derivation step shows up here as a diff.
func TestGoldenOutput(t *testing.T) {
	for _, name := range []string{"table1", "table2", "conciseness", "ablation"} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(name, Config{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s output differs from testdata/%s.golden:\n--- got ---\n%s\n--- want ---\n%s", name, name, got, want)
			}
		})
	}
}
