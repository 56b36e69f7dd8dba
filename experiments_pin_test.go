package nocbt

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// TestCodedExperimentsPinned holds the sha256 of the JSON rendering of the
// three experiments that cross orderings with link codings, at Quick and
// seed 1. Every row of them is a sweep grid point, so any change to how
// the sweep runner simulates or counts a coding — including running one
// simulation for several codings — must reproduce these bytes. The
// topology digest is also bench/digests.json's topology-grid seed-1 entry.
// The pins hold for amd64 builds: other architectures may fuse a multiply
// and add in the power and reduction columns.
func TestCodedExperimentsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three NoC strategy grids; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("strategy grids are too slow under the race detector")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64, not %s", runtime.GOARCH)
	}
	for _, tc := range []struct{ name, want string }{
		{"codings", "f0aafed76d401727affc34ff7c0b1347676551458f40c2ebd6848e7050449fe9"},
		{"precision", "42a7aaa641b07da0e61bb3d1a96c1c7cdb2079a4057344e265aa95518c05a4c6"},
		{"topology", "401619460d68673b3401608b558cb1036ce2623068000a99bd672afbbe3782df"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunExperiment(context.Background(), tc.name, Params{Seed: 1, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			text, err := Render(res, JSON)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(text))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("%s JSON sha256 = %s, want %s", tc.name, got, tc.want)
			}
		})
	}
}
