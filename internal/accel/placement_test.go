package accel

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"nocbt/internal/noc"
)

func TestCornerMCs(t *testing.T) {
	got, err := CornerMCs(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// NW first, then the opposite SE corner.
	if len(got) != 2 || got[0] != 0 || got[1] != 15 {
		t.Errorf("4x4 corner MC2 = %v, want [0 15]", got)
	}
	all, err := CornerMCs(8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 || all[0] != 0 || all[1] != 63 || all[2] != 7 || all[3] != 56 {
		t.Errorf("8x8 corner MC4 = %v, want [0 63 7 56]", all)
	}
	if _, err := CornerMCs(4, 4, 5); err == nil ||
		!strings.Contains(err.Error(), "at most 4") {
		t.Errorf("5 corner MCs not rejected: %v", err)
	}
	if _, err := CornerMCs(4, 4, 0); err == nil {
		t.Error("0 corner MCs not rejected")
	}
}

func TestColumnMCs(t *testing.T) {
	got, err := ColumnMCs(6, 6, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Column 0, rows 0/2/4 → node IDs y*6.
	if len(got) != 3 || got[0] != 0 || got[1] != 12 || got[2] != 24 {
		t.Errorf("6x6 column-0 MC3 = %v, want [0 12 24]", got)
	}
	full, err := ColumnMCs(4, 4, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 4 || full[0] != 3 || full[3] != 15 {
		t.Errorf("4x4 column-3 MC4 = %v", full)
	}
	if _, err := ColumnMCs(4, 4, 4, 1); err == nil ||
		!strings.Contains(err.Error(), "outside mesh") {
		t.Errorf("out-of-range column not rejected: %v", err)
	}
	if _, err := ColumnMCs(4, 4, 0, 5); err == nil ||
		!strings.Contains(err.Error(), "at most 4") {
		t.Errorf("too many column MCs not rejected: %v", err)
	}
}

func TestCoordMCs(t *testing.T) {
	got, err := CoordMCs(4, 4, [][2]int{{1, 0}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 14 {
		t.Errorf("coord MCs = %v, want [1 14]", got)
	}
	if _, err := CoordMCs(4, 4, [][2]int{{4, 0}}); err == nil ||
		!strings.Contains(err.Error(), "outside") {
		t.Errorf("out-of-range coordinate not rejected: %v", err)
	}
	if _, err := CoordMCs(4, 4, [][2]int{{1, 1}, {1, 1}}); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate coordinate not rejected: %v", err)
	}
	if _, err := CoordMCs(4, 4, nil); err == nil {
		t.Error("empty coordinate list not rejected")
	}
}

// TestColumnPlacedEngineRuns proves a non-paper platform — 6×6 mesh with
// MCs stacked in column 0 — executes an inference end to end.
func TestColumnPlacedEngineRuns(t *testing.T) {
	mcs, err := ColumnMCs(6, 6, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := paperFixed8
	cfg := Config{
		Mesh:     noc.Config{Width: 6, Height: 6, VCs: 4, BufDepth: 4, LinkBits: g.LinkBits},
		Geometry: g,
		MCs:      mcs,
	}
	rng := rand.New(rand.NewSource(1))
	m := microNet(rng)
	eng := mustNew(t, cfg, m)
	out, err := eng.Infer(context.Background(), testInput(m, 2))
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || eng.TotalBT() <= 0 {
		t.Errorf("degenerate column-placed run: BT=%d", eng.TotalBT())
	}
}
