package sim

import (
	"strings"
	"testing"
)

func TestRunNoiseShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("noise experiment takes seconds")
	}
	pts, err := RunNoise(2000, 500, 50, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d samples, want 4", len(pts))
	}
	last := pts[len(pts)-1].Sigma
	// Flat directories must have exploded relative to the tree schemes.
	if last["ExtHash-1d"] < 20*last["MEH-Tree"] {
		t.Errorf("1-d flat directory did not degenerate: %d vs MEH %d", last["ExtHash-1d"], last["MEH-Tree"])
	}
	if last["MDEH"] < 10*last["BMEH-Tree"] {
		t.Errorf("MDEH did not degenerate: %d vs BMEH %d", last["MDEH"], last["BMEH-Tree"])
	}
	// A node split gives its empty half no page, so the balanced tree's
	// directory stays within a small factor of the MEH-tree's.
	if last["BMEH-Tree"] > 2*last["MEH-Tree"] {
		t.Errorf("BMEH directory %d exceeds twice the MEH-tree's %d", last["BMEH-Tree"], last["MEH-Tree"])
	}
	// Tree schemes grow roughly linearly: the last sample is within ~6× of
	// the first (4× more keys).
	for _, label := range []string{"MEH-Tree", "BMEH-Tree"} {
		if first := pts[0].Sigma[label]; last[label] > 8*first {
			t.Errorf("%s grew super-linearly: %d → %d over 4× keys", label, first, last[label])
		}
	}
	var sb strings.Builder
	FormatNoise(&sb, pts)
	if !strings.Contains(sb.String(), "degeneration") || !strings.Contains(sb.String(), "BMEH-Tree") {
		t.Errorf("noise format malformed:\n%s", sb.String())
	}
}

func TestPhiAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation takes seconds")
	}
	rows, err := RunPhiAblation(Uniform, 2, 8, 3000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	// Monotone trade-off: larger φ ⇒ fewer levels (≤) and bigger σ (≥,
	// roughly — allow equality).
	for i := 1; i < len(rows); i++ {
		if rows[i].Result.Levels > rows[i-1].Result.Levels {
			t.Errorf("levels increased with larger φ: %v", rows)
		}
	}
	if rows[0].Result.Sigma >= rows[len(rows)-1].Result.Sigma {
		t.Errorf("σ should grow with node size: first %d, last %d",
			rows[0].Result.Sigma, rows[len(rows)-1].Result.Sigma)
	}
	var sb strings.Builder
	FormatAblation(&sb, rows)
	if !strings.Contains(sb.String(), "φ") {
		t.Errorf("ablation format malformed")
	}
}

func TestRunRangeTheorem4(t *testing.T) {
	if testing.Short() {
		t.Skip("range experiment takes seconds")
	}
	pts, err := RunRange(Uniform, 2, 16, 4000, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 18 { // 3 schemes × 6 selectivities
		t.Fatalf("%d points", len(pts))
	}
	// Theorem 4 shape: for large queries the per-page overhead approaches
	// a small constant (≤ ℓ).
	for _, p := range pts {
		if p.Side >= 0.4 && p.ReadRatio > 3 {
			t.Errorf("%v side %.2f: reads/page %.2f, want small constant", p.Scheme, p.Side, p.ReadRatio)
		}
	}
}
