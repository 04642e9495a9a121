package experiments

import (
	"testing"
)

// TestFullScaleHeadlines guards the paper-shape properties at the full
// evaluation scale. cmd/experiments/testdata/all.golden pins the exact
// tables these quantities come from. Skipped under -short; the whole
// battery costs a few seconds.
func TestFullScaleHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiments skipped in -short mode")
	}
	e, err := NewEnv(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Figure 10: exact dataset scales.
	if got := e.Paper.Dataset.Len(); got != 997 {
		t.Errorf("paper records = %d, want 997", got)
	}
	if got := e.Product.Dataset.NumPairs(); got != 1081*1092 {
		t.Errorf("product pair universe = %d, want %d", got, 1081*1092)
	}
	if got := MaxClusterSize(e.Fig10().Paper); got != 102 {
		t.Errorf("paper max cluster = %d, want 102", got)
	}

	// Figure 11: savings bands.
	fig11, err := e.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	paperAt3 := findFig11(fig11.Paper, 0.3)
	if s := paperAt3.Saving(); s < 0.7 || s > 0.99 {
		t.Errorf("paper saving@0.3 = %.2f, want within [0.7, 0.99] (paper: 0.96)", s)
	}
	productAt3 := findFig11(fig11.Product, 0.3)
	if s := productAt3.Saving(); s < 0.02 || s > 0.4 {
		t.Errorf("product saving@0.3 = %.2f, want within [0.02, 0.4] (paper: ~0.1)", s)
	}

	// Figure 12: order ranking magnitudes at the lowest threshold.
	fig12, err := e.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	low := fig12.Paper[len(fig12.Paper)-1]
	if ratio := float64(low.Worst) / float64(low.Optimal); ratio < 2 {
		t.Errorf("paper worst/optimal@%.1f = %.1f, want ≥ 2 (paper: 26)", low.Threshold, ratio)
	}
	if slack := float64(low.Expected)/float64(low.Optimal) - 1; slack > 0.05 {
		t.Errorf("expected order %.1f%% above optimal, want ≤ 5%%", 100*slack)
	}

	// Figure 13: iteration collapse.
	fig13, err := e.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(fig13.Paper.RoundSizes); n < 3 || n > 40 {
		t.Errorf("paper parallel iterations = %d, want a handful (paper: 14)", n)
	}

	// Table 1: meaningful speedup.
	t1, err := e.Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range t1.Rows {
		if sp := row.NonParallelHours / row.ParallelIDHours; sp < 2 {
			t.Errorf("%s speedup = %.1f, want ≥ 2 (paper: 7-10)", row.Dataset, sp)
		}
	}

	// Table 2: big HIT reduction on Paper, bounded quality loss.
	t2, err := e.Table2()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]Table2Row{}
	for _, row := range t2.Rows {
		rows[row.Dataset+"/"+row.Method] = row
	}
	if red := float64(rows["Paper/Non-Transitive"].HITs) / float64(rows["Paper/Transitive"].HITs); red < 5 {
		t.Errorf("paper HIT reduction = %.1fx, want ≥ 5x (paper: 28x)", red)
	}
	if loss := rows["Paper/Non-Transitive"].Quality.F1 - rows["Paper/Transitive"].Quality.F1; loss < -0.02 || loss > 0.12 {
		t.Errorf("paper F1 loss = %.3f, want small and non-negative-ish (paper: 0.056)", loss)
	}
	if loss := rows["Product/Non-Transitive"].Quality.F1 - rows["Product/Transitive"].Quality.F1; loss > 0.05 || loss < -0.05 {
		t.Errorf("product F1 delta = %.3f, want ~0 (paper: 0.004)", loss)
	}
}
