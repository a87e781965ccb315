package assign

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGreedySimple(t *testing.T) {
	cost := [][]float64{
		{1, 5},
		{2, 1},
	}
	got, err := Greedy(cost)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy takes (0,0)=1 first, then (1,1)=1.
	if got[0] != 0 || got[1] != 1 {
		t.Errorf("greedy = %v", got)
	}
}

func TestGreedySuboptimalCase(t *testing.T) {
	// The classic trap: greedy grabs the global minimum and pays for it.
	cost := [][]float64{
		{1, 2},
		{2, 100},
	}
	g, err := Greedy(cost)
	if err != nil {
		t.Fatal(err)
	}
	if gc := totalCost(t, cost, g); gc != 101 {
		t.Errorf("greedy cost = %v, want 101", gc)
	}
	if best := bruteForceBest(cost); best != 4 {
		t.Errorf("optimal cost = %v, want 4 (anti-diagonal)", best)
	}
}

func TestGreedyRectangular(t *testing.T) {
	// More rows than columns: one row stays unassigned.
	cost := [][]float64{
		{1},
		{2},
		{3},
	}
	got, err := Greedy(cost)
	if err != nil {
		t.Fatal(err)
	}
	assigned := 0
	for r, c := range got {
		if c == 0 {
			assigned++
			if r != 0 {
				t.Errorf("cheapest row should win the only column, got row %d", r)
			}
		}
	}
	if assigned != 1 {
		t.Errorf("%d rows assigned to 1 column", assigned)
	}
	// More columns than rows.
	cost2 := [][]float64{{3, 1, 2}}
	got2, err := Greedy(cost2)
	if err != nil {
		t.Fatal(err)
	}
	if got2[0] != 1 {
		t.Errorf("row should take cheapest column 1, got %d", got2[0])
	}
}

func TestForbiddenPairs(t *testing.T) {
	cost := [][]float64{
		{Inf, 1},
		{1, Inf},
	}
	got, err := Greedy(cost)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("assignment must avoid forbidden diagonal: %v", got)
	}
	allForbidden := [][]float64{{Inf}}
	got2, err := Greedy(allForbidden)
	if err != nil {
		t.Fatal(err)
	}
	if got2[0] != -1 {
		t.Errorf("fully forbidden row must stay unassigned, got %d", got2[0])
	}
}

func TestEmptyAndRagged(t *testing.T) {
	if got, err := Greedy(nil); err != nil || len(got) != 0 {
		t.Errorf("empty greedy: %v, %v", got, err)
	}
	ragged := [][]float64{{1, 2}, {3}}
	if _, err := Greedy(ragged); err == nil {
		t.Error("ragged matrix should error")
	}
}

// totalCost sums the cost of an assignment, ignoring unassigned rows. It
// fails the test if the assignment uses a column twice, leaves the matrix
// or takes a forbidden pair.
func totalCost(t *testing.T, cost [][]float64, rowTo []int) float64 {
	t.Helper()
	total := 0.0
	used := map[int]bool{}
	for r, c := range rowTo {
		if c < 0 {
			continue
		}
		if r >= len(cost) || c >= len(cost[r]) || used[c] || math.IsInf(cost[r][c], 1) {
			t.Fatalf("invalid assignment %v for %v", rowTo, cost)
		}
		used[c] = true
		total += cost[r][c]
	}
	return total
}

// bruteForceBest finds the optimal assignment cost by enumeration (n <= 4).
func bruteForceBest(cost [][]float64) float64 {
	n := len(cost)
	cols := len(cost[0])
	best := math.Inf(1)
	perm := make([]int, 0, n)
	used := make([]bool, cols)
	var rec func(r int, sofar float64, assigned int)
	rec = func(r int, sofar float64, assigned int) {
		if r == n {
			// Count only full assignments of min(n, cols) pairs.
			if assigned == min(n, cols) && sofar < best {
				best = sofar
			}
			return
		}
		// Skip this row.
		rec(r+1, sofar, assigned)
		for c := 0; c < cols; c++ {
			if used[c] || math.IsInf(cost[r][c], 1) {
				continue
			}
			used[c] = true
			perm = append(perm, c)
			rec(r+1, sofar+cost[r][c], assigned+1)
			perm = perm[:len(perm)-1]
			used[c] = false
		}
	}
	rec(0, 0, 0)
	return best
}

func TestGreedyNeverBeatsOptimalProperty(t *testing.T) {
	prop := func(vals [16]uint8, rows8, cols8 uint8) bool {
		rows := 1 + int(rows8%4)
		cols := 1 + int(cols8%4)
		cost := make([][]float64, rows)
		k := 0
		for r := 0; r < rows; r++ {
			cost[r] = make([]float64, cols)
			for c := 0; c < cols; c++ {
				cost[r][c] = float64(vals[k%16] % 50)
				k++
			}
		}
		got, err := Greedy(cost)
		if err != nil {
			return false
		}
		// All-finite matrices must fully assign min(rows, cols) pairs.
		assigned := 0
		for _, c := range got {
			if c >= 0 {
				assigned++
			}
		}
		if assigned != min(rows, cols) {
			return false
		}
		return totalCost(t, cost, got) >= bruteForceBest(cost)-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
