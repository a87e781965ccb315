// Package assign implements the greedy track-to-measurement assignment of
// the Kalman baseline's data association: cheap, and what an embedded
// implementation would ship. Its tests measure it against an exhaustive
// search for the cost-optimal assignment.
package assign

import (
	"fmt"
	"math"
)

// Inf marks a forbidden pairing in a cost matrix (for example, a
// track/measurement pair outside the association gate).
var Inf = math.Inf(1)

// Greedy assigns rows to columns by ascending cost: repeatedly take the
// cheapest unassigned (row, col) pair with finite cost. Returns rowTo,
// where rowTo[r] is the column assigned to row r or -1. The cost matrix is
// indexed cost[r][c]; all rows must share one width.
func Greedy(cost [][]float64) ([]int, error) {
	rows, cols, err := dims(cost)
	if err != nil {
		return nil, err
	}
	rowTo := make([]int, rows)
	for i := range rowTo {
		rowTo[i] = -1
	}
	colUsed := make([]bool, cols)
	for {
		bestR, bestC := -1, -1
		best := Inf
		for r := 0; r < rows; r++ {
			if rowTo[r] >= 0 {
				continue
			}
			for c := 0; c < cols; c++ {
				if colUsed[c] {
					continue
				}
				if v := cost[r][c]; v < best {
					best = v
					bestR, bestC = r, c
				}
			}
		}
		if bestR < 0 {
			return rowTo, nil
		}
		rowTo[bestR] = bestC
		colUsed[bestC] = true
	}
}

func dims(cost [][]float64) (rows, cols int, err error) {
	rows = len(cost)
	if rows == 0 {
		return 0, 0, nil
	}
	cols = len(cost[0])
	for i, row := range cost {
		if len(row) != cols {
			return 0, 0, fmt.Errorf("assign: ragged cost matrix at row %d", i)
		}
	}
	return rows, cols, nil
}
