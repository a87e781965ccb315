// Package metrics implements the tracker evaluation protocol of Section
// III-B: tracker boxes and ground-truth boxes are sampled at fixed time
// intervals; a tracker box is a true positive when its best IoU (Eq. 9)
// against the ground truth exceeds a threshold; precision is
// TP / proposals, recall is TP / ground-truth boxes, accumulated over all
// sampled instants; recordings are combined by weighting each recording's
// precision/recall by its number of ground-truth tracks (Section III-C).
package metrics

import (
	"fmt"
	"sort"

	"ebbiot/internal/geometry"
)

// FrameSample is one evaluation instant: the tracker's boxes and the
// ground-truth boxes at that time.
type FrameSample struct {
	Tracker     []geometry.Box
	GroundTruth []geometry.Box
}

// Counts accumulates the raw matching tallies at one IoU threshold.
type Counts struct {
	// TruePositives is the number of tracker boxes whose matched IoU
	// exceeded the threshold.
	TruePositives int
	// Proposals is the total number of tracker boxes.
	Proposals int
	// GroundTruth is the total number of ground-truth boxes.
	GroundTruth int
}

// Add accumulates another tally.
func (c *Counts) Add(o Counts) {
	c.TruePositives += o.TruePositives
	c.Proposals += o.Proposals
	c.GroundTruth += o.GroundTruth
}

// Precision returns TP / proposals (1 when there are no proposals, because
// an empty output makes no false claims).
func (c Counts) Precision() float64 {
	if c.Proposals == 0 {
		return 1
	}
	return float64(c.TruePositives) / float64(c.Proposals)
}

// Recall returns TP / ground truth (1 when there is nothing to find).
func (c Counts) Recall() float64 {
	if c.GroundTruth == 0 {
		return 1
	}
	return float64(c.TruePositives) / float64(c.GroundTruth)
}

// F1 returns the harmonic mean of precision and recall.
func (c Counts) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// MatchFrame matches one frame's tracker boxes to ground truth at the given
// IoU threshold using greedy best-IoU assignment (each ground-truth box may
// validate at most one tracker box).
func MatchFrame(s FrameSample, iouThreshold float64) Counts {
	c := Counts{Proposals: len(s.Tracker), GroundTruth: len(s.GroundTruth)}
	type pair struct {
		ti, gi int
		iou    float64
	}
	var pairs []pair
	for ti, tb := range s.Tracker {
		for gi, gb := range s.GroundTruth {
			if iou := tb.IoU(gb); iou > iouThreshold {
				pairs = append(pairs, pair{ti: ti, gi: gi, iou: iou})
			}
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].iou != pairs[b].iou {
			return pairs[a].iou > pairs[b].iou
		}
		if pairs[a].ti != pairs[b].ti {
			return pairs[a].ti < pairs[b].ti
		}
		return pairs[a].gi < pairs[b].gi
	})
	tUsed := make([]bool, len(s.Tracker))
	gUsed := make([]bool, len(s.GroundTruth))
	for _, p := range pairs {
		if tUsed[p.ti] || gUsed[p.gi] {
			continue
		}
		tUsed[p.ti] = true
		gUsed[p.gi] = true
		c.TruePositives++
	}
	return c
}

// Evaluate matches every frame sample at the threshold and returns the
// accumulated counts.
func Evaluate(samples []FrameSample, iouThreshold float64) Counts {
	var total Counts
	for _, s := range samples {
		total.Add(MatchFrame(s, iouThreshold))
	}
	return total
}

// Point is one (threshold, precision, recall) sample of the Fig. 4 curves.
type Point struct {
	IoUThreshold float64
	Precision    float64
	Recall       float64
}

// Sweep evaluates the samples across the given IoU thresholds, producing
// one curve point per threshold (the x axis of Fig. 4).
func Sweep(samples []FrameSample, thresholds []float64) []Point {
	out := make([]Point, 0, len(thresholds))
	for _, th := range thresholds {
		c := Evaluate(samples, th)
		out = append(out, Point{IoUThreshold: th, Precision: c.Precision(), Recall: c.Recall()})
	}
	return out
}

// RecordingResult couples one recording's curve with its ground-truth track
// count, the weight used when combining recordings.
type RecordingResult struct {
	Name   string
	Points []Point
	// TrackWeight is the number of ground-truth tracks in the recording.
	TrackWeight int
}

// WeightedAverage combines per-recording curves into one curve, weighting
// each recording by its ground-truth track count as in Section III-C. All
// recordings must share the same threshold grid.
func WeightedAverage(results []RecordingResult) ([]Point, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("metrics: no recordings to average")
	}
	n := len(results[0].Points)
	totalW := 0.0
	for _, r := range results {
		if len(r.Points) != n {
			return nil, fmt.Errorf("metrics: recording %q has %d points, want %d", r.Name, len(r.Points), n)
		}
		if r.TrackWeight < 0 {
			return nil, fmt.Errorf("metrics: recording %q has negative weight", r.Name)
		}
		totalW += float64(r.TrackWeight)
	}
	if totalW == 0 {
		return nil, fmt.Errorf("metrics: all recordings have zero weight")
	}
	out := make([]Point, n)
	for i := 0; i < n; i++ {
		th := results[0].Points[i].IoUThreshold
		var p, rc float64
		for _, r := range results {
			if r.Points[i].IoUThreshold != th {
				return nil, fmt.Errorf("metrics: recording %q threshold grid mismatch", r.Name)
			}
			w := float64(r.TrackWeight) / totalW
			p += float64(w * r.Points[i].Precision)
			rc += float64(w * r.Points[i].Recall)
		}
		out[i] = Point{IoUThreshold: th, Precision: p, Recall: rc}
	}
	return out, nil
}

// DefaultThresholds is the IoU threshold grid used for the Fig. 4
// reproduction.
func DefaultThresholds() []float64 {
	return []float64{0.3, 0.4, 0.5, 0.6, 0.7}
}
