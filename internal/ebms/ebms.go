// Package ebms implements the event-based mean-shift cluster tracker used
// as the fully event-driven baseline (Delbruck & Lang 2013, the paper's
// reference [4], with the cost model of Eq. 8).
//
// Every (noise-filtered) event is assigned to the nearest active cluster
// whose extent contains it; the cluster's position mixes exponentially
// toward the event (the mean-shift step). Events claimed by no cluster seed
// a new one while slots are available (CLmax = 8). Clusters that stop
// receiving events expire; overlapping clusters merge (probability γmerge
// in the cost model). Cluster velocity is estimated by least-squares
// regression over the last 10 recorded positions, as the paper assumes for
// Eq. 8's arithmetic.
//
// Unlike the frame-based trackers, EBMS has per-event costs: the paper's
// point is precisely that its computes scale with the event rate NF.
package ebms

import (
	"fmt"
	"math"

	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
)

// historyLen is the number of past positions used for the least-squares
// velocity fit (10 in the paper's Eq. 8 accounting).
const historyLen = 10

// Config parameterises the mean-shift tracker.
type Config struct {
	// MaxClusters is CLmax; the paper uses 8.
	MaxClusters int
	// Radius is the cluster's capture radius in pixels: events within this
	// Chebyshev distance of a cluster center are assigned to it.
	Radius float64
	// MixFactor is the exponential mixing rate of the cluster center toward
	// each assigned event.
	MixFactor float64
	// SupportEvents is the minimum event count for a cluster to be
	// reported (visible, in Delbruck's terms).
	SupportEvents int
	// ExpiryUS removes a cluster not hit by any event for this long.
	ExpiryUS int64
	// MergeDistance merges two clusters whose centers approach within this
	// many pixels.
	MergeDistance float64
	// HistoryStrideUS is the spacing between recorded positions for the
	// velocity regression.
	HistoryStrideUS int64
}

// DefaultConfig returns parameters tuned for the paper's traffic scenes.
func DefaultConfig() Config {
	return Config{
		MaxClusters:     8,
		Radius:          25,
		MixFactor:       0.02,
		SupportEvents:   20,
		ExpiryUS:        200_000,
		MergeDistance:   12,
		HistoryStrideUS: 33_000,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MaxClusters <= 0 {
		return fmt.Errorf("ebms: MaxClusters must be positive, got %d", c.MaxClusters)
	}
	if c.Radius <= 0 {
		return fmt.Errorf("ebms: Radius must be positive, got %v", c.Radius)
	}
	if c.MixFactor <= 0 || c.MixFactor > 1 {
		return fmt.Errorf("ebms: MixFactor must be in (0,1], got %v", c.MixFactor)
	}
	if c.ExpiryUS <= 0 {
		return fmt.Errorf("ebms: ExpiryUS must be positive, got %d", c.ExpiryUS)
	}
	if c.HistoryStrideUS <= 0 {
		return fmt.Errorf("ebms: HistoryStrideUS must be positive, got %d", c.HistoryStrideUS)
	}
	return nil
}

// cluster is one mean-shift cluster.
type cluster struct {
	id     int
	cx, cy float64
	// sx, sy are exponentially-smoothed half-extents estimated from event
	// scatter, giving the reported box its size.
	sx, sy     float64
	count      int
	lastSeenUS int64
	// history holds up to historyLen (t, x, y) samples for the velocity
	// regression, spaced HistoryStrideUS apart.
	history    []sample
	lastHistUS int64
	valid      bool
}

type sample struct {
	tUS  int64
	x, y float64
}

// Report is one visible cluster's state.
type Report struct {
	ID  int
	Box geometry.Box
	// VX, VY are the regression velocity in px/s.
	VX, VY float64
	// Events is the cluster's accumulated event count.
	Events int
}

// Tracker is the EBMS multi-cluster tracker. Every product or quotient
// that feeds an addition is wrapped in float64(), so no target fuses it into
// a multiply-add and the clusters' bits are the same on every architecture.
type Tracker struct {
	cfg Config
	// bounds is the sensor array reports are clamped to.
	bounds   geometry.Box
	clusters []cluster
	nextID   int
	// ops approximates primitive operations under Eq. 8's accounting.
	ops int64
	// merges counts cluster merge episodes (the γmerge rate).
	merges int64
	// eventsSeen counts processed events.
	eventsSeen int64
}

// New returns a Tracker for a sensor array of the given bounds.
func New(cfg Config, bounds geometry.Box) (*Tracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tracker{cfg: cfg, bounds: bounds, clusters: make([]cluster, cfg.MaxClusters)}, nil
}

// Ops returns the cumulative approximate operation count.
func (t *Tracker) Ops() int64 { return t.ops }

// Merges returns the number of cluster merges so far.
func (t *Tracker) Merges() int64 { return t.merges }

// EventsSeen returns the number of processed events.
func (t *Tracker) EventsSeen() int64 { return t.eventsSeen }

// ActiveClusters returns the number of live clusters.
func (t *Tracker) ActiveClusters() int {
	n := 0
	for i := range t.clusters {
		if t.clusters[i].valid {
			n++
		}
	}
	return n
}

// Process consumes a batch of time-sorted events, updating clusters per
// event.
func (t *Tracker) Process(evs []events.Event) {
	for _, e := range evs {
		t.processOne(e)
	}
}

func (t *Tracker) processOne(e events.Event) {
	t.eventsSeen++
	// Housekeeping runs on every event so stale clusters expire even when
	// the event seeds rather than matches.
	t.expireAndMerge(e.T)
	ex, ey := float64(e.X), float64(e.Y)

	// Find the nearest cluster whose capture radius contains the event.
	best := -1
	bestD := math.MaxFloat64
	for i := range t.clusters {
		c := &t.clusters[i]
		if !c.valid {
			continue
		}
		t.ops += 9 // distance computation + comparisons (Eq. 8's 9*CL/2 avg term)
		dx := math.Abs(ex - c.cx)
		dy := math.Abs(ey - c.cy)
		if dx > t.cfg.Radius+c.sx || dy > t.cfg.Radius+c.sy {
			continue
		}
		d := float64(dx*dx) + float64(dy*dy)
		if d < bestD {
			bestD = d
			best = i
		}
	}

	if best < 0 {
		t.seed(e)
		return
	}

	// Mean-shift update: mix the center toward the event and refresh the
	// extent estimate from the event offset.
	c := &t.clusters[best]
	m := t.cfg.MixFactor
	c.cx = float64((1-m)*c.cx) + float64(m*ex)
	c.cy = float64((1-m)*c.cy) + float64(m*ey)
	adx, ady := math.Abs(ex-c.cx), math.Abs(ey-c.cy)
	// x*2 compiles to x+x, so m*adx is rounded on its own as well.
	c.sx = float64((1-m)*c.sx) + float64(float64(m*adx)*2)
	c.sy = float64((1-m)*c.sy) + float64(float64(m*ady)*2)
	c.count++
	c.lastSeenUS = e.T
	t.ops += 169 // per-event update arithmetic (Eq. 8's 169 coefficient)

	// Record a history sample at the configured stride and refresh the
	// regression velocity.
	if e.T-c.lastHistUS >= t.cfg.HistoryStrideUS {
		c.lastHistUS = e.T
		c.history = append(c.history, sample{tUS: e.T, x: c.cx, y: c.cy})
		if len(c.history) > historyLen {
			c.history = c.history[len(c.history)-historyLen:]
		}
	}
}

// seed starts a new cluster at the event if a slot is free.
func (t *Tracker) seed(e events.Event) {
	for i := range t.clusters {
		if t.clusters[i].valid {
			continue
		}
		t.clusters[i] = cluster{
			id:         t.nextID,
			cx:         float64(e.X),
			cy:         float64(e.Y),
			sx:         4,
			sy:         4,
			count:      1,
			lastSeenUS: e.T,
			lastHistUS: e.T,
			history:    []sample{{tUS: e.T, x: float64(e.X), y: float64(e.Y)}},
			valid:      true,
		}
		t.nextID++
		t.ops += 11 // seeding constant of Eq. 8
		return
	}
}

// expireAndMerge removes stale clusters and merges converged ones.
func (t *Tracker) expireAndMerge(nowUS int64) {
	for i := range t.clusters {
		c := &t.clusters[i]
		if c.valid && nowUS-c.lastSeenUS > t.cfg.ExpiryUS {
			t.clusters[i] = cluster{}
		}
	}
	for i := range t.clusters {
		if !t.clusters[i].valid {
			continue
		}
		for j := i + 1; j < len(t.clusters); j++ {
			if !t.clusters[j].valid {
				continue
			}
			a, b := &t.clusters[i], &t.clusters[j]
			if math.Abs(a.cx-b.cx) < t.cfg.MergeDistance && math.Abs(a.cy-b.cy) < t.cfg.MergeDistance {
				// Keep the better-supported cluster.
				keep, drop := a, b
				di := j
				if b.count > a.count {
					keep, drop = b, a
					di = i
				}
				keep.count += drop.count
				keep.sx = math.Max(keep.sx, drop.sx)
				keep.sy = math.Max(keep.sy, drop.sy)
				t.clusters[di] = cluster{}
				t.merges++
				t.ops += 16 // merge constant of Eq. 8
			}
		}
	}
}

// velocity fits v = d(pos)/dt by least squares over the history samples,
// returning px/s.
func velocity(hist []sample) (vx, vy float64) {
	n := len(hist)
	if n < 2 {
		return 0, 0
	}
	t0 := hist[0].tUS
	var st, sx, sy, stt, stx, sty float64
	for _, h := range hist {
		ts := float64(h.tUS-t0) / 1e6
		st += ts
		sx += h.x
		sy += h.y
		stt += float64(ts * ts)
		stx += float64(ts * h.x)
		sty += float64(ts * h.y)
	}
	fn := float64(n)
	den := float64(fn*stt) - float64(st*st)
	if den < 1e-12 {
		return 0, 0
	}
	vx = (float64(fn*stx) - float64(st*sx)) / den
	vy = (float64(fn*sty) - float64(st*sy)) / den
	return vx, vy
}

// Reports returns the visible clusters (enough supporting events), with
// boxes derived from the scatter extents, clamped to bounds.
func (t *Tracker) Reports() []Report {
	var out []Report
	for i := range t.clusters {
		c := &t.clusters[i]
		if !c.valid || c.count < t.cfg.SupportEvents {
			continue
		}
		vx, vy := velocity(c.history)
		w := 2 * math.Max(c.sx, 2)
		h := 2 * math.Max(c.sy, 2)
		b := geometry.FBox{X: c.cx - float64(w/2), Y: c.cy - float64(h/2), W: w, H: h}.Round().Clamp(t.bounds)
		if b.Empty() {
			continue
		}
		out = append(out, Report{ID: c.id, Box: b, VX: vx, VY: vy, Events: c.count})
	}
	return out
}
