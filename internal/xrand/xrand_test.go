package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("seeds 1 and 2 produced %d identical outputs in 100 draws", same)
	}
}

func TestKnownStream(t *testing.T) {
	// Pin the first outputs for seed 0 so any accidental algorithm change is
	// caught: recordings generated by the dataset tools must stay stable.
	r := New(0)
	got := []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
	r2 := New(0)
	for i, w := range got {
		if g := r2.Uint64(); g != w {
			t.Fatalf("stream not self-consistent at %d: %d vs %d", i, g, w)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := New(9)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.IntRange(-3, 3)
		if v < -3 || v > 3 {
			t.Fatalf("IntRange out of bounds: %d", v)
		}
		seen[v] = true
	}
	for v := -3; v <= 3; v++ {
		if !seen[v] {
			t.Errorf("value %d never drawn in 1000 samples", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(17)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(19)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("exponential variate negative: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.03 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func TestPoissonMean(t *testing.T) {
	for _, mean := range []float64{0.5, 2, 10, 50} {
		r := New(23)
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Errorf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
	if New(1).Poisson(0) != 0 {
		t.Error("Poisson(0) should be 0")
	}
	if New(1).Poisson(-3) != 0 {
		t.Error("Poisson(negative) should be 0")
	}
}

func TestBool(t *testing.T) {
	r := New(29)
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			count++
		}
	}
	frac := float64(count) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("Bool(0.25) frequency = %v", frac)
	}
}

// TestThresholdMatchesBool checks the integer Bernoulli test against Bool:
// around each threshold, k < Threshold(p) must agree with k/2^53 < p for
// the k that decide it, and on one stream of draws the two tests must
// answer alike, edge cases included (p <= 0, p >= 1, NaN).
func TestThresholdMatchesBool(t *testing.T) {
	const one = 1 << 53
	ps := []float64{
		math.NaN(), math.Inf(-1), -1, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 0x1p-54, 0x1p-53, math.Nextafter(0x1p-53, 1),
		1e-9, 0.003, 0.05, 0.25, 0.5, math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 2, math.Inf(1),
	}
	r := New(41)
	for i := 0; i < 1000; i++ {
		p := float64(r.Uint64()>>11) / one
		ps = append(ps, p, math.Nextafter(p, 0), math.Nextafter(p, 1), 1.7*r.Float64()-0.3)
	}
	for _, p := range ps {
		th := Threshold(p)
		if th > one {
			t.Fatalf("Threshold(%v) = %d, above 2^53", p, th)
		}
		for _, k := range []uint64{0, 1, th - 1, th, th + 1, one - 1} {
			if k >= one {
				continue // th-1 wrapped below 0, or th+1 past the last k
			}
			if got, want := k < th, float64(k)/one < p; got != want {
				t.Errorf("p=%v k=%d: k < Threshold(p) is %v, k/2^53 < p is %v", p, k, got, want)
			}
		}
	}
	a, b := New(43), New(43)
	for i := 0; i < 20000; i++ {
		p := ps[i%len(ps)]
		if got, want := b.Uint64()>>11 < Threshold(p), a.Bool(p); got != want {
			t.Fatalf("draw %d, p=%v: integer test %v, Bool %v", i, p, got, want)
		}
	}
}

// TestFirstHitMatchesDraws checks FirstHit against the same tests made
// one Uint64 at a time: the same index, and the generators left in step.
// Some rounds set the threshold to the value of the next draw itself,
// which must not hit.
func TestFirstHitMatchesDraws(t *testing.T) {
	a, b := New(47), New(47)
	pick := New(53)
	ths := []uint64{0, 1, Threshold(0.003), Threshold(0.05), Threshold(0.5), 1 << 53}
	for round := 0; round < 2000; round++ {
		n := pick.Intn(300)
		th := ths[pick.Intn(len(ths))]
		if round%10 == 0 {
			peek := *a
			th = peek.Uint64() >> 11
		}
		want := n
		for i := 0; i < n; i++ {
			if b.Uint64()>>11 < th {
				want = i
				break
			}
		}
		if got := a.FirstHit(n, th); got != want {
			t.Fatalf("round %d: FirstHit(%d, %d) = %d, want %d", round, n, th, got, want)
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("round %d: streams out of step after FirstHit(%d, %d)", round, n, th)
		}
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(37)
	child := parent.Fork()
	// Child consuming values must not affect the parent's future stream.
	ref := New(37)
	_ = ref.Uint64() // Fork consumed one value from the parent.
	for i := 0; i < 100; i++ {
		child.Uint64()
	}
	for i := 0; i < 100; i++ {
		if parent.Uint64() != ref.Uint64() {
			t.Fatalf("parent stream perturbed by fork at %d", i)
		}
	}
}

func TestRange(t *testing.T) {
	r := New(41)
	for i := 0; i < 1000; i++ {
		v := r.Range(-2.5, 7.5)
		if v < -2.5 || v >= 7.5 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}
