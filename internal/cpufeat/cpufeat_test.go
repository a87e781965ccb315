package cpufeat

import (
	"runtime"
	"testing"
)

func TestDetectConsistency(t *testing.T) {
	f := Detect()
	if f != Detect() {
		t.Fatal("Detect is not stable across calls")
	}
	if runtime.GOARCH != "amd64" && f != (Features{}) {
		t.Errorf("non-amd64 build must report zero features, got %+v", f)
	}
	if f.String() == "" {
		t.Error("String must never be empty")
	}
	t.Logf("detected: %s", f)
}

func TestStringZero(t *testing.T) {
	if s := (Features{}).String(); s != "none" {
		t.Fatalf("zero Features String = %q, want none", s)
	}
	if s := (Features{AVX2: true}).String(); s != "avx2" {
		t.Fatalf("AVX2 Features String = %q, want avx2", s)
	}
}
