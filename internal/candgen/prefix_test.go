package candgen

import "testing"

func TestPrefixThresholdValidation(t *testing.T) {
	d := smallCora(t)
	s := NewScorer(d, Unweighted)
	if _, err := Candidates(d, s, 0); err == nil {
		t.Error("threshold 0 accepted")
	}
	if _, err := Candidates(d, s, 1.2); err == nil {
		t.Error("threshold > 1 accepted")
	}
}

func TestWeightedPrefixThresholdValidation(t *testing.T) {
	d := smallCora(t)
	s := NewScorer(d, IDFWeighted)
	if _, err := Candidates(d, s, 0); err == nil {
		t.Error("threshold 0 accepted")
	}
	if _, err := Candidates(d, s, 1.2); err == nil {
		t.Error("threshold > 1 accepted")
	}
}
