package similarity

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"iPad 2nd Gen", []string{"ipad", "2nd", "gen"}},
		{"  a--b  c ", []string{"a", "b", "c"}},
		{"", nil},
		{"!!!", nil},
		{"Wang, J. & Li, G.", []string{"wang", "j", "li", "g"}},
		{"SIGMOD'13", []string{"sigmod", "13"}},
	}
	for _, tc := range cases {
		got := Tokenize(tc.in)
		if strings.Join(got, "|") != strings.Join(tc.want, "|") {
			t.Errorf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestTokenSetDeduplicates(t *testing.T) {
	got := TokenSet("the cat and the hat")
	want := []string{"the", "cat", "and", "hat"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("TokenSet = %v, want %v", got, want)
	}
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []string
		want float64
	}{
		{[]string{"a", "b"}, []string{"b", "c"}, 1.0 / 3},
		{[]string{"a"}, []string{"a"}, 1},
		{[]string{"a"}, []string{"b"}, 0},
		{nil, nil, 1},
		{[]string{"a"}, nil, 0},
		{[]string{"a", "a", "b"}, []string{"a", "b", "b"}, 1}, // set semantics
	}
	for _, tc := range cases {
		if got := Jaccard(tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Jaccard(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func randTokens(rng *rand.Rand) []string {
	n := rng.Intn(8)
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('a' + rng.Intn(6)))
	}
	return out
}

// TestQuickSimilarityProperties: Jaccard is symmetric, lies in [0,1], and
// scores a set against itself 1.
func TestQuickSimilarityProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randTokens(rng), randTokens(rng)
		s1, s2 := Jaccard(a, b), Jaccard(b, a)
		return s1 == s2 && s1 >= 0 && s1 <= 1 && Jaccard(a, a) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkJaccard(b *testing.B) {
	x := Tokenize("efficient entity resolution with crowdsourced transitive relations sigmod")
	y := Tokenize("crowdsourced entity resolution leveraging transitive relations for joins")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Jaccard(x, y)
	}
}
