package similarity

// Jaccard returns |A ∩ B| / |A ∪ B| over the distinct elements of a and b.
// Two empty inputs score 1 (identical), one empty input scores 0.
func Jaccard(a, b []string) float64 {
	inter, union := interUnion(a, b)
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func distinct(a []string) map[string]struct{} {
	s := make(map[string]struct{}, len(a))
	for _, t := range a {
		s[t] = struct{}{}
	}
	return s
}

func interUnion(a, b []string) (inter, union int) {
	sa, sb := distinct(a), distinct(b)
	for t := range sa {
		if _, ok := sb[t]; ok {
			inter++
		}
	}
	union = len(sa) + len(sb) - inter
	return inter, union
}
