package spec

// FreshFullHash recomputes FullHash from the DAG as it is now, ignoring
// and leaving alone any memoized value.
func FreshFullHash(s *Spec) string {
	canon, _ := s.canonicalDAG()
	return hashOf(canon)
}

// CheckAgainstOracles compares Satisfies, ConstrainChanged and Compatible
// on copies of s and o with their full-index oracles and returns every
// disagreement.
func CheckAgainstOracles(s, o *Spec) []string { return checkAgainstOracles(s, o) }
