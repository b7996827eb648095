package spec

// FreshFullHash recomputes FullHash from the DAG as it is now, ignoring
// and leaving alone any memoized value.
func FreshFullHash(s *Spec) string {
	canon, _ := s.appendCanonical(nil, false)
	return hashOf(canon)
}

// canonicalDAG is the DAG's canonical serialization, rendered afresh
// without reading or writing line memos, and whether it is concrete.
func (s *Spec) canonicalDAG() (string, bool) {
	canon, concrete := s.appendCanonical(nil, false)
	return string(canon), concrete
}

// CheckAgainstOracles compares Satisfies, ConstrainChanged and Compatible
// on copies of s and o with their full-index oracles and returns every
// disagreement.
func CheckAgainstOracles(s, o *Spec) []string { return checkAgainstOracles(s, o) }
