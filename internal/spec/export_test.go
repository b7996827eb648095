package spec

// FreshFullHash recomputes FullHash from the DAG as it is now, ignoring
// and leaving alone any memoized value.
func FreshFullHash(s *Spec) string {
	canon, _ := s.canonicalDAG()
	return hashOf(canon)
}
