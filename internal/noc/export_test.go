package noc

// CodedLinkBT returns coding k's per-link transition counts, in LinkStats
// order, for the external equivalence tests.
func (s *Sim) CodedLinkBT(k int) []int64 {
	return s.linkBT[k*len(s.links) : (k+1)*len(s.links)]
}
