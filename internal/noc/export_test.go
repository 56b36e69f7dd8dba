package noc

// CodedLinkBT returns extra coding i's per-link transition counts, in
// LinkStats order, for the external equivalence tests.
func (s *Sim) CodedLinkBT(i int) []int64 {
	return s.codedBT[i*len(s.links) : (i+1)*len(s.links)]
}
