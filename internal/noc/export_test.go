package noc

// CodedLinkBT returns row r's per-link transition counts — coding k on
// image v is row k·images + v — in LinkStats order, for the external
// equivalence tests.
func (s *Sim) CodedLinkBT(r int) []int64 {
	out := make([]int64, len(s.links))
	for i := range out {
		out[i] = s.linkBT[i*s.rows+r]
	}
	return out
}
