package noc

import (
	"testing"

	"nocbt/internal/bitutil"
	"nocbt/internal/flit"
)

// TestSetLinkCodingRefusedAfterTraffic: switching the wire encoding once
// flits have moved would desynchronize coder state from the recorded BT,
// so the simulator must refuse it.
func TestSetLinkCodingRefusedAfterTraffic(t *testing.T) {
	scheme, ok := flit.LookupLinkCoding("gray")
	if !ok || scheme == nil {
		t.Fatal("gray not registered")
	}
	sim, err := New(Config{Width: 2, Height: 2, VCs: 1, BufDepth: 1, LinkBits: 16}, scheme)
	if err != nil {
		t.Fatal(err)
	}
	hdr := bitutil.NewVec(16)
	if err := sim.Inject(flit.NewPacket(1, 0, 1, hdr, nil)); err != nil {
		t.Fatal(err)
	}
	if err := sim.Drain(1000); err != nil {
		t.Fatal(err)
	}
	if err := sim.SetRows(1, scheme); err == nil {
		t.Error("mid-flight coding switch accepted")
	}
	if err := sim.SetRows(1, nil); err == nil {
		t.Error("mid-flight coding removal accepted")
	}
}
