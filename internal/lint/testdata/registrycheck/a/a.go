// Package a is the registrycheck fixture: registrations with constant and
// computed wire identities, in and out of init context.
package a

import (
	"context"

	"nocbt"
	"nocbt/internal/bitutil"
	"nocbt/internal/flit"
	"nocbt/internal/noc"
)

// handRolled implements OrderingStrategy directly, with constant-returning
// Name/ID methods the checker can resolve statically.
type handRolled struct{}

func (handRolled) Name() string       { return "fx-hand" }
func (handRolled) ID() flit.Ordering  { return 210 }
func (handRolled) Interleave() bool   { return false }
func (handRolled) EmitsPartner() bool { return false }
func (handRolled) Order(dst *flit.Ordered, w, in []bitutil.Word, laneBits int) {
	dst.Weights, dst.Inputs, dst.PartnerIndex = append(dst.Weights[:0], w...), append(dst.Inputs[:0], in...), nil
}

// opaque hides its wire identity behind a computed Name and an embedded ID.
type opaque struct{ handRolled }

func (opaque) Name() string {
	n := dynamic
	return n + "-opaque"
}

// fxGray is a well-behaved link coding scheme.
type fxGray struct{}

func (fxGray) Name() string             { return "fx-gray" }
func (fxGray) ExtraLines(width int) int { return 0 }
func (fxGray) NewCoding(width, links, images int) (flit.LinkCoding, error) {
	return nil, nil
}

// fxReserved squats on the reserved uncoded name.
type fxReserved struct{}

func (fxReserved) Name() string             { return "none" }
func (fxReserved) ExtraLines(width int) int { return 0 }
func (fxReserved) NewCoding(width, links, images int) (flit.LinkCoding, error) {
	return nil, nil
}

var dynamic = "fx-dynamic"

func runtimeName() string      { return dynamic }
func runtimeID() flit.Ordering { return flit.Ordering(len(dynamic)) }
func expName() string          { return dynamic + "-exp" }
func topoName() string         { return dynamic + "-topo" }

// fxTopoBuild stands in for a topology scheme constructor.
func fxTopoBuild(cfg noc.Config) (noc.Topology, error) { return nil, nil }

// registerTopoWrapper is pure delegation — it forwards its own parameters,
// so the registration discipline is enforced at its callers instead.
func registerTopoWrapper(name string, build noc.TopologyBuilder) {
	noc.MustRegisterTopology(name, build)
}

var _ = registerTopoWrapper

func runExp(ctx context.Context, p nocbt.Params) (*nocbt.Result, error) { return nil, ctx.Err() }

func init() {
	flit.MustRegisterOrdering(flit.NewOrderingStrategy("fx-clean", 200, false, false, nil))
	flit.MustRegisterOrdering(flit.NewOrderingStrategy(runtimeName(), 201, false, false, nil))         // want `ordering strategy name must be a string literal or constant`
	flit.MustRegisterOrdering(flit.NewOrderingStrategy("fx-computed", runtimeID(), false, false, nil)) // want `ordering strategy ID must be an integer literal or constant`
	flit.MustRegisterOrdering(flit.NewOrderingStrategy("fx-wide", 300, false, false, nil))             // want `does not fit the packet header's 8-bit ordering field`
	flit.MustRegisterOrdering(handRolled{})
	flit.MustRegisterOrdering(opaque{}) // want `cannot statically determine the wire identity`
	flit.MustRegisterLinkCoding(fxGray{})
	flit.MustRegisterLinkCoding(fxReserved{}) // want `reserved for the uncoded default`
	nocbt.MustRegister(nocbt.NewExperiment("fx-exp", "fixture experiment", runExp))
	nocbt.MustRegister(nocbt.NewExperiment(expName(), "computed name", runExp)) // want `experiment name must be a string literal or constant`
	// Lookup is case-insensitive, so a re-spelled name is still a duplicate.
	flit.MustRegisterOrdering(flit.NewOrderingStrategy("FX-Clean", 205, false, false, nil)) // want `duplicate ordering-name registration "fx-clean"`
	noc.MustRegisterTopology("fx-ring", fxTopoBuild)
	noc.MustRegisterTopology(topoName(), fxTopoBuild) // want `topology name must be a string literal or constant`
	noc.MustRegisterTopology("mesh", fxTopoBuild)     // want `topology name "mesh" is reserved for the built-in mesh default`
	_ = nocbt.RegisterTopology("", fxTopoBuild)       // want `topology name "" is reserved for the built-in mesh default`
}

// lateRegistration mutates the registry after init, under traffic.
func lateRegistration() {
	flit.MustRegisterOrdering(flit.NewOrderingStrategy("fx-late", 206, false, false, nil)) // want `MustRegisterOrdering must be called from init`
	noc.MustRegisterTopology("fx-late-topo", fxTopoBuild)                                  // want `MustRegisterTopology must be called from init`
}

var _ = lateRegistration
