package nocbt

import (
	"bytes"
	"testing"
)

// TestParamsFingerprintCanonicalization pins the cache-key contract:
// parameter sets an experiment cannot tell apart must share one content
// address, distinguishable ones must not.
func TestParamsFingerprintCanonicalization(t *testing.T) {
	a, err := Params{}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	// The explicit defaults are indistinguishable from the zero value.
	b, err := Params{Step: 4, Flits: 20, BTReductionPct: 40.85}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("zero params and explicit defaults fingerprint differently:\n%s\n%s", a, b)
	}
	c, err := Params{Seed: 2}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds share a fingerprint")
	}
}

func TestParamsFingerprintSweepWorkersExcluded(t *testing.T) {
	mk := func(workers int) Params {
		return Params{Sweep: &SweepSpec{Workers: workers, Seeds: []int64{3}}}
	}
	a, err := mk(1).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk(8).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("worker count split the sweep address space (results are worker-invariant)")
	}
	c, err := Params{Sweep: &SweepSpec{Seeds: []int64{4}}}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Error("different sweep seeds share a fingerprint")
	}
}

// TestParamsFingerprintCodingsCanonicalized: the two spellings of uncoded
// links ("" and "none") must share an address, and a real coding must not.
func TestParamsFingerprintCodingsCanonicalized(t *testing.T) {
	mk := func(codings ...string) Params {
		return Params{Sweep: &SweepSpec{Seeds: []int64{1}, Codings: codings}}
	}
	a, err := mk("").Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk("none").Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error(`"" and "none" codings fingerprint differently`)
	}
	c, err := mk("gray").Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Error("gray coding shares the uncoded fingerprint")
	}
}

// TestPlatformFingerprintLinkCoding: the coding is part of the platform's
// content address ("none" canonicalizes to the uncoded form).
func TestPlatformFingerprintLinkCoding(t *testing.T) {
	plain, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	noneSpelled, err := NewPlatform(WithLinkCoding("none"))
	if err != nil {
		t.Fatal(err)
	}
	coded, err := NewPlatform(WithLinkCoding("businvert"))
	if err != nil {
		t.Fatal(err)
	}
	fPlain, err := PlatformFingerprint(plain)
	if err != nil {
		t.Fatal(err)
	}
	fNone, err := PlatformFingerprint(noneSpelled)
	if err != nil {
		t.Fatal(err)
	}
	fCoded, err := PlatformFingerprint(coded)
	if err != nil {
		t.Fatal(err)
	}
	if fPlain != fNone {
		t.Error(`WithLinkCoding("none") fingerprints differently from the default`)
	}
	if fPlain == fCoded {
		t.Error("businvert platform shares the uncoded fingerprint")
	}
	// Spelling must never split the address space: every accepted casing
	// of a coding name canonicalizes before hashing.
	spelledNone, err := NewPlatform(WithLinkCoding("None"))
	if err != nil {
		t.Fatal(err)
	}
	fSpelledNone, err := PlatformFingerprint(spelledNone)
	if err != nil {
		t.Fatal(err)
	}
	if fSpelledNone != fPlain {
		t.Error(`WithLinkCoding("None") fingerprints differently from the default`)
	}
	spelledBI, err := NewPlatform(WithLinkCoding("BusInvert"))
	if err != nil {
		t.Fatal(err)
	}
	fSpelledBI, err := PlatformFingerprint(spelledBI)
	if err != nil {
		t.Fatal(err)
	}
	if fSpelledBI != fCoded {
		t.Error(`WithLinkCoding("BusInvert") fingerprints differently from "businvert"`)
	}
}

// TestParamsFingerprintTable1Resolution: the zero Table1 config and the
// explicit paper default describe the same measurement, so they must
// share an address (and Quick, which shrinks the stream, must not).
func TestParamsFingerprintTable1Resolution(t *testing.T) {
	a, err := Params{Seed: 1}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Params{Seed: 1, Table1: Table1Config{Packets: 10_000, KernelSize: 25, LanesPerFlit: 8, Seed: 1}}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("zero Table1 and the explicit paper default fingerprint differently")
	}
	c, err := Params{Seed: 1, Quick: true}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Error("quick and full table1 streams share a fingerprint")
	}
}

// TestParamsFingerprintDistinguishesFixedPlatforms: two sweep axes with
// the same display name but different underlying configs must not collide
// to one cache address.
func TestParamsFingerprintDistinguishesFixedPlatforms(t *testing.T) {
	pa, err := NewPlatform(WithMesh(6, 6), WithMCCount(2))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := NewPlatform(WithMesh(6, 6), WithMCCount(4))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(p Platform) Params {
		return Params{Sweep: &SweepSpec{Platforms: []NamedPlatform{FixedPlatform("custom", p)}}}
	}
	a, err := mk(pa).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk(pb).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Error("same-named FixedPlatform axes with different configs share a fingerprint")
	}
}

func TestExperimentCacheKey(t *testing.T) {
	k1, err := ExperimentCacheKey("fig12", Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := ExperimentCacheKey("fig12", Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("identical runs keyed differently")
	}
	if len(k1) != 64 {
		t.Errorf("key %q is not a sha256 hex digest", k1)
	}
	k3, err := ExperimentCacheKey("fig13", Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k3 {
		t.Error("different experiments share a key")
	}
}

func TestPlatformFingerprint(t *testing.T) {
	p1, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	f1, err := PlatformFingerprint(p1)
	if err != nil {
		t.Fatal(err)
	}
	// Default resolution: a zero DrainCycleCap and the explicit default
	// describe the same platform.
	p2 := p1
	p2.DrainCycleCap = 100_000_000
	f2, err := PlatformFingerprint(p2)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Error("defaulted and explicit DrainCycleCap fingerprint differently")
	}
	p3, err := NewPlatform(WithOrdering(O2))
	if err != nil {
		t.Fatal(err)
	}
	f3, err := PlatformFingerprint(p3)
	if err != nil {
		t.Fatal(err)
	}
	if f1 == f3 {
		t.Error("different orderings share a platform fingerprint")
	}
	if len(f1) != 64 {
		t.Errorf("fingerprint %q is not a sha256 hex digest", f1)
	}
	// The paper presets build the platform their option bundles describe.
	presets := map[string]func(Geometry) []PlatformOption{
		"4x4 MC2": PaperOptions4x4MC2, "8x8 MC4": PaperOptions8x8MC4, "8x8 MC8": PaperOptions8x8MC8,
	}
	for _, p := range PaperPlatforms() {
		for _, g := range []Geometry{Float32(), Fixed8()} {
			got, err := PlatformFingerprint(p.Build(g))
			if err != nil {
				t.Fatal(err)
			}
			want, err := PlatformFingerprint(MustPlatform(presets[p.Name](g)...))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s %s: preset fingerprint %s, option bundle %s", p.Name, g.Format, got[:16], want[:16])
			}
		}
	}
}

func TestLookupPaperPlatform(t *testing.T) {
	for name, want := range map[string]string{
		"4x4":      "4x4 MC2",
		"4x4 MC2":  "4x4 MC2",
		"8x8mc4":   "8x8 MC4",
		" 8x8 MC8": "8x8 MC8",
	} {
		p, ok := LookupPaperPlatform(name)
		if !ok || p.Name != want {
			t.Errorf("LookupPaperPlatform(%q) = %q, %v; want %q", name, p.Name, ok, want)
		}
	}
	if _, ok := LookupPaperPlatform("9x9"); ok {
		t.Error("unknown platform resolved")
	}
}
