package main

import (
	"strings"
	"testing"
)

func TestRunSmallMesh(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-mesh", "2x2", "-packets", "20", "-flits", "2", "-link", "32", "-v"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"mesh 2x2, 20 packets x 3 flits, 32-bit links",
		"delivered packets: 20",
		"total BT (paper):",
		"r0.local->ni0", // -v per-link table
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	runOnce := func() string {
		var sb strings.Builder
		if err := run([]string{"-mesh", "2x2", "-packets", "10", "-link", "16", "-seed", "7"}, &sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if runOnce() != runOnce() {
		t.Error("same seed produced different reports")
	}
}

func TestRunHelpIsNotAnError(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-h"}, &sb); err != nil {
		t.Errorf("-h returned error: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-mesh", "wide"}, "bad -mesh"},
		{[]string{"-mesh", "4x4junk"}, "bad -mesh"},
		{[]string{"-mesh", "1x1", "-packets", "1"}, "1x1"},
		{[]string{"-mesh", "0x4"}, "bad mesh 0x4"},
		{[]string{"-flits", "-1"}, "-flits must be >= 0"},
		{[]string{"-packets", "-5"}, "-packets and -flits must be >= 0"},
	} {
		var sb strings.Builder
		err := run(tc.args, &sb)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
