package main

import (
	"strings"
	"testing"
)

func TestRunTinyLeNet(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-samples", "8", "-epochs", "1", "-holdout", "8"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"LeNet:",
		"epoch  1: loss",
		"holdout accuracy:",
		"fixed-8 weight bit distribution",
		"bit 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTinyDarkNet(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-model", "darknet", "-samples", "2", "-epochs", "1", "-holdout", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "DarkNet:") {
		t.Errorf("output missing model header:\n%s", sb.String())
	}
}

func TestRunHelpIsNotAnError(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-h"}, &sb); err != nil {
		t.Errorf("-h returned error: %v", err)
	}
}

func TestRunUnknownModel(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-model", "resnet"}, &sb); err == nil ||
		!strings.Contains(err.Error(), "unknown model") {
		t.Errorf("unknown model not rejected: %v", err)
	}
}

func TestRunRejectsDegenerateSizes(t *testing.T) {
	for _, args := range [][]string{
		{"-holdout", "0"}, // would print "holdout accuracy: NaN"
		{"-samples", "0"},
		{"-epochs", "0"},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil || !strings.Contains(err.Error(), ">= 1") {
			t.Errorf("%v not rejected: %v", args, err)
		}
	}
}

func TestRunRejectsBadLearningRate(t *testing.T) {
	for _, lr := range []string{
		"0",      // train.Config would replace it with the 0.01 default
		"-0",     // likewise
		"-1",     // ascends the loss
		"NaN",    // poisons every weight
		"+Inf",   // likewise
		"1e39",   // overflows float32 to +Inf
		"1e-50",  // underflows float32 to 0
		"-1e-50", // underflows to -0
	} {
		var sb strings.Builder
		err := run([]string{"-lr", lr, "-samples", "1", "-epochs", "1", "-holdout", "1"}, &sb)
		if err == nil || !strings.Contains(err.Error(), "-lr must be a finite positive float32") {
			t.Errorf("-lr %s not rejected: %v", lr, err)
		}
		if sb.Len() != 0 {
			t.Errorf("-lr %s: trained before rejecting:\n%s", lr, sb.String())
		}
	}
}

func TestRunAcceptsSmallLearningRate(t *testing.T) {
	var sb strings.Builder
	// The smallest positive float32 is a valid, if useless, rate.
	if err := run([]string{"-lr", "1.5e-45", "-samples", "2", "-epochs", "1", "-holdout", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
}
