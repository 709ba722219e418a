package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-only", "E1", "-n", "80", "-seed", "2"}, &out); err != nil {
		t.Fatalf("-only E1: %v", err)
	}
	if out.Len() == 0 {
		t.Error("E1 produced no output")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-only", "E99"}, &out)
	if err == nil {
		t.Fatal("expected error for unknown experiment id")
	}
	if !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Fatal("expected flag parse error")
	}
}

func TestRunReplicates(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-only", "E1", "-n", "80", "-seed", "7", "-replicates", "3"}, &out); err != nil {
		t.Fatalf("-replicates 3: %v", err)
	}
	for _, want := range []string{"E1, seed 7", "E1, seed 8", "E1, seed 9"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing replicate header %q", want)
		}
	}
	// replicate output is deterministic: seeds printed in order
	if strings.Index(out.String(), "seed 7") > strings.Index(out.String(), "seed 9") {
		t.Error("replicates printed out of seed order")
	}
}

func TestRunRejectsBadReplicates(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-only", "E1", "-replicates", "0"}, &out)
	if err == nil || !strings.Contains(err.Error(), "replicates") {
		t.Fatalf("expected replicates validation error, got %v", err)
	}
}
