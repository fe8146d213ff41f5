package main

import (
	"os"
	"strings"
	"testing"

	"sweb/internal/experiments"
)

// appendixHeading opens EXPERIMENTS.md's appendix; the fenced block under
// it is the verbatim output of swebsim -table all -seed 1.
const appendixHeading = "## Appendix: full output of `swebsim -table all -seed 1`"

// TestAppendixGolden regenerates every table as swebsim -table all -seed 1
// prints it and demands EXPERIMENTS.md's appendix byte for byte, so the
// record of the paper cannot drift from the code that produces it. An
// intended change to what the simulator computes regenerates the appendix
// (and rechecks the summary rows that quote it) in the same commit.
func TestAppendixGolden(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(doc), appendixHeading+"\n\n```\n")
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no fenced block under %q", appendixHeading)
	}
	want, _, ok := strings.Cut(block, "```\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md's appendix block is not closed")
	}

	var got strings.Builder
	o := experiments.Options{Seed: 1}
	for _, name := range tableOrder {
		got.WriteString(tables[name](o).String())
		got.WriteString("\n")
	}

	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("appendix line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
