package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestGenerateCoversRegistry(t *testing.T) {
	out := string(generate())
	for _, want := range []string{
		"### `opt_expr`", "### `opt_muxtree`", "### `opt_clean`", "### `opt_reduce`",
		"### `satmux`", "### `rebuild`", "### `opt_egraph`", "### `opt_dff`", "### `fixpoint`",
		"`conflicts`", "`selector_bits`",
		"| `yosys` |", "| `sat` |", "| `rebuild` |", "| `full` |",
		"DO NOT EDIT",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("generated reference missing %q", want)
		}
	}
	if !bytes.Equal(generate(), generate()) {
		t.Error("generation is not deterministic")
	}
}

// TestCommittedReferenceFresh is the same check CI runs: the committed
// docs/passes.md must match the live registry.
func TestCommittedReferenceFresh(t *testing.T) {
	have, err := os.ReadFile("../../docs/passes.md")
	if err != nil {
		t.Fatalf("docs/passes.md unreadable (run `go generate .`): %v", err)
	}
	if !bytes.Equal(have, generate()) {
		t.Error("docs/passes.md is stale; regenerate with `go generate .`")
	}
}
