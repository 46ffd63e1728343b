package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro"
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

// TestFixpointTableFromSpec: the fixpoint wrapper's table has one row
// per option of its spec, so a change to the spec reaches the reference.
func TestFixpointTableFromSpec(t *testing.T) {
	out := string(generate())
	start := strings.Index(out, "### `fixpoint`")
	if start < 0 {
		t.Fatal("no fixpoint section")
	}
	section := out[start:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	spec := smartly.FixpointSpec()
	if len(spec.Options) == 0 {
		t.Fatal("the fixpoint spec has no options")
	}
	for _, o := range spec.Options {
		row := fmt.Sprintf("| `%s` | %s | `%s` | %s", o.Key, o.Kind, o.Default, o.Help)
		if !strings.Contains(section, row) {
			t.Errorf("fixpoint table has no row %q:\n%s", row, section)
		}
	}
	if rows := strings.Count(section, "\n| `"); rows != len(spec.Options) {
		t.Errorf("fixpoint table has %d option rows, want %d", rows, len(spec.Options))
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
