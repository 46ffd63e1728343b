// Command smartly-docgen generates docs/passes.md — the pass and flow
// reference — from the live registry, so the documentation cannot
// drift from the code. It is wired to `go generate .` (see the root
// doc.go) and CI runs it with -check to fail on a stale file.
//
// Usage:
//
//	smartly-docgen -o docs/passes.md   # (re)write the reference
//	smartly-docgen -check              # exit 1 if docs/passes.md is stale
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
)

func main() {
	out := flag.String("o", "docs/passes.md", "output path")
	check := flag.Bool("check", false, "do not write; exit 1 if the file differs from the generated content")
	flag.Parse()

	content := generate()
	if *check {
		have, err := os.ReadFile(*out)
		if err != nil || !bytes.Equal(have, content) {
			fmt.Fprintf(os.Stderr, "smartly-docgen: %s is stale; regenerate with `go generate .`\n", *out)
			os.Exit(1)
		}
		return
	}
	if err := os.WriteFile(*out, content, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "smartly-docgen:", err)
		os.Exit(1)
	}
}

// generate renders the reference from the registry. The output is
// deterministic: Passes and FlowNames are sorted, and option order
// follows each spec's declaration order.
func generate() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# Pass and flow reference\n\n")
	fmt.Fprintf(&b, "<!-- Generated by cmd/smartly-docgen from the live registry.\n")
	fmt.Fprintf(&b, "     DO NOT EDIT; regenerate with `go generate .` -->\n\n")

	fmt.Fprintf(&b, "## Flow script grammar\n\n")
	fmt.Fprintf(&b, "```\nflow  := step { \";\" step }\nstep  := pass [ \"(\" key=value {\",\" key=value} \")\" ] [ \"{\" flow \"}\" ]\n```\n\n")
	fmt.Fprintf(&b, "A `{ flow }` body is only valid on the `fixpoint` wrapper. Parse\n")
	fmt.Fprintf(&b, "errors carry `script:line:col` positions. The *canonical* form of a\n")
	fmt.Fprintf(&b, "script (options sorted by key, normalized value spellings) keys the\n")
	fmt.Fprintf(&b, "smartlyd result cache; see docs/api.md.\n\n")

	fmt.Fprintf(&b, "## Registered passes\n\n")
	for _, spec := range smartly.Passes() {
		fmt.Fprintf(&b, "### `%s`\n\n%s\n\n", spec.Name, spec.Summary)
		writeOptions(&b, spec.Options)
	}

	fix := smartly.FixpointSpec()
	fmt.Fprintf(&b, "### `%s` (built-in wrapper)\n\n%s\n\n", fix.Name, fix.Summary)
	writeOptions(&b, fix.Options)

	fmt.Fprintf(&b, "## Named flows\n\n")
	fmt.Fprintf(&b, "Registered flows, runnable by name (`smartly -flow`, `{\"flow\": ...}`\n")
	fmt.Fprintf(&b, "on the HTTP API, `smartly.NamedFlow`):\n\n")
	fmt.Fprintf(&b, "| Flow | Script |\n|---|---|\n")
	for _, name := range smartly.FlowNames() {
		f, err := smartly.NamedFlow(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, "| `%s` | `%s` |\n", name, f.String())
	}
	return b.Bytes()
}

func writeOptions(b *bytes.Buffer, opts []smartly.OptionSpec) {
	if len(opts) == 0 {
		fmt.Fprintf(b, "_No options._\n\n")
		return
	}
	fmt.Fprintf(b, "| Option | Kind | Default | Description |\n|---|---|---|---|\n")
	for _, o := range opts {
		var bounds []string
		if o.Positive {
			bounds = append(bounds, ">= 1")
		}
		if o.Max != 0 {
			bounds = append(bounds, fmt.Sprintf("<= %d", o.Max))
		}
		help := o.Help
		if len(bounds) > 0 {
			help += " (must be " + strings.Join(bounds, " and ") + ")"
		}
		fmt.Fprintf(b, "| `%s` | %s | `%s` | %s |\n", o.Key, o.Kind, o.Default, help)
	}
	fmt.Fprintf(b, "\n")
}
