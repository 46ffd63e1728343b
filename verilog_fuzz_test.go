package smartly

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseVerilog: ParseVerilog on arbitrary source must return, with
// a design or an error, and never panic. The seeds are the repository's
// Verilog files plus two modules outside the subset that once made the
// lexer loop without end: an escaped identifier and a UTF-8 letter in a
// name. Inputs over 4 KiB are skipped: the frontend's width limit bounds
// elaboration work per source byte, and that keeps one input's memory
// small, not the input itself.
func FuzzParseVerilog(f *testing.F) {
	for _, pattern := range []string{"testdata/*.v", "testdata/corpus/*.v"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	f.Add("module m(input a, input b, output y);\n  wire \\w[3] ;\n  assign \\w[3]  = a & b;\n  assign y = \\w[3] ;\nendmodule\n")
	f.Add("module m(input a, output y);\n  wire café;\n  assign y = a;\nendmodule\n")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			t.Skip()
		}
		d, err := ParseVerilog(src)
		if err == nil && d == nil {
			t.Fatal("no design and no error")
		}
	})
}
