package rtlil

import (
	"bytes"
	"strings"
	"testing"
)

// malformedJSON are malformed netlists ReadJSON must reject with an
// error, not a panic.
var malformedJSON = map[string]string{
	"null module":  `{"modules":{"m":null}}`,
	"null netname": `{"modules":{"m":{"netnames":{"w":null}}}}`,
	"null port":    `{"modules":{"m":{"ports":{"w":null},"netnames":{"w":{"bits":[2]}}}}}`,
	"null cell":    `{"modules":{"m":{"netnames":{},"cells":{"c":null}}}}`,
	"empty bits":   `{"modules":{"m":{"netnames":{"w":{"bits":[]}}}}}`,
	"width mismatch": `{"modules":{"m":{"netnames":{"a":{"bits":[2]},"b":{"bits":[3,4]}},
		"connections":[[[2],[3,4]]]}}}`,
	"empty cell name": `{"modules":{"m":{"netnames":{},"cells":{
		"":{"type":"$and"},"$and$1":{"type":"$and"}}}}}`,
}

func TestReadJSONRejectsMalformed(t *testing.T) {
	for name, doc := range malformedJSON {
		d, err := ReadJSON(strings.NewReader(doc))
		if err == nil {
			t.Errorf("%s: accepted (%d modules)", name, len(d.Modules()))
		}
	}
}

// FuzzReadJSON: ReadJSON never panics, and every design it accepts
// survives WriteJSON and a second ReadJSON with its canonical hash
// unchanged.
func FuzzReadJSON(f *testing.F) {
	for _, doc := range malformedJSON {
		f.Add([]byte(doc))
	}
	f.Add([]byte(`{"modules":{"top":{
		"ports":{"a":{"direction":"input","bits":[2,3],"port_id":1},
		         "y":{"direction":"output","bits":[4],"port_id":2}},
		"netnames":{"a":{"bits":[2,3]},"y":{"bits":[4]},"n":{"bits":[5,"x"]}},
		"cells":{"g":{"type":"$and","parameters":{"A_WIDTH":1},
		              "connections":{"A":[2],"B":[3],"Y":[5]}}},
		"connections":[[[4],[5]]]}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		want := CanonicalHashDesign(d)
		var buf bytes.Buffer
		if err := WriteJSON(&buf, d); err != nil {
			t.Fatalf("WriteJSON of an accepted design: %v", err)
		}
		d2, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("re-reading an accepted design: %v\n%s", err, buf.String())
		}
		if got := CanonicalHashDesign(d2); got != want {
			t.Fatalf("round trip changed the canonical hash\n%s", buf.String())
		}
	})
}
