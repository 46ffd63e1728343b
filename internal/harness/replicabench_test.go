package harness

import (
	"strings"
	"testing"
)

// TestRunReplicaBench is the fleet acceptance check: on replica B's
// first pass over a design replica A computed, at least 80% of the
// modules must be served through the shared cache tier (the bench
// itself errors below the floor; here it should be a full 100%).
func TestRunReplicaBench(t *testing.T) {
	if testing.Short() {
		t.Skip("spins two servers and optimizes a multi-module design")
	}
	b, err := RunReplicaBench(6, "yosys", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if b.WarmHitRate != 1.0 {
		t.Errorf("replica B warm-hit rate %.2f, want 1.0", b.WarmHitRate)
	}
	if b.RemoteHits == 0 || b.RemoteErrors != 0 {
		t.Errorf("remote counters %+v", b)
	}
	if !strings.Contains(b.String(), "hit rate") {
		t.Errorf("String() = %q", b.String())
	}
}
