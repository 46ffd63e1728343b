package opt

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/rtlil"
)

func TestNilCtxDefaults(t *testing.T) {
	var c *Ctx
	if c.Workers() != 1 {
		t.Errorf("nil ctx workers = %d, want 1", c.Workers())
	}
	if c.Err() != nil {
		t.Errorf("nil ctx err = %v", c.Err())
	}
	if c.Context() == nil {
		t.Error("nil ctx context is nil")
	}
	c.Logf("ignored %d", 1)
	if d := c.StartPass("x")(); d != 0 { // must not panic
		t.Errorf("nil ctx timed a pass: %v", d)
	}
	if rep := c.Report(); len(rep.Passes) != 0 || len(rep.Fixpoints) != 0 {
		t.Errorf("nil ctx report = %+v", rep)
	}
}

// TestCtxWorkersAndTimings: each completed StartPass emits one progress
// event carrying the pass's call count so far, the call's duration and
// the running total of those durations.
func TestCtxWorkersAndTimings(t *testing.T) {
	var events []PassEvent
	c := NewCtx(nil, Config{Workers: 3, Module: "top",
		Progress: func(ev PassEvent) { events = append(events, ev) }})
	if c.Workers() != 3 {
		t.Errorf("workers = %d, want 3", c.Workers())
	}
	if NewCtx(nil, Config{}).Workers() < 1 {
		t.Error("default workers < 1")
	}
	d1 := c.StartPass("demo")()
	c.StartPass("other")()
	d2 := c.StartPass("demo")()
	if len(events) != 3 {
		t.Fatalf("%d events, want 3: %+v", len(events), events)
	}
	want := PassEvent{Module: "top", Pass: "demo", Calls: 2, Last: d2, Total: d1 + d2}
	if events[2] != want {
		t.Errorf("second demo event = %+v, want %+v", events[2], want)
	}
	if ev := events[1]; ev.Pass != "other" || ev.Calls != 1 || ev.Total != ev.Last {
		t.Errorf("other event = %+v, want its first call", ev)
	}
}

func TestCtxLogfSink(t *testing.T) {
	var lines atomic.Int32
	c := NewCtx(nil, Config{Logf: func(string, ...any) { lines.Add(1) }})
	c.Logf("hello")
	c.StartPass("p")()
	if lines.Load() != 2 {
		t.Errorf("log lines = %d, want 2", lines.Load())
	}
}

func TestForEachCoversAllItems(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		out := make([]int32, 100)
		if err := ForEach(context.Background(), workers, len(out), func(i int) {
			atomic.AddInt32(&out[i], 1)
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, v)
			}
		}
	}
}

func TestForEachCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := int32(0)
	err := ForEach(ctx, 4, 50, func(i int) { atomic.AddInt32(&ran, 1) })
	if err == nil {
		t.Error("canceled ForEach returned nil error")
	}
	if got := atomic.LoadInt32(&ran); got == 50 {
		t.Error("canceled ForEach still ran every item")
	}
}

// TestFixpointRespectsCancellation: the fixpoint driver must stop at a
// canceled context instead of iterating to convergence.
func TestFixpointRespectsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewCtx(ctx, Config{})
	m := rtlil.NewModule("cancel")
	a := m.AddInput("a", 2).Bits()
	y := m.AddOutput("y", 2)
	m.Connect(y.Bits(), m.And(a, rtlil.Const(0, 2)))
	if _, err := Fixpoint(0, ExprPass{}, CleanPass{}).Run(c, m); err == nil {
		t.Error("canceled fixpoint reported success")
	}
}
