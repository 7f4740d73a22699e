package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety: every method of every type must be a no-op on nil — the
// property that lets the engine instrument unconditionally.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Recording() {
		t.Error("nil tracer recording")
	}
	sp := tr.Start("x")
	if sp != nil {
		t.Fatal("span from nil tracer not nil")
	}
	// All span methods on nil.
	sp.SetInt("a", 1)
	sp.SetFloat("b", 2)
	sp.SetStr("c", "d")
	sp.End()
	if sp.Duration() != 0 || sp.Name() != "" || sp.Recording() {
		t.Error("nil span not inert")
	}
	if c := sp.Child("y"); c != nil {
		t.Error("child of nil span not nil")
	}
	if c := sp.ChildLane("y", 3); c != nil {
		t.Error("lane child of nil span not nil")
	}
	if tr.Snapshot() != nil || tr.ActiveSpans() != nil {
		t.Error("nil tracer snapshot not nil")
	}

	var m *Metrics
	m.Counter("c").Add(1)
	m.Gauge("g").Set(1)
	m.TakeSample(0)
	if m.Samples() != nil {
		t.Error("nil metrics samples not nil")
	}
	if _, ok := m.LastSample(); ok {
		t.Error("nil metrics has a last sample")
	}

	var p *Progress
	p.Update(1, 2, 0.5, 1)
	p.Done()
	if p.Renders() != 0 {
		t.Error("nil progress rendered")
	}
}

// TestNopTracerTimestamps: the shared no-op tracer must still produce
// usable durations (the engine derives its step times from them) while
// retaining nothing.
func TestNopTracerTimestamps(t *testing.T) {
	tr := FromContext(context.Background())
	if tr == nil {
		t.Fatal("FromContext returned nil")
	}
	if tr.Recording() {
		t.Fatal("default tracer is recording")
	}
	sp := tr.Start("work")
	time.Sleep(2 * time.Millisecond)
	sp.SetInt("ignored", 1)
	sp.End()
	if sp.Duration() < time.Millisecond {
		t.Fatalf("no-op span duration %v, want >= 1ms", sp.Duration())
	}
	sp.End() // idempotent
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("no-op tracer retained %d spans", len(got))
	}
}

// TestSpanTree: parent/child identity, lanes, attributes, and snapshot
// ordering by start time.
func TestSpanTree(t *testing.T) {
	tr := New()
	root := tr.Start("run")
	a := root.Child("phase1")
	a.SetInt("targets", 42)
	a.SetInt("targets", 43) // overwrite, not append
	a.SetFloat("err", 0.5)
	a.SetStr("kind", "full")
	a.End()
	b := root.Child("phase2")
	w := b.ChildLane(b.Name(), 2)
	w.End()
	b.End()
	root.End()

	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	byName := map[string]SpanData{}
	for _, sp := range spans {
		if sp.Name == "phase2" && sp.Lane == 2 {
			byName["lane"] = sp
			continue
		}
		byName[sp.Name] = sp
	}
	run := byName["run"]
	if run.Parent != 0 {
		t.Fatalf("root parent %d", run.Parent)
	}
	p1 := byName["phase1"]
	if p1.Parent != run.ID {
		t.Fatalf("phase1 parent %d, want %d", p1.Parent, run.ID)
	}
	if len(p1.Attrs) != 3 {
		t.Fatalf("phase1 attrs %v, want 3 (overwrite must not append)", p1.Attrs)
	}
	if p1.Attrs[0].Key != "targets" || p1.Attrs[0].Value != int64(43) {
		t.Fatalf("attr[0] = %+v", p1.Attrs[0])
	}
	lane := byName["lane"]
	if lane.Parent != byName["phase2"].ID || lane.Lane != 2 {
		t.Fatalf("lane span %+v", lane)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatal("snapshot not sorted by start")
		}
	}
	for _, sp := range spans {
		if sp.Open {
			t.Fatalf("span %s still open after End", sp.Name)
		}
	}
}

// TestOpenSpansInSnapshot: a snapshot taken mid-run must include the
// still-open spans, truncated and marked — the abort-flush guarantee.
func TestOpenSpansInSnapshot(t *testing.T) {
	tr := New()
	root := tr.Start("run")
	inner := root.Child("phase1")
	_ = inner

	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	for _, sp := range spans {
		if !sp.Open {
			t.Fatalf("span %s not marked open", sp.Name)
		}
	}
	act := tr.ActiveSpans()
	if len(act) != 2 {
		t.Fatalf("%d active spans, want 2", len(act))
	}
	inner.End()
	if n := len(tr.ActiveSpans()); n != 1 {
		t.Fatalf("%d active after ending inner, want 1", n)
	}
}

// TestConcurrentLaneSpans: children opened and closed from many goroutines
// must all be retained without racing (run under -race).
func TestConcurrentLaneSpans(t *testing.T) {
	tr := New()
	root := tr.Start("run")
	var wg sync.WaitGroup
	for w := 1; w <= 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := root.ChildLane("work", w)
				sp.SetInt("i", int64(i))
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	spans := tr.Snapshot()
	if len(spans) != 1+8*50 {
		t.Fatalf("%d spans, want %d", len(spans), 1+8*50)
	}
}

// TestPerfettoParsesBack: the trace.json output must be valid JSON in the
// Chrome trace-event schema — metadata for every lane, one X event per
// span, open spans flagged in args.
func TestPerfettoParsesBack(t *testing.T) {
	tr := New()
	root := tr.Start("run")
	c := root.Child("phase1")
	c.SetInt("targets", 7)
	c.End()
	root.ChildLane("work", 1).End()
	open := root.Child("phase2") // left open deliberately
	_ = open
	root.End()

	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace.json does not parse: %v", err)
	}
	var xs, meta int
	lanes := map[int]string{}
	var sawOpen, sawAttr bool
	for _, e := range parsed.TraceEvents {
		switch e.Ph {
		case "X":
			xs++
			if e.TS < 0 || e.Dur < 0 {
				t.Fatalf("negative ts/dur in %s", e.Name)
			}
			if e.Name == "phase2" && e.Args["open"] == true {
				sawOpen = true
			}
			if e.Name == "phase1" && e.Args["targets"] == float64(7) {
				sawAttr = true
			}
		case "M":
			meta++
			if e.Name == "thread_name" {
				lanes[e.TID] = e.Args["name"].(string)
			}
		default:
			t.Fatalf("unexpected event phase %q", e.Ph)
		}
	}
	if xs != 4 {
		t.Fatalf("%d X events, want 4", xs)
	}
	if lanes[0] != "main" || lanes[1] != "worker-1" {
		t.Fatalf("lane names %v", lanes)
	}
	if !sawOpen {
		t.Fatal("open span not flagged in args")
	}
	if !sawAttr {
		t.Fatal("span attribute missing from args")
	}
}

// TestJSONLParsesBack: every line of the event log must decode into
// SpanData.
func TestJSONLParsesBack(t *testing.T) {
	tr := New()
	root := tr.Start("run")
	root.Child("a").End()
	root.End()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		var sp SpanData
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if sp.Name == "" || sp.ID == 0 {
			t.Fatalf("line %d incomplete: %+v", n, sp)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("%d lines, want 2", n)
	}
}

// TestMetricsSampling: counters, gauges and the runtime metrics must all
// appear in samples; the JSONL log must parse back.
func TestMetricsSampling(t *testing.T) {
	m := NewMetrics()
	m.Counter("iters").Add(3)
	m.Counter("iters").Add(2)
	m.Gauge("error").Set(0.25)
	m.TakeSample(1)
	m.Gauge("error").Set(0.5)
	m.TakeSample(2)

	ss := m.Samples()
	if len(ss) != 2 {
		t.Fatalf("%d samples, want 2", len(ss))
	}
	if ss[0].Values["iters"] != 5 || ss[0].Values["error"] != 0.25 {
		t.Fatalf("sample 0 = %v", ss[0].Values)
	}
	if ss[1].Values["error"] != 0.5 {
		t.Fatalf("sample 1 error = %v", ss[1].Values["error"])
	}
	for _, key := range []string{"heap_objects_bytes", "gc_cycles", "goroutines", "gc_pause_total_s", "heap_allocs_total_bytes"} {
		if _, ok := ss[0].Values[key]; !ok {
			t.Fatalf("runtime metric %s missing from sample", key)
		}
	}
	if ss[0].Values["heap_objects_bytes"] <= 0 {
		t.Fatal("heap_objects_bytes not positive")
	}
	if ss[1].AtNS < ss[0].AtNS {
		t.Fatal("sample timestamps not monotonic")
	}
	last, ok := m.LastSample()
	if !ok || last.Iter != 2 {
		t.Fatalf("last sample = %+v ok=%v", last, ok)
	}

	var buf bytes.Buffer
	if err := m.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		var s Sample
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("metrics line %d: %v", n, err)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("%d metric lines, want 2", n)
	}
	var sum bytes.Buffer
	if err := m.WriteSummary(&sum); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sum.String(), "error") || !strings.Contains(sum.String(), "iter 2") {
		t.Fatalf("summary missing fields:\n%s", sum.String())
	}
}

// TestWriteSummaryTable: the per-span-name aggregation must include every
// name with its count.
func TestWriteSummaryTable(t *testing.T) {
	tr := New()
	root := tr.Start("run")
	for i := 0; i < 3; i++ {
		root.Child("eval").End()
	}
	root.End()
	var buf bytes.Buffer
	if err := tr.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "run") || !strings.Contains(out, "eval") {
		t.Fatalf("summary missing span names:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "eval") && !strings.Contains(line, "3") {
			t.Fatalf("eval count not 3: %q", line)
		}
	}

	empty := New()
	buf.Reset()
	if err := empty.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no spans") {
		t.Fatalf("empty summary = %q", buf.String())
	}
}

// TestProgressLine pins the pure formatting, including the ETA model
// remaining = elapsed*(1-f)/f and its fallbacks.
func TestProgressLine(t *testing.T) {
	got := progressLine(12, 4000, 0.5, 1.0, 10*time.Second)
	if !strings.Contains(got, "iter 12") || !strings.Contains(got, "ANDs 4000") {
		t.Fatalf("line = %q", got)
	}
	if !strings.Contains(got, "(50.0%)") {
		t.Fatalf("budget fraction missing: %q", got)
	}
	if !strings.Contains(got, "eta ~10s") { // half the budget used in 10s
		t.Fatalf("eta wrong: %q", got)
	}
	if got := progressLine(0, 10, 0, 1.0, time.Second); !strings.Contains(got, "eta --") {
		t.Fatalf("zero error must give no eta: %q", got)
	}
	if got := progressLine(0, 10, 2.0, 1.0, time.Second); !strings.Contains(got, "eta --") {
		t.Fatalf("over-budget must give no eta: %q", got)
	}
	if got := progressLine(0, 10, 1.0, 0, time.Second); !strings.Contains(got, "eta --") {
		t.Fatalf("zero budget must give no eta: %q", got)
	}
}

// TestProgressRendering: rate limiting, in-place rewrite with padding, and
// the Done() newline.
func TestProgressRendering(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, time.Hour) // rate limit blocks every update after the first
	p.Update(1, 100, 0.1, 1)
	p.Update(2, 99, 0.2, 1)
	p.Update(3, 98, 0.3, 1)
	if p.Renders() != 1 {
		t.Fatalf("%d renders under rate limit, want 1", p.Renders())
	}
	p.Done()
	p.Done() // idempotent
	out := buf.String()
	if !strings.HasPrefix(out, "\r") {
		t.Fatalf("line does not rewrite in place: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("Done did not terminate the line: %q", out)
	}
	if strings.Count(out, "\n") != 1 {
		t.Fatalf("multiple newlines: %q", out)
	}
	// Updates after Done must not render.
	p.Update(4, 97, 0.4, 1)
	if p.Renders() != 1 {
		t.Fatal("update after Done rendered")
	}

	// A progress that never rendered writes nothing, not even a newline.
	var empty bytes.Buffer
	q := NewProgress(&empty, 0)
	q.Done()
	if empty.Len() != 0 {
		t.Fatalf("silent progress wrote %q", empty.String())
	}
}

// TestContextPlumbing: With*/From* round-trips, and absent values come
// back as the documented defaults.
func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if got := FromContext(ctx); got != nop {
		t.Fatal("missing tracer is not the shared nop")
	}
	if SpanFrom(ctx) != nil || MetricsFrom(ctx) != nil || ProgressFrom(ctx) != nil {
		t.Fatal("absent values not nil")
	}

	tr := New()
	m := NewMetrics()
	p := NewProgress(&bytes.Buffer{}, 0)
	sp := tr.Start("run")
	ctx = WithTracer(ctx, tr)
	ctx = WithSpan(ctx, sp)
	ctx = WithMetrics(ctx, m)
	ctx = WithProgress(ctx, p)
	if FromContext(ctx) != tr || SpanFrom(ctx) != sp || MetricsFrom(ctx) != m || ProgressFrom(ctx) != p {
		t.Fatal("context round-trip failed")
	}
	// Installing nil keeps the previous value.
	if FromContext(WithTracer(ctx, nil)) != tr {
		t.Fatal("WithTracer(nil) clobbered the tracer")
	}
	if SpanFrom(WithSpan(ctx, nil)) != sp {
		t.Fatal("WithSpan(nil) clobbered the span")
	}
}
