package stream

import (
	"testing"

	"jarvis/internal/plan"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

// Allocation regression guards for the batch-vectorized engine: once the
// pools are warm and the in-process consumer recycles epoch buffers, a
// steady-state epoch must not allocate per record. The legacy record
// path allocated an emit closure per record per stage (~3 allocs/record,
// >100k per epoch at the paper's 10× rate); these bounds would fail
// loudly on any regression back toward that.

func TestSteadyStateEpochAllocs(t *testing.T) {
	p := s2sPipeline(t, 1.5)
	if err := p.SetLoadFactors([]float64{1, 0.9, 0.8}); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(17))
	batch := gen.NextWindow(1_000_000)
	// Warm up: grow scratch buffers, pool inventory and group state.
	for i := 0; i < 3; i++ {
		res := p.RunEpoch(batch)
		res.Recycle()
	}
	avg := testing.AllocsPerRun(50, func() {
		res := p.RunEpoch(batch)
		res.Recycle()
	})
	// The epoch re-feeds the same window, so group state is stable; the
	// only tolerated allocations are small per-epoch headers (stats
	// slice, pool bookkeeping) — nothing proportional to the ~38k input
	// records.
	if avg > 32 {
		t.Fatalf("steady-state epoch allocates %.1f times (want ≤ 32)", avg)
	}
}

func TestWarmAgentPipelineAllocs(t *testing.T) {
	p := s2sPipeline(t, 1.5)
	if err := p.SetLoadFactors([]float64{1, 0.9, 0.8}); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(17))
	var cb wire.ColumnarBatch
	gen.NextWindowCols(1_000_000, &cb)
	// Re-feeding the same columns is safe: the pipeline never writes
	// through shared column arrays (mutation discipline in wire.ColSec).
	for i := 0; i < 3; i++ {
		res := p.RunEpochColumnar(&cb)
		res.Recycle()
	}
	avg := testing.AllocsPerRun(50, func() {
		res := p.RunEpochColumnar(&cb)
		res.Recycle()
	})
	// Same budget as the row epoch: per-epoch headers only, nothing
	// proportional to the ~38k input records — the SoA wave reuses the
	// pipeline's section buffers and selection-vector freelist.
	if avg > 32 {
		t.Fatalf("steady-state columnar agent epoch allocates %.1f times (want ≤ 32)", avg)
	}
}

func TestWarmAgentSpanPipelineAllocs(t *testing.T) {
	p, err := NewPipeline(plan.TraceSpanAgg(), DefaultOptions(0.6, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetLoadFactors([]float64{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewSpanGen(workload.DefaultSpanConfig(3))
	var cb wire.ColumnarBatch
	gen.NextWindowCols(1_000_000, &cb)
	for i := 0; i < 3; i++ {
		res := p.RunEpochColumnar(&cb)
		res.Recycle()
	}
	avg := testing.AllocsPerRun(50, func() {
		res := p.RunEpochColumnar(&cb)
		res.Recycle()
	})
	// The JobStats kernel must reach warm groups without assembling a key
	// string or allocating per row: the same per-epoch-header budget as
	// the probe query, for ~48k spans.
	if avg > 32 {
		t.Fatalf("steady-state columnar span agent epoch allocates %.1f times (want ≤ 32)", avg)
	}
}

func TestSteadyStateSPIngestAllocs(t *testing.T) {
	e, err := NewSPEngine(plan.S2SProbe())
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(18))
	batch := gen.NextWindow(1_000_000)
	for i := 0; i < 3; i++ {
		if err := e.Ingest(0, batch); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := e.Ingest(0, batch); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 8 {
		t.Fatalf("steady-state SP ingest allocates %.1f times (want ≤ 8)", avg)
	}
}

func TestRecycledEpochBuffersAreReused(t *testing.T) {
	p := s2sPipeline(t, 1.5)
	if err := p.SetLoadFactors([]float64{0.5, 0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(19))
	res := p.RunEpoch(gen.NextWindow(1_000_000))
	if len(res.Drains[0]) == 0 {
		t.Fatal("expected drains at 50% load factor")
	}
	// After recycling, the next epoch may reuse the same backing arrays;
	// the recycled result must no longer reference them.
	res.Recycle()
	if res.Drains != nil || res.Results != nil {
		t.Fatal("recycle must drop buffer references")
	}
	res2 := p.RunEpoch(gen.NextWindow(1_000_000))
	if len(res2.Drains[0]) == 0 {
		t.Fatal("second epoch should drain too")
	}
}

func TestBatchPoolRoundTrip(t *testing.T) {
	b := telemetry.GetBatch()
	b = append(b, telemetry.Record{Time: 1})
	grown := cap(b)
	telemetry.PutBatch(b)
	c := telemetry.GetBatch()
	if len(c) != 0 {
		t.Fatal("pooled batch must come back empty")
	}
	if cap(c) < 1 || cap(c) > 1<<20 && grown < 1<<20 {
		t.Fatalf("unexpected capacity %d", cap(c))
	}
}
