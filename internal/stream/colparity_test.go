package stream

import (
	"fmt"
	"testing"

	"jarvis/internal/plan"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

// These tests pin the SoA agent pipeline's guarantee: RunEpochColumnar
// over generator-emitted columns produces the same epoch (stats, drains,
// results, watermark, byte and budget accounting) as RunEpoch over the
// row form of the same trace, and an SP replica fed by each path emits
// identical output — on all of the paper's queries, under routing that
// exercises forward, drain and mixed regimes.

// colParityCase pairs a query with row and columnar generators backed by
// identically seeded instances (NextWindowCols is trace-identical to
// NextWindow by construction).
type colParityCase struct {
	name   string
	query  func() *plan.Query
	gen    func() func() telemetry.Batch
	colGen func() func(cb *wire.ColumnarBatch)
}

func colParityCases() []colParityCase {
	pingCfg := workload.DefaultPingConfig(7)
	pingGens := func() (func() telemetry.Batch, func(cb *wire.ColumnarBatch)) {
		g := workload.NewPingGen(workload.DefaultPingConfig(7))
		return func() telemetry.Batch { return g.NextWindow(1_000_000) },
			func(cb *wire.ColumnarBatch) { g.NextWindowCols(1_000_000, cb) }
	}
	cases := []colParityCase{
		{name: "S2SProbe", query: plan.S2SProbe},
		{name: "T2TProbe", query: func() *plan.Query { return plan.T2TProbe(parityTable(pingCfg)) }},
		{name: "S2SQuantile", query: plan.S2SQuantileProbe},
		{
			name:  "TraceSpanAgg",
			query: plan.TraceSpanAgg,
			gen: func() func() telemetry.Batch {
				g := workload.NewSpanGen(workload.DefaultSpanConfig(7))
				return func() telemetry.Batch { return g.NextWindow(1_000_000) }
			},
			colGen: func() func(cb *wire.ColumnarBatch) {
				g := workload.NewSpanGen(workload.DefaultSpanConfig(7))
				return func(cb *wire.ColumnarBatch) { g.NextWindowCols(1_000_000, cb) }
			},
		},
		{
			name:  "LogAnalytics",
			query: plan.LogAnalytics,
			gen: func() func() telemetry.Batch {
				g := workload.NewLogGen(workload.DefaultLogConfig(7))
				return func() telemetry.Batch { return g.NextWindow(1_000_000) }
			},
			colGen: func() func(cb *wire.ColumnarBatch) {
				g := workload.NewLogGen(workload.DefaultLogConfig(7))
				return func(cb *wire.ColumnarBatch) { g.NextWindowCols(1_000_000, cb) }
			},
		},
	}
	for i := range cases {
		if cases[i].gen == nil {
			cases[i].gen = func() func() telemetry.Batch { r, _ := pingGens(); return r }
			cases[i].colGen = func() func(cb *wire.ColumnarBatch) { _, c := pingGens(); return c }
		}
	}
	return cases
}

// materializeColEpoch folds a columnar epoch's SoA buffers into row form
// in global record order (row drains precede columnar drains per stage;
// flush results precede arrival-survivor columns).
func materializeColEpoch(res EpochResult) (drains []telemetry.Batch, results telemetry.Batch) {
	drains = make([]telemetry.Batch, len(res.Drains))
	for i := range res.Drains {
		drains[i] = append(drains[i], res.Drains[i]...)
		if i < len(res.ColDrains) {
			res.ColDrains[i].AppendRows(&drains[i])
		}
	}
	results = append(results, res.Results...)
	res.ColResults.AppendRows(&results)
	return drains, results
}

func colEpochsEqual(row, col EpochResult) error {
	cd, cr := materializeColEpoch(col)
	for i := range row.Drains {
		if err := batchesEqual(row.Drains[i], cd[i]); err != nil {
			return fmt.Errorf("drains[%d]: %w", i, err)
		}
	}
	if err := batchesEqual(row.Results, cr); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	rowCmp := row
	rowCmp.Drains, rowCmp.Results = nil, nil
	colCmp := col
	colCmp.Drains, colCmp.Results = nil, nil
	colCmp.ColDrains, colCmp.ColResults = nil, wire.ColumnarBatch{}
	return epochsEqual(rowCmp, colCmp)
}

func TestColumnarAgentEpochParity(t *testing.T) {
	for _, tc := range colParityCases() {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.query()
			rowPipe, err := NewPipeline(tc.query(), DefaultOptions(4.0, 0))
			if err != nil {
				t.Fatal(err)
			}
			colPipe, err := NewPipeline(tc.query(), DefaultOptions(4.0, 0))
			if err != nil {
				t.Fatal(err)
			}
			newSP := func() *SPEngine {
				e, err := NewSPEngine(tc.query())
				if err != nil {
					t.Fatal(err)
				}
				e.RegisterSource(1)
				return e
			}
			rowSP, colSP := newSP(), newSP()

			gen, colGen := tc.gen(), tc.colGen()
			nops := len(q.Ops)
			var cb wire.ColumnarBatch
			sawOutput, sawColDrain := false, false
			for epoch := 0; epoch < 13; epoch++ {
				lf := parityFactors(nops, epoch)
				if tc.name == "T2TProbe" {
					// The dstToR join's row-path input is an intermediate
					// payload with no columnar layout (the SoA path fuses both
					// lookups into the first join), so drains at that stage
					// would legitimately differ in form. Routing everything
					// forward there keeps the comparison meaningful — and
					// matches real deployments, where the intermediate has no
					// wire encoding either.
					lf[3] = 1
				}
				if err := rowPipe.SetLoadFactors(lf); err != nil {
					t.Fatal(err)
				}
				if err := colPipe.SetLoadFactors(lf); err != nil {
					t.Fatal(err)
				}
				cb.Reset()
				var input telemetry.Batch
				if epoch < 11 {
					input = gen()
					colGen(&cb)
				} else {
					rowPipe.ObserveTime(int64(epoch+1) * 1_000_000)
					colPipe.ObserveTime(int64(epoch+1) * 1_000_000)
				}
				rres := rowPipe.RunEpoch(input)
				cres := colPipe.RunEpochColumnar(&cb)
				if err := colEpochsEqual(rres, cres); err != nil {
					t.Fatalf("epoch %d: %v", epoch, err)
				}

				// SP replicas: the row epoch feeds Ingest; the columnar epoch
				// feeds its SoA buffers through IngestColumnar like the
				// receiver would.
				for stage, d := range rres.Drains {
					if len(d) > 0 {
						if err := rowSP.Ingest(stage, d); err != nil {
							t.Fatal(err)
						}
					}
				}
				if len(rres.Results) > 0 {
					if err := rowSP.Ingest(rres.ResultStage, rres.Results); err != nil {
						t.Fatal(err)
					}
				}
				rowSP.ObserveWatermark(1, rres.Watermark)

				for stage := range cres.Drains {
					if len(cres.Drains[stage]) > 0 {
						if err := colSP.Ingest(stage, cres.Drains[stage]); err != nil {
							t.Fatal(err)
						}
					}
					if stage < len(cres.ColDrains) && len(cres.ColDrains[stage].Secs) > 0 {
						sawColDrain = true
						if err := colSP.IngestColumnar(stage, &cres.ColDrains[stage]); err != nil {
							t.Fatal(err)
						}
					}
				}
				if len(cres.Results) > 0 {
					if err := colSP.Ingest(cres.ResultStage, cres.Results); err != nil {
						t.Fatal(err)
					}
				}
				if len(cres.ColResults.Secs) > 0 {
					if err := colSP.IngestColumnar(cres.ResultStage, &cres.ColResults); err != nil {
						t.Fatal(err)
					}
				}
				colSP.ObserveWatermark(1, cres.Watermark)

				rout, cout := rowSP.Advance(), colSP.Advance()
				if err := batchesEqual(rout, cout); err != nil {
					t.Fatalf("epoch %d SP output: %v", epoch, err)
				}
				if len(rout) > 0 {
					sawOutput = true
				}
			}
			if !sawOutput {
				t.Fatal("parity run never flushed results — the test is vacuous")
			}
			if !sawColDrain {
				t.Fatal("columnar path never drained SoA sections — the test is vacuous")
			}
			if rowPipe.PendingTotal() != colPipe.PendingTotal() {
				t.Fatalf("pending %d vs %d", rowPipe.PendingTotal(), colPipe.PendingTotal())
			}
		})
	}
}

// TestColumnarForcedDrainParity runs the parity check where the forward
// bound binds: a small budget and a short stage queue make every stage
// force-drain part of its input at load factor 1, so the columnar route
// pass must count those rows and their bytes exactly like the row path.
func TestColumnarForcedDrainParity(t *testing.T) {
	for _, tc := range colParityCases() {
		if tc.name == "T2TProbe" {
			continue // intermediate join payloads drain in row form only (see above)
		}
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions(0.05, 0)
			opts.MaxQueuePerStage = 2000
			rowPipe, err := NewPipeline(tc.query(), opts)
			if err != nil {
				t.Fatal(err)
			}
			colPipe, err := NewPipeline(tc.query(), opts)
			if err != nil {
				t.Fatal(err)
			}
			lf := make([]float64, len(tc.query().Ops))
			for i := range lf {
				lf[i] = 1
			}
			if err := rowPipe.SetLoadFactors(lf); err != nil {
				t.Fatal(err)
			}
			if err := colPipe.SetLoadFactors(lf); err != nil {
				t.Fatal(err)
			}
			gen, colGen := tc.gen(), tc.colGen()
			var cb wire.ColumnarBatch
			forced := 0
			for epoch := 0; epoch < 4; epoch++ {
				cb.Reset()
				colGen(&cb)
				rres := rowPipe.RunEpoch(gen())
				cres := colPipe.RunEpochColumnar(&cb)
				if err := colEpochsEqual(rres, cres); err != nil {
					t.Fatalf("epoch %d: %v", epoch, err)
				}
				for _, s := range rres.Stats {
					forced += s.Drained
				}
			}
			if forced == 0 {
				t.Fatal("no stage force-drained — the test is vacuous")
			}
		})
	}
}
