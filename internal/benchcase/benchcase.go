// Package benchcase defines the canonical engine micro-benchmark
// workloads in one place, shared by the repository benchmarks
// (bench_test.go) and cmd/jarvis-bench's machine-readable `-exp micro`
// mode, so BENCH_<n>.json always measures exactly the same setups as
// `go test -bench`.
package benchcase

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"jarvis/internal/core"
	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/transport"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

// PipelineEpoch builds the standard source-pipeline benchmark: S2SProbe
// with a full budget, all load factors at 1, fed one second of Pingmesh
// data at the paper's 10× rate. legacy selects the record-at-a-time
// reference path.
func PipelineEpoch(legacy bool) (*stream.Pipeline, telemetry.Batch, error) {
	opts := stream.DefaultOptions(1.0, 0)
	opts.RecordAtATime = legacy
	pipe, err := stream.NewPipeline(plan.S2SProbe(), opts)
	if err != nil {
		return nil, nil, err
	}
	if err := pipe.SetLoadFactors([]float64{1, 1, 1}); err != nil {
		return nil, nil, err
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(1))
	return pipe, gen.NextWindow(1_000_000), nil
}

// EndToEnd builds the standard building-block benchmark: one adaptive
// S2SProbe source at 80% budget plus its processor, fed one second of
// Pingmesh data.
func EndToEnd() (*core.BuildingBlock, telemetry.Batch, error) {
	bb, err := core.NewBuildingBlock(plan.S2SProbe(), 1, core.SourceOptions{
		BudgetFrac: 0.8, RateMbps: 26.2, Adapt: true,
	})
	if err != nil {
		return nil, nil, err
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(5))
	return bb, gen.NextWindow(1_000_000), nil
}

// SPIngest builds the canonical SP-side ingest benchmark: an S2SProbe
// engine plus one second of Pingmesh drain, returned both as the decoded
// row batch (the input of BenchmarkSPIngest since PR 1) and as the same
// records decoded into a wire-v2 SoA batch (BenchmarkSPIngestColumnar).
// The two inputs carry identical record sequences, so the benchmarks
// measure execution strategy, not workload differences.
func SPIngest() (*stream.SPEngine, telemetry.Batch, *wire.ColumnarBatch, error) {
	engine, err := stream.NewSPEngine(plan.S2SProbe())
	if err != nil {
		return nil, nil, nil, err
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(2))
	batch := gen.NextWindow(1_000_000)
	var buf bytes.Buffer
	fw := wire.NewFrameWriter(&buf)
	fw.SetColumnar(true)
	if err := fw.WriteFrame(wire.Frame{StreamID: 0, Source: 1, Records: batch}); err != nil {
		return nil, nil, nil, err
	}
	if err := fw.Flush(); err != nil {
		return nil, nil, nil, err
	}
	fr := wire.NewFrameReader(bytes.NewReader(buf.Bytes()))
	fr.SetColumnarExec(true)
	f, err := fr.ReadFrame()
	if err != nil {
		return nil, nil, nil, err
	}
	if f.Cols == nil {
		return nil, nil, nil, fmt.Errorf("benchcase: frame did not decode to a SoA batch")
	}
	if f.Cols.Records() != len(batch) {
		return nil, nil, nil, fmt.Errorf("benchcase: SoA decode yielded %d of %d records", f.Cols.Records(), len(batch))
	}
	return engine, batch, f.Cols, nil
}

// WarmPipeline returns the PipelineEpoch pipeline after several epochs
// of input, so its G+R stage carries realistic open-window state — the
// setup for the snapshot/restore micro-benchmarks.
func WarmPipeline(epochs int) (*stream.Pipeline, error) {
	pipe, batch, err := PipelineEpoch(false)
	if err != nil {
		return nil, err
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(1))
	for i := 0; i < epochs; i++ {
		pipe.RunEpoch(batch)
		batch = gen.NextWindow(1_000_000)
	}
	return pipe, nil
}

// drainPipeline returns an S2SProbe pipeline with every load factor at
// 0, so each epoch ships its whole input to the SP.
func drainPipeline() (*stream.Pipeline, error) {
	pipe, err := stream.NewPipeline(plan.S2SProbe(), stream.DefaultOptions(1.0, 0))
	if err != nil {
		return nil, err
	}
	return pipe, pipe.SetLoadFactors([]float64{0, 0, 0})
}

// ShippedEpoch returns one drain-heavy epoch (all load factors at zero,
// so the full raw batch ships to the SP) plus the same epoch encoded as
// wire-v2 columnar frames — the input for the decode and replay-apply
// micro-benchmarks, sized like the epochs a recovering SP actually
// re-applies (the sequenced shipper negotiates v2 between current
// builds, so columnar is the shipped format).
func ShippedEpoch() (stream.EpochResult, []byte, error) {
	pipe, err := drainPipeline()
	if err != nil {
		return stream.EpochResult{}, nil, err
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(1))
	res := pipe.RunEpoch(gen.NextWindow(1_000_000))
	data, err := EncodeEpoch(res, false)
	return res, data, err
}

// DrainEpochColumnar returns one columnar S2SProbe epoch with every
// load factor at 0, so the whole SoA wave of one second of Pingmesh data
// drains to the SP still in column form — the input that the agent's
// ship stage (encode plus flate) and the SP's receive stage (inflate
// plus SoA decode) handle on the drain-heavy production path. The
// result's columns stay valid because the pipeline runs no further
// epoch.
func DrainEpochColumnar() (stream.EpochResult, error) {
	pipe, err := drainPipeline()
	if err != nil {
		return stream.EpochResult{}, err
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(1))
	var cb wire.ColumnarBatch
	gen.NextWindowCols(1_000_000, &cb)
	return pipe.RunEpochColumnar(&cb), nil
}

// EncodeEpoch ships res through a columnar Shipper into memory, with or
// without flate, and returns the bytes that would cross the wire.
func EncodeEpoch(res stream.EpochResult, compress bool) ([]byte, error) {
	var buf bytes.Buffer
	sh := transport.NewShipper(1, &buf)
	sh.EnableColumnar()
	if compress {
		sh.EnableCompression()
	}
	if err := sh.ShipEpoch(res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ShipEncodeCompressed is the body of BenchmarkShipEncodeCompressed:
// the agent's ship stage on the DrainEpochColumnar epoch, wire-v2 frame
// encode plus flate, as a Shipper with compression negotiated runs it.
// SetBytes is the uncompressed frame volume.
func ShipEncodeCompressed(b *testing.B) {
	res, err := DrainEpochColumnar()
	if err != nil {
		b.Fatal(err)
	}
	raw, err := EncodeEpoch(res, false)
	if err != nil {
		b.Fatal(err)
	}
	sh := transport.NewShipper(1, io.Discard)
	sh.EnableColumnar()
	sh.EnableCompression()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sh.ShipEpoch(res); err != nil {
			b.Fatal(err)
		}
	}
}

// RecvDecodeCompressed is the body of BenchmarkRecvDecodeCompressed: the
// SP's receive stage on the same epoch, inflate plus SoA decode of every
// frame, with pooled column arenas recycled per epoch as the receiver
// does at commit.
func RecvDecodeCompressed(b *testing.B) {
	res, err := DrainEpochColumnar()
	if err != nil {
		b.Fatal(err)
	}
	raw, err := EncodeEpoch(res, false)
	if err != nil {
		b.Fatal(err)
	}
	data, err := EncodeEpoch(res, true)
	if err != nil {
		b.Fatal(err)
	}
	fr := wire.NewFrameReader(bytes.NewReader(data))
	fr.SetColumnarExec(true)
	fr.EnableArenaPooling()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr.Reset(bytes.NewReader(data))
		for {
			if _, err := fr.ReadFrame(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		fr.RecycleArenas()
	}
}

// PipelineEpochColumnar builds the SoA agent-epoch benchmark: the
// PipelineEpoch pipeline fed the same second of Pingmesh data as
// generated column sections (NextWindowCols is trace-identical to
// NextWindow), so BenchmarkAgentEpochColumnar and
// BenchmarkPipelineEpoch process identical record sequences on the two
// execution strategies.
func PipelineEpochColumnar() (*stream.Pipeline, *wire.ColumnarBatch, error) {
	pipe, err := stream.NewPipeline(plan.S2SProbe(), stream.DefaultOptions(1.0, 0))
	if err != nil {
		return nil, nil, err
	}
	if err := pipe.SetLoadFactors([]float64{1, 1, 1}); err != nil {
		return nil, nil, err
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(1))
	var cb wire.ColumnarBatch
	gen.NextWindowCols(1_000_000, &cb)
	return pipe, &cb, nil
}

// SpanEpochColumnar builds the TraceSpanAgg agent-epoch benchmark: the
// span query at budget 0.6 with every load factor at 1 (where the
// adaptive runtime settles at this budget and rate: all spans aggregate
// locally), fed one second of SpanGen data as generated column sections.
// It times the JobStats aggregation kernel on the agent side.
func SpanEpochColumnar() (*stream.Pipeline, *wire.ColumnarBatch, error) {
	pipe, err := stream.NewPipeline(plan.TraceSpanAgg(), stream.DefaultOptions(0.6, 0))
	if err != nil {
		return nil, nil, err
	}
	if err := pipe.SetLoadFactors([]float64{1, 1, 1}); err != nil {
		return nil, nil, err
	}
	gen := workload.NewSpanGen(workload.DefaultSpanConfig(3))
	var cb wire.ColumnarBatch
	gen.NextWindowCols(1_000_000, &cb)
	return pipe, &cb, nil
}

// LogEpochColumnar builds the LogAnalytics agent-epoch benchmark: the
// log query at budget 1.0 with every load factor at 1, so every line is
// normalized, parsed and counted on the agent, plus the generator whose
// next second of lines (NextLogEpoch) each epoch consumes. Unlike the
// probe and span epochs it must not replay one batch: the JobStats rows'
// strings are cut from each line by the parse kernel, and a replayed
// batch would hand the aggregation the same string addresses every
// epoch, which fresh lines never do.
func LogEpochColumnar() (*stream.Pipeline, *workload.LogGen, error) {
	pipe, err := stream.NewPipeline(plan.LogAnalytics(), stream.DefaultOptions(1.0, 0))
	if err != nil {
		return nil, nil, err
	}
	ones := make([]float64, len(pipe.Query().Ops))
	for i := range ones {
		ones[i] = 1
	}
	if err := pipe.SetLoadFactors(ones); err != nil {
		return nil, nil, err
	}
	return pipe, workload.NewLogGen(workload.DefaultLogConfig(1)), nil
}

// NextLogEpoch refills cb with the generator's next second of lines.
func NextLogEpoch(gen *workload.LogGen, cb *wire.ColumnarBatch) {
	cb.Secs = cb.Secs[:0]
	gen.NextWindowCols(1_000_000, cb)
}

// SpanIngest builds the TraceSpanAgg ingest benchmark pair: a span
// engine plus one second of SpanGen drain as decoded rows and as the
// identical records decoded into a wire-v2 SoA batch — the span-query
// analogue of SPIngest, so the columnar-vs-row A/B holds for the
// distributed-tracing workload too.
func SpanIngest() (*stream.SPEngine, telemetry.Batch, *wire.ColumnarBatch, error) {
	engine, err := stream.NewSPEngine(plan.TraceSpanAgg())
	if err != nil {
		return nil, nil, nil, err
	}
	gen := workload.NewSpanGen(workload.DefaultSpanConfig(2))
	batch := gen.NextWindow(1_000_000)
	var buf bytes.Buffer
	fw := wire.NewFrameWriter(&buf)
	fw.SetColumnar(true)
	if err := fw.WriteFrame(wire.Frame{StreamID: 0, Source: 1, Records: batch}); err != nil {
		return nil, nil, nil, err
	}
	if err := fw.Flush(); err != nil {
		return nil, nil, nil, err
	}
	fr := wire.NewFrameReader(bytes.NewReader(buf.Bytes()))
	fr.SetColumnarExec(true)
	f, err := fr.ReadFrame()
	if err != nil {
		return nil, nil, nil, err
	}
	if f.Cols == nil {
		return nil, nil, nil, fmt.Errorf("benchcase: span frame did not decode to a SoA batch")
	}
	if f.Cols.Records() != len(batch) {
		return nil, nil, nil, fmt.Errorf("benchcase: span SoA decode yielded %d of %d records", f.Cols.Records(), len(batch))
	}
	return engine, batch, f.Cols, nil
}
