package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"jarvis/internal/telemetry"
)

// probeValuePatterns are the uint32 column contents the delta-varint
// probe layout must carry exactly: the range ends, the largest possible
// deltas in both directions, and an irregular spread.
var probeValuePatterns = []struct {
	name string
	val  func(i int) uint32
}{
	{"zero", func(int) uint32 { return 0 }},
	{"max", func(int) uint32 { return math.MaxUint32 }},
	{"alternating", func(i int) uint32 {
		if i%2 == 0 {
			return 0
		}
		return math.MaxUint32
	}},
	{"spread", func(i int) uint32 { return uint32(i) * 2654435761 }},
}

// probeColBatch builds one SoA ping section and one SoA ToR section of n
// rows whose every uint32 column follows val (shifted per column, so
// columns differ), with the given selection vector on both.
func probeColBatch(n int, val func(i int) uint32, sel []int32) *ColumnarBatch {
	times := make([]int64, n)
	wins := make([]int64, n)
	ts := make([]int64, n)
	col := func(shift int) []uint32 {
		c := make([]uint32, n)
		for i := range c {
			c[i] = val(i + shift)
		}
		return c
	}
	for i := range times {
		times[i] = int64(1_000_000 + i*37)
		wins[i] = times[i] / 10_000
		ts[i] = times[i] - int64(i%3)
	}
	ping := ColSec{
		Tag: TagPingProbe, Times: times, Windows: wins, Sel: sel,
		Ping: &PingCols{TS: ts, SrcIP: col(0), SrcCluster: col(1), DstIP: col(2),
			DstCluster: col(3), RTT: col(4), Err: col(5)},
	}
	tor := ColSec{
		Tag: TagToRProbe, Times: times, Windows: wins, Sel: sel,
		ToR: &ToRCols{TS: ts, SrcToR: col(1), DstToR: col(2), RTT: col(3)},
	}
	return &ColumnarBatch{Secs: []ColSec{ping, tor}}
}

// extremeProbeBatches returns row batches of ping and ToR probes whose
// uint32 columns hold every probeValuePatterns pattern — the fuzz seeds
// for the delta-varint probe layout.
func extremeProbeBatches() []telemetry.Batch {
	var out []telemetry.Batch
	for _, p := range probeValuePatterns {
		var rows telemetry.Batch
		probeColBatch(6, p.val, nil).AppendRows(&rows)
		out = append(out, rows)
	}
	return out
}

// writeFrame encodes one columnar frame (flate off) and returns its
// payload, the bytes after the 4-byte length and 12-byte header.
func writeFrame(t *testing.T, f Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	fw.SetColumnar(true)
	if err := fw.WriteFrame(f); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[16:]
}

// TestProbeColumnsRowSoAParity checks, for probe columns at the range
// ends, alternating extremes and an irregular spread, with and without a
// sparse selection vector, that the row path and the SoA path encode
// byte-identical payloads, and that both decoders reproduce the live
// rows exactly.
func TestProbeColumnsRowSoAParity(t *testing.T) {
	const n = 50
	sparse := []int32{0, 3, 4, 17, 30, 49}
	for _, p := range probeValuePatterns {
		for _, sel := range [][]int32{nil, sparse} {
			cb := probeColBatch(n, p.val, sel)
			var rows telemetry.Batch
			cb.AppendRows(&rows)
			if want := 2 * cb.Secs[0].Len(); len(rows) != want {
				t.Fatalf("%s: materialized %d rows, want %d", p.name, len(rows), want)
			}
			fromCols := writeFrame(t, Frame{Cols: cb})
			fromRows := writeFrame(t, Frame{Records: rows})
			if !bytes.Equal(fromCols, fromRows) {
				t.Fatalf("%s (sel %v): SoA and row encodes differ", p.name, sel != nil)
			}

			var got telemetry.Batch
			if err := NewColumnarDecoder().DecodeBatch(fromRows, &got); err != nil {
				t.Fatalf("%s: row decode: %v", p.name, err)
			}
			if !bytes.Equal(canonical(t, got), canonical(t, rows)) {
				t.Fatalf("%s: row decode changed the records", p.name)
			}
			var dcb ColumnarBatch
			if err := NewColumnarDecoder().DecodeColumnar(fromRows, &dcb); err != nil {
				t.Fatalf("%s: SoA decode: %v", p.name, err)
			}
			var soaRows telemetry.Batch
			dcb.AppendRows(&soaRows)
			if !bytes.Equal(canonical(t, soaRows), canonical(t, rows)) {
				t.Fatalf("%s: SoA decode changed the records", p.name)
			}
			if dcb.Secs[0].Tag != TagPingProbe || dcb.Secs[1].Tag != TagToRProbe {
				t.Fatalf("%s: decoded section tags 0x%02x, 0x%02x", p.name, dcb.Secs[0].Tag, dcb.Secs[1].Tag)
			}
		}
	}
}

// TestProbeSectionMinimumSize checks that a probe section at the
// layout's minimum, every column constant so each value takes one byte,
// is exactly that size and is accepted by both decoders.
func TestProbeSectionMinimumSize(t *testing.T) {
	const n = 200
	var rows telemetry.Batch
	for i := 0; i < n; i++ {
		rows = append(rows, telemetry.Record{WireSize: telemetry.PingProbeWireSize, Data: &telemetry.PingProbe{SrcIP: 7}})
	}
	for i := 0; i < n; i++ {
		rows = append(rows, telemetry.Record{WireSize: telemetry.ToRProbeWireSize, Data: &telemetry.ToRProbe{RTTMicros: 9}})
	}
	payload := writeFrame(t, Frame{Records: rows})
	countLen := len(binary.AppendUvarint(nil, n))
	// tableOff + two sections (tag, count, n rows) + empty string table.
	want := 4 + 2*(1+countLen) + n*minRecordBytes(tagPingSection) + n*minRecordBytes(tagToRSection) + 1
	if len(payload) != want {
		t.Fatalf("minimal probe payload is %d bytes, want %d", len(payload), want)
	}
	var got telemetry.Batch
	if err := NewColumnarDecoder().DecodeBatch(payload, &got); err != nil {
		t.Fatalf("row decoder rejected a minimal probe section: %v", err)
	}
	if !bytes.Equal(canonical(t, got), canonical(t, rows)) {
		t.Fatal("minimal probe sections round-trip changed content")
	}
	var cb ColumnarBatch
	if err := NewColumnarDecoder().DecodeColumnar(payload, &cb); err != nil {
		t.Fatalf("SoA decoder rejected a minimal probe section: %v", err)
	}
	if cb.Records() != 2*n {
		t.Fatalf("SoA decode yielded %d of %d records", cb.Records(), 2*n)
	}
}

// probePayload wraps one hand-built section body (tag, count, columns)
// into a columnar payload with an empty string table.
func probePayload(section []byte) []byte {
	p := binary.BigEndian.AppendUint32(nil, uint32(4+len(section)))
	p = append(p, section...)
	return append(p, 0)
}

// decodeBoth runs a payload through both v2 decoders.
func decodeBoth(payload []byte) (rowErr, colErr error) {
	var rows telemetry.Batch
	rowErr = NewColumnarDecoder().DecodeBatch(payload, &rows)
	var cb ColumnarBatch
	colErr = NewColumnarDecoder().DecodeColumnar(payload, &cb)
	return rowErr, colErr
}

// TestFixedWidthProbeSectionRejected checks that probe sections in the
// layout of earlier builds (record tag, uint32 columns as packed
// big-endian arrays) fail with ErrUnknownTag instead of being misparsed.
func TestFixedWidthProbeSectionRejected(t *testing.T) {
	for _, tc := range []struct {
		tag  byte
		cols int
	}{{TagPingProbe, 6}, {TagToRProbe, 3}} {
		const n = 4
		sec := []byte{tc.tag, n}
		for i := 0; i < 3*n; i++ { // times, windows, timestamp offsets
			sec = append(sec, 0)
		}
		for i := 0; i < tc.cols*n; i++ {
			sec = binary.BigEndian.AppendUint32(sec, 0x0A000001+uint32(i))
		}
		rowErr, colErr := decodeBoth(probePayload(sec))
		if !errors.Is(rowErr, ErrUnknownTag) || !errors.Is(colErr, ErrUnknownTag) {
			t.Fatalf("fixed-width section 0x%02x: row err %v, SoA err %v; want ErrUnknownTag", tc.tag, rowErr, colErr)
		}
	}
}

// TestProbeDeltaOutOfRange checks that a delta taking a uint32 column's
// running value below 0 or above MaxUint32 is an error in both
// decoders, never a wrap-around.
func TestProbeDeltaOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		name   string
		deltas []int64
	}{
		{"above max", []int64{math.MaxUint32, 1}},
		{"below zero", []int64{5, -6}},
		{"first negative", []int64{-1, 0}},
		{"int64 overflow", []int64{math.MaxUint32, math.MaxInt64}},
	} {
		for _, st := range []struct {
			tag  byte
			cols int
		}{{tagPingSection, 6}, {tagToRSection, 3}} {
			n := len(tc.deltas)
			sec := []byte{st.tag, byte(n)}
			for i := 0; i < 3*n; i++ { // times, windows, timestamp offsets
				sec = append(sec, 0)
			}
			// The bad column comes last, so every column before it decodes.
			for c := 0; c < st.cols-1; c++ {
				for i := 0; i < n; i++ {
					sec = append(sec, 0)
				}
			}
			for _, d := range tc.deltas {
				sec = binary.AppendUvarint(sec, zigzag(d))
			}
			rowErr, colErr := decodeBoth(probePayload(sec))
			if !errors.Is(rowErr, errU32Range) || !errors.Is(colErr, errU32Range) {
				t.Fatalf("%s, section 0x%02x: row err %v, SoA err %v; want errU32Range", tc.name, st.tag, rowErr, colErr)
			}
		}
	}
}
