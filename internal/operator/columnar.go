package operator

import (
	"math"
	"unsafe"

	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
)

// Columnar (SoA) execution. The SP-side engine drives whole decoded
// columnar waves (wire.ColumnarBatch) through the operators that
// implement ColumnarProcessor, so the hot per-record work — window
// assignment, filter predicates, group-key extraction — runs over
// contiguous columns instead of materialized telemetry.Record structs.
//
// ProcessColumnar mutates the wave in place under the wire package's
// mutation discipline: an operator never writes through a column array
// it received (those may be shared with the decoded frame); it allocates
// replacements and swaps the section fields. Filters narrow sections via
// selection vectors; flat-maps rebuild the section list; GroupAgg
// consumes the wave entirely (its results leave via Flush, as on the row
// path). Every ProcessColumnar must be observably equivalent to
// materializing the wave's live rows and calling ProcessBatch — section
// types an operator cannot handle SoA are materialized per section, so a
// wave stays columnar wherever it can.
type ColumnarProcessor interface {
	// ColumnarCapable reports whether the operator can usefully process
	// SoA waves (it has the kernels its configuration needs). The engine
	// falls back to row materialization at the first incapable stage.
	ColumnarCapable() bool
	// ProcessColumnar advances the wave through this operator in place.
	ProcessColumnar(cb *wire.ColumnarBatch)
}

// ColumnarPred compiles a filter predicate against one SoA section: it
// returns a per-live-row predicate over the column index, or ok=false
// when the section's type cannot be evaluated columnar (the filter then
// materializes that section and applies the row predicate).
type ColumnarPred func(sec *wire.ColSec) (keep func(i int) bool, ok bool)

// ColumnarMapKernel transforms one SoA section, appending zero or more
// replacement sections to out. It reports false when it cannot handle
// the section's type; the Map then falls back to materializing that
// section's rows. Kernels must compact away the input's selection
// vector (output sections carry only live rows) and must not write
// through the input section's columns.
type ColumnarMapKernel func(sec *wire.ColSec, out *[]wire.ColSec) bool

// ColumnarJoinKernel probes one SoA section through a static-table join,
// appending zero or more replacement sections to out (typically one
// compacted section of the surviving, projected rows). It reports false
// when it cannot handle the section's type; the Join then falls back to
// materializing that section's rows and probing them one at a time.
// Like map kernels, join kernels must compact away the input's selection
// vector and must not write through the input section's columns.
type ColumnarJoinKernel func(sec *wire.ColSec, out *[]wire.ColSec) bool

// AggKernel selects GroupAgg's SoA aggregation loop. A kernel must
// compute exactly the same group key and value as the operator's
// keyFn/valFn (the plan layer wires them together); sections a kernel
// does not cover fall back to per-section row materialization.
type AggKernel int

// GroupAgg columnar kernels for the canonical queries' extractors.
const (
	// AggKernelNone disables SoA aggregation of raw sections (partial
	// AggRow sections still merge columnar).
	AggKernelNone AggKernel = iota
	// AggKernelPingPairRTT keys ping sections on the packed numeric
	// (srcIP<<32 | dstIP) pair and aggregates RTT — ProbePairKey/ProbeRTT.
	AggKernelPingPairRTT
	// AggKernelToRPairRTT keys ToR sections on (srcToR<<32 | dstToR) and
	// aggregates RTT — ToRPairKey/ToRRTT.
	AggKernelToRPairRTT
	// AggKernelJobStatsCount keys JobStats sections on
	// (tenant, statName, bucket) and counts — JobStatsKey/JobStatsOne.
	// The string form "tenant|statName|bucket" is assembled once per
	// group (when the group is first seen), not once per row. Rows find
	// their cell through a per-window direct-mapped table indexed by the
	// addresses of the Tenant and StatName strings: a hit needs equal
	// pointers, lengths and bucket, which implies equal content, so no
	// string is hashed. Hits need rows that share strings: SpanGen and
	// the SP decoder reuse one string per distinct value, LogAnalytics'
	// parse kernel one per tenant in a section and constant stat names.
	// A miss (rows carrying fresh strings always miss) falls back to a
	// content-keyed map, so results never depend on interning.
	AggKernelJobStatsCount
	// AggKernelJobStatsDur keys JobStats sections like
	// AggKernelJobStatsCount but aggregates the Stat value instead of
	// counting — JobStatsKey/JobStatsVal. The TraceSpanAgg query uses it
	// to fold span durations per (service, operation) key.
	AggKernelJobStatsDur
)

// --- Window ---

// ColumnarCapable implements ColumnarProcessor: window assignment needs
// only the shared header columns.
func (w *Window) ColumnarCapable() bool { return true }

// ProcessColumnar implements ColumnarProcessor: each section's window
// column is recomputed from its time column in one pass. The replacement
// columns come from a high-water scratch buffer reused across calls
// (their contents are only referenced until the wave is consumed, within
// the same engine ingest).
func (w *Window) ProcessColumnar(cb *wire.ColumnarBatch) {
	total := 0
	for si := range cb.Secs {
		if cb.Secs[si].Rows == nil {
			total += len(cb.Secs[si].Times)
		}
	}
	if cap(w.winScratch) < total {
		w.winScratch = make([]int64, total)
	}
	buf := w.winScratch[:0]
	for si := range cb.Secs {
		sec := &cb.Secs[si]
		if sec.Rows != nil {
			// Materialized fallback rows: rewrite the records into a fresh
			// slice (the input's array may be shared).
			rows := make(telemetry.Batch, len(sec.Rows))
			for i, rec := range sec.Rows {
				rec.Window = w.WindowOf(rec.Time)
				rows[i] = rec
			}
			sec.Rows = rows
			continue
		}
		n := len(sec.Times)
		win := buf[len(buf) : len(buf)+n]
		buf = buf[:len(buf)+n]
		// Event times arrive near-monotonic, so consecutive rows almost
		// always share a window: cache the current window's [lo, hi) time
		// range (exactly the floor-division bucket WindowOf computes) and
		// divide only when a row falls outside it.
		var curWin, lo, hi int64
		hi = math.MinInt64 // force the first row to resolve
		for i, t := range sec.Times {
			if t < lo || t >= hi {
				curWin = w.WindowOf(t)
				lo = curWin * w.dur
				hi = lo + w.dur
			}
			win[i] = curWin
		}
		sec.Windows = win
	}
}

// --- Filter ---

// SetColumnarPred installs the filter's compiled SoA predicate (the plan
// layer compiles optimizer-visible expressions; opaque predicates may
// register a hand-written one). Without it the filter is not columnar
// capable and the engine materializes rows at this stage.
func (f *Filter) SetColumnarPred(p ColumnarPred) { f.colPred = p }

// ColumnarCapable implements ColumnarProcessor.
func (f *Filter) ColumnarCapable() bool { return f.colPred != nil }

// ProcessColumnar implements ColumnarProcessor: sections the compiled
// predicate covers are narrowed with a selection vector (columns stay
// shared, zero copying); the rest are materialized and filtered by the
// row predicate.
func (f *Filter) ProcessColumnar(cb *wire.ColumnarBatch) {
	total := 0
	for si := range cb.Secs {
		total += cb.Secs[si].Len()
	}
	if cap(f.selScratch) < total {
		f.selScratch = make([]int32, total)
	}
	buf := f.selScratch[:0]
	for si := range cb.Secs {
		sec := &cb.Secs[si]
		if sec.Rows != nil {
			sec.Rows = f.filterRows(sec.Rows)
			continue
		}
		keep, ok := f.colPred(sec)
		if !ok {
			var rows telemetry.Batch
			sec.AppendRows(&rows)
			*sec = wire.ColSec{Tag: sec.Tag, Rows: f.filterRows(rows)}
			continue
		}
		sel := buf[len(buf):len(buf)]
		if sec.Sel != nil {
			for _, i := range sec.Sel {
				if keep(int(i)) {
					sel = append(sel, i)
				}
			}
		} else {
			for i := 0; i < len(sec.Times); i++ {
				if keep(i) {
					sel = append(sel, int32(i))
				}
			}
		}
		buf = buf[:len(buf)+len(sel)]
		sec.Sel = sel
	}
}

// filterRows applies the row predicate to materialized records, always
// into a fresh slice (the input array may be shared with the frame).
func (f *Filter) filterRows(rows telemetry.Batch) telemetry.Batch {
	out := make(telemetry.Batch, 0, len(rows))
	for i := range rows {
		if f.pred(rows[i]) {
			out = append(out, rows[i])
		}
	}
	return out
}

// --- Map ---

// SetColumnarKernel installs the map's SoA transformation. Without it
// the map is not columnar capable.
func (m *Map) SetColumnarKernel(k ColumnarMapKernel) { m.colKernel = k }

// ColumnarCapable implements ColumnarProcessor.
func (m *Map) ColumnarCapable() bool { return m.colKernel != nil }

// ProcessColumnar implements ColumnarProcessor: the section list is
// rebuilt through the kernel; sections it declines are materialized and
// run through the row function.
func (m *Map) ProcessColumnar(cb *wire.ColumnarBatch) {
	out := make([]wire.ColSec, 0, len(cb.Secs))
	for si := range cb.Secs {
		sec := &cb.Secs[si]
		if sec.Rows == nil && m.colKernel(sec, &out) {
			continue
		}
		var rows telemetry.Batch
		sec.AppendRows(&rows)
		mapped := make(telemetry.Batch, 0, len(rows))
		emit := func(rec telemetry.Record) { mapped = append(mapped, rec) }
		for i := range rows {
			m.fn(rows[i], emit)
		}
		out = append(out, wire.ColSec{Tag: sec.Tag, Rows: mapped})
	}
	cb.Secs = out
}

// --- Join ---

// SetColumnarKernel installs the join's SoA probe loop. Without it the
// join is not columnar capable.
func (j *Join) SetColumnarKernel(k ColumnarJoinKernel) { j.colKernel = k }

// ColumnarCapable implements ColumnarProcessor. A miss-buffering join
// stays on the row path: buffered misses must be materialized records
// anyway (they outlive the wave), so the SoA probe would buy nothing.
func (j *Join) ColumnarCapable() bool { return j.colKernel != nil && j.bufferDur == 0 }

// ProcessColumnar implements ColumnarProcessor: the section list is
// rebuilt through the kernel (hash probe over packed columns, selection
// compacted into the output); sections it declines are materialized and
// probed through the row function.
func (j *Join) ProcessColumnar(cb *wire.ColumnarBatch) {
	out := make([]wire.ColSec, 0, len(cb.Secs))
	for si := range cb.Secs {
		sec := &cb.Secs[si]
		if sec.Rows == nil && j.colKernel(sec, &out) {
			continue
		}
		var rows telemetry.Batch
		sec.AppendRows(&rows)
		joined := make(telemetry.Batch, 0, len(rows))
		for i := range rows {
			if rec, ok := j.fn(rows[i]); ok {
				joined = append(joined, rec)
			}
		}
		out = append(out, wire.ColSec{Tag: sec.Tag, Rows: joined})
	}
	cb.Secs = out
}

// --- GroupQuantile ---

// SetAggKernel installs the SoA bulk-observe loop matching the
// operator's key/value extractors (the same kernel ids GroupAgg uses).
func (g *GroupQuantile) SetAggKernel(k AggKernel) { g.kernel = k }

// ColumnarCapable implements ColumnarProcessor: partial QuantileRow
// payloads always arrive as materialized rows (they have no SoA
// columns) and merge through ProcessBatch, and raw sections either hit
// the kernel or fall back per section, so the sketch never forces the
// engine off the SoA path.
func (g *GroupQuantile) ColumnarCapable() bool { return true }

// ProcessColumnar implements ColumnarProcessor. Like GroupAgg, results
// leave via Flush, so the wave is consumed whole: raw sections with a
// matching kernel bulk-append their value column into the per-group
// sketches straight from the columns, and everything else materializes
// per section.
func (g *GroupQuantile) ProcessColumnar(cb *wire.ColumnarBatch) {
	for si := range cb.Secs {
		sec := &cb.Secs[si]
		switch {
		case sec.Rows != nil:
			g.ProcessBatch(sec.Rows, nil)
		case sec.Ping != nil && g.kernel == AggKernelPingPairRTT:
			g.quantPingPairRTT(sec)
		case sec.ToR != nil && g.kernel == AggKernelToRPairRTT:
			g.quantToRPairRTT(sec)
		default:
			g.colScratch = g.colScratch[:0]
			sec.AppendRows(&g.colScratch)
			g.ProcessBatch(g.colScratch, nil)
		}
	}
	cb.Reset()
}

// quantObserve folds one numeric-keyed observation into the sketch
// state, resolving the window map per run of equal window ids.
type quantState struct {
	win     map[telemetry.GroupKey]*telemetry.QuantileRow
	winID   int64
	haveWin bool
}

func (g *GroupQuantile) observeNumKeyed(st *quantState, window int64, key uint64, val float64) {
	if !st.haveWin || window != st.winID {
		win := g.state[window]
		if win == nil {
			win = make(map[telemetry.GroupKey]*telemetry.QuantileRow)
			g.state[window] = win
		}
		st.win, st.winID, st.haveWin = win, window, true
	}
	k := telemetry.NumKey(key)
	row := st.win[k]
	if row == nil {
		row = telemetry.NewQuantileRow(k, window, g.lo, g.hi, g.buckets)
		st.win[k] = row
	}
	row.Observe(val)
}

// quantPingPairRTT bulk-appends a ping section's RTT column into the
// per-pair sketches — ProbePairKey/ProbeRTT without Records.
func (g *GroupQuantile) quantPingPairRTT(sec *wire.ColSec) {
	c := sec.Ping
	var st quantState
	if sec.Sel != nil {
		for _, i := range sec.Sel {
			key := uint64(c.SrcIP[i])<<32 | uint64(c.DstIP[i])
			g.observeNumKeyed(&st, sec.Windows[i], key, float64(c.RTT[i]))
		}
		return
	}
	for i := range sec.Times {
		key := uint64(c.SrcIP[i])<<32 | uint64(c.DstIP[i])
		g.observeNumKeyed(&st, sec.Windows[i], key, float64(c.RTT[i]))
	}
}

// quantToRPairRTT is quantPingPairRTT for ToR sections.
func (g *GroupQuantile) quantToRPairRTT(sec *wire.ColSec) {
	c := sec.ToR
	var st quantState
	if sec.Sel != nil {
		for _, i := range sec.Sel {
			key := uint64(c.SrcToR[i])<<32 | uint64(c.DstToR[i])
			g.observeNumKeyed(&st, sec.Windows[i], key, float64(c.RTT[i]))
		}
		return
	}
	for i := range sec.Times {
		key := uint64(c.SrcToR[i])<<32 | uint64(c.DstToR[i])
		g.observeNumKeyed(&st, sec.Windows[i], key, float64(c.RTT[i]))
	}
}

// --- GroupAgg ---

// SetAggKernel installs the SoA aggregation loop matching the operator's
// key/value extractors.
func (g *GroupAgg) SetAggKernel(k AggKernel) { g.kernel = k }

// ColumnarCapable implements ColumnarProcessor: merging partial AggRow
// sections columnar is always a win, and anything else falls back per
// section, so G+R never forces the engine off the SoA path.
func (g *GroupAgg) ColumnarCapable() bool { return true }

// ProcessColumnar implements ColumnarProcessor. Results leave via Flush,
// exactly as on the row path, so the wave is consumed whole: partial
// AggRow sections merge straight from their columns, raw sections with a
// matching kernel aggregate straight from theirs (no record, key-struct
// or key-string per row), and everything else materializes per section.
func (g *GroupAgg) ProcessColumnar(cb *wire.ColumnarBatch) {
	for si := range cb.Secs {
		sec := &cb.Secs[si]
		switch {
		case sec.Rows != nil:
			g.ProcessBatch(sec.Rows, nil)
		case sec.Agg != nil:
			g.mergeAggCols(sec)
		case sec.Ping != nil && g.kernel == AggKernelPingPairRTT:
			g.aggPingPairRTT(sec)
		case sec.ToR != nil && g.kernel == AggKernelToRPairRTT:
			g.aggToRPairRTT(sec)
		case sec.Job != nil && g.kernel == AggKernelJobStatsCount:
			g.aggJobStats(sec, false)
		case sec.Job != nil && g.kernel == AggKernelJobStatsDur:
			g.aggJobStats(sec, true)
		default:
			g.colScratch = g.colScratch[:0]
			sec.AppendRows(&g.colScratch)
			g.ProcessBatch(g.colScratch, nil)
		}
	}
	cb.Reset()
}

// mergeAggCols merges one partial-aggregate section without building
// AggRow records: each live row becomes one mergePartial against a
// stack-allocated row.
func (g *GroupAgg) mergeAggCols(sec *wire.ColSec) {
	c := sec.Agg
	sec.Live(func(i int) {
		row := telemetry.AggRow{
			Key:    telemetry.GroupKey{Num: c.KeyNum[i], Str: c.KeyStr[i]},
			Window: c.Window[i], Count: c.Count[i],
			Sum: c.Sum[i], Min: c.Min[i], Max: c.Max[i],
		}
		g.mergePartial(sec.Windows[i], &row)
	})
}

// aggRun is a SoA aggregation kernel's current window: the kernels
// resolve the window state once per run of equal window ids, like the
// row batch path.
type aggRun struct {
	win     *aggWindow
	winID   int64
	haveWin bool
}

// observeNumKeyed folds one numeric-keyed observation.
func (g *GroupAgg) observeNumKeyed(st *aggRun, window int64, key uint64, val float64) {
	if !st.haveWin || window != st.winID {
		st.win = g.window(window)
		st.win.gen = g.gen
		st.winID, st.haveWin = window, true
		st.win.cache.fit(len(st.win.num), &g.spareCache)
	}
	// Direct-mapped cell cache (Fibonacci hash). See aggWindow.cache for
	// why hits can't be stale; misses fall through to the window map.
	slot := &st.win.cache.slots[(key*0x9e3779b97f4a7c15)>>st.win.cache.shift]
	cell := slot.cell
	if cell == nil || slot.key != key {
		cell = st.win.num[key]
		if cell == nil {
			cell = &aggCell{row: telemetry.NewAggRow(telemetry.NumKey(key), window, val), gen: g.gen}
			st.win.num[key] = cell
			slot.key, slot.cell = key, cell
			return
		}
		slot.key, slot.cell = key, cell
	}
	cell.row.Observe(val)
	cell.gen = g.gen
}

// aggPingPairRTT aggregates a ping section straight from its columns:
// the packed (srcIP, dstIP) key and the RTT value never pass through a
// Record, a GroupKey hash of the full struct, or an interface call.
func (g *GroupAgg) aggPingPairRTT(sec *wire.ColSec) {
	c := sec.Ping
	var st aggRun
	if sec.Sel != nil {
		for _, i := range sec.Sel {
			key := uint64(c.SrcIP[i])<<32 | uint64(c.DstIP[i])
			g.observeNumKeyed(&st, sec.Windows[i], key, float64(c.RTT[i]))
		}
		return
	}
	for i := range sec.Times {
		key := uint64(c.SrcIP[i])<<32 | uint64(c.DstIP[i])
		g.observeNumKeyed(&st, sec.Windows[i], key, float64(c.RTT[i]))
	}
}

// aggToRPairRTT is aggPingPairRTT for ToR sections.
func (g *GroupAgg) aggToRPairRTT(sec *wire.ColSec) {
	c := sec.ToR
	var st aggRun
	if sec.Sel != nil {
		for _, i := range sec.Sel {
			key := uint64(c.SrcToR[i])<<32 | uint64(c.DstToR[i])
			g.observeNumKeyed(&st, sec.Windows[i], key, float64(c.RTT[i]))
		}
		return
	}
	for i := range sec.Times {
		key := uint64(c.SrcToR[i])<<32 | uint64(c.DstToR[i])
		g.observeNumKeyed(&st, sec.Windows[i], key, float64(c.RTT[i]))
	}
}

// jobRefKey is the content-keyed fallback lookup key for JobStats
// groups: the column strings plus the bucket, hashed without assembling
// the "tenant|statName|bucket" string the canonical key uses.
type jobRefKey struct {
	tenant, stat string
	bucket       int64
}

// aggJobStats aggregates a JobStats section straight from its columns.
// useStat selects the folded value: the Stat column (durations,
// JobStatsVal) or a constant 1 (counts, JobStatsOne).
func (g *GroupAgg) aggJobStats(sec *wire.ColSec, useStat bool) {
	c := sec.Job
	var st aggRun
	val := 1.0
	if sec.Sel != nil {
		for _, i := range sec.Sel {
			if useStat {
				val = c.Stat[i]
			}
			g.observeJob(&st, sec.Windows[i], c.Tenant[i], c.StatName[i], c.Bucket[i], val)
		}
		return
	}
	for i := range sec.Times {
		if useStat {
			val = c.Stat[i]
		}
		g.observeJob(&st, sec.Windows[i], c.Tenant[i], c.StatName[i], c.Bucket[i], val)
	}
}

// observeJob folds one JobStats row into its group. The row reaches its
// cell through the window's identity front (jobSlot): one multiply over
// the two string addresses and the bucket, and pointer compares — no
// string is hashed. A miss resolves the cell by content (jobCell) and
// refills the slot.
func (g *GroupAgg) observeJob(st *aggRun, window int64, tenant, stat string, bucket int64, val float64) {
	if !st.haveWin || window != st.winID {
		st.win = g.window(window)
		st.win.gen = g.gen
		st.winID, st.haveWin = window, true
		st.win.jobs.fit(len(st.win.byRef), &g.spareJobs)
	}
	h := strAddr(tenant)*0x9e3779b97f4a7c15 ^ strAddr(stat) ^ uint64(bucket)*0xbf58476d1ce4e5b9
	slot := &st.win.jobs.slots[(h*0x94d049bb133111eb)>>st.win.jobs.shift]
	cell := slot.cell
	if cell == nil || slot.bucket != bucket || !sameString(slot.tenant, tenant) || !sameString(slot.stat, stat) {
		var fresh bool
		cell, fresh = g.jobCell(st.win, window, jobRefKey{tenant: tenant, stat: stat, bucket: bucket}, val)
		*slot = jobSlot{tenant: tenant, stat: stat, bucket: bucket, cell: cell}
		if fresh {
			return
		}
	}
	cell.row.Observe(val)
	cell.gen = g.gen
}

// jobCell resolves a JobStats row that missed the identity front: by
// content through byRef, then through the canonical string key, which is
// assembled only when a group is first seen through the columnar path.
// A new group is created already holding val (fresh = true); the caller
// observes val into an existing one.
func (g *GroupAgg) jobCell(win *aggWindow, window int64, ref jobRefKey, val float64) (cell *aggCell, fresh bool) {
	if cell = win.byRef[ref]; cell != nil {
		return cell, false
	}
	key := telemetry.StrKey(ref.tenant + "|" + ref.stat + "|" + itoa(int(ref.bucket)))
	cell = win.lookup(key)
	if cell == nil {
		cell = &aggCell{row: telemetry.NewAggRow(key, window, val), gen: g.gen}
		win.store(key, cell)
		fresh = true
	}
	if win.byRef == nil {
		win.byRef = make(map[jobRefKey]*aggCell)
	}
	win.byRef[ref] = cell
	return cell, fresh
}

// strAddr returns the address of a string's bytes, for hashing only.
func strAddr(s string) uint64 { return uint64(uintptr(unsafe.Pointer(unsafe.StringData(s)))) }

// sameString reports whether a and b are the same bytes in memory: equal
// data pointers and lengths, which for live strings implies equal
// content.
func sameString(a, b string) bool {
	return len(a) == len(b) && unsafe.StringData(a) == unsafe.StringData(b)
}
