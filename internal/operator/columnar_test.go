package operator

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
)

// Parity of the SoA JobStats kernels with the row path. The columnar
// side reaches warm groups through a table keyed on string addresses;
// these tests feed it the inputs where that can go wrong — content-equal
// strings with distinct backing arrays, colliding slots, sections
// spanning windows, partial merges into the same keys, strings
// re-allocated mid-window, and windows reusing a closed window's table —
// and require every Flush, Drain and SnapshotDirtyWindow to match
// ProcessBatch over the materialized rows exactly.

// jobPool is the string pool rows draw keys from: 64 tenants × 100 stat
// names × 3 buckets, far more keys than the smallest slot table.
type jobPool struct {
	tenants, stats []string
}

func newJobPool() jobPool {
	var p jobPool
	for i := 0; i < 64; i++ {
		p.tenants = append(p.tenants, "svc-"+itoa(i))
	}
	for i := 0; i < 100; i++ {
		p.stats = append(p.stats, "op-"+itoa(i))
	}
	return p
}

// jobSec builds a JobStats section of n rows whose windows follow
// windows (one entry per run of n/len(windows) rows). When cloneAll is
// set every string is a fresh copy; otherwise every other row's strings
// are cloned, so content-equal strings with distinct backing arrays
// interleave with the pooled ones. sel, when non-nil, keeps every third
// row.
func (p jobPool) jobSec(rng *rand.Rand, n int, windows []int64, cloneAll, sel bool) wire.ColSec {
	c := &wire.JobCols{
		TS: make([]int64, n), Tenant: make([]string, n), StatName: make([]string, n),
		Stat: make([]float64, n), Bucket: make([]int64, n),
	}
	sec := wire.ColSec{Tag: wire.TagJobStats, Times: make([]int64, n), Windows: make([]int64, n), Job: c}
	run := (n + len(windows) - 1) / len(windows)
	for i := 0; i < n; i++ {
		t, s := p.tenants[rng.Intn(len(p.tenants))], p.stats[rng.Intn(len(p.stats))]
		if cloneAll || i%2 == 1 {
			t, s = strings.Clone(t), strings.Clone(s)
		}
		c.TS[i] = int64(i)
		c.Tenant[i], c.StatName[i] = t, s
		c.Stat[i] = float64(rng.Intn(1000)) / 8
		c.Bucket[i] = int64(rng.Intn(3))
		sec.Times[i] = int64(i)
		sec.Windows[i] = windows[i/run]
		if sel && i%3 == 0 {
			sec.Sel = append(sec.Sel, int32(i))
		}
	}
	return sec
}

// aggSec builds a partial-aggregate section whose keys are the canonical
// JobStats keys of pooled (tenant, stat, bucket) triples, all in window w.
func (p jobPool) aggSec(rng *rand.Rand, n int, w int64) wire.ColSec {
	c := &wire.AggCols{
		KeyNum: make([]uint64, n), KeyStr: make([]string, n), Window: make([]int64, n),
		Count: make([]int64, n), Sum: make([]float64, n), Min: make([]float64, n), Max: make([]float64, n),
	}
	sec := wire.ColSec{Tag: wire.TagAggRow, Times: make([]int64, n), Windows: make([]int64, n), Agg: c}
	for i := 0; i < n; i++ {
		key := p.tenants[rng.Intn(len(p.tenants))] + "|" + p.stats[rng.Intn(len(p.stats))] + "|" + itoa(rng.Intn(3))
		lo := float64(rng.Intn(100))
		c.KeyStr[i], c.Window[i] = key, w
		c.Count[i], c.Sum[i], c.Min[i], c.Max[i] = 3, 3*lo+6, lo, lo+4
		sec.Windows[i] = w
	}
	return sec
}

// jobParity runs one GroupAgg on the columnar path and a twin on the row
// path in lockstep.
type jobParity struct {
	t        *testing.T
	col, row *GroupAgg
}

func newJobParity(t *testing.T, kernel AggKernel, val func(telemetry.Record) float64) *jobParity {
	col := NewGroupAgg("g", 10, JobStatsKey, val)
	col.SetAggKernel(kernel)
	return &jobParity{t: t, col: col, row: NewGroupAgg("g", 10, JobStatsKey, val)}
}

// feed sends one section through both paths.
func (jp *jobParity) feed(sec wire.ColSec) {
	var rows telemetry.Batch
	sec.AppendRows(&rows)
	jp.row.ProcessBatch(rows, nil)
	cb := wire.ColumnarBatch{Secs: []wire.ColSec{sec}}
	jp.col.ProcessColumnar(&cb)
}

// aggRowsOf flattens emitted records to comparable values; unsorted
// emissions (snapshots) are ordered by key first.
func aggRowsOf(recs telemetry.Batch, sorted bool) []telemetry.Record {
	out := make([]telemetry.Record, len(recs))
	for i, r := range recs {
		row := *r.Data.(*telemetry.AggRow)
		r.Data = row
		out[i] = r
	}
	if !sorted {
		slices.SortFunc(out, func(a, b telemetry.Record) int {
			return strings.Compare(a.Data.(telemetry.AggRow).Key.Str, b.Data.(telemetry.AggRow).Key.Str)
		})
	}
	return out
}

func (jp *jobParity) compare(what string, sorted bool, emit func(*GroupAgg, Emit)) {
	jp.t.Helper()
	var got, want telemetry.Batch
	emit(jp.col, func(r telemetry.Record) { got = append(got, r) })
	emit(jp.row, func(r telemetry.Record) { want = append(want, r) })
	if len(want) == 0 {
		jp.t.Fatalf("%s: row path emitted nothing; the test exercises no state", what)
	}
	if g, w := aggRowsOf(got, sorted), aggRowsOf(want, sorted); !reflect.DeepEqual(g, w) {
		jp.t.Fatalf("%s: columnar emitted %d rows, row path %d; contents differ", what, len(g), len(w))
	}
}

// snapshotDirty compares the delta snapshot of every dirty window, then
// starts the next delta on both sides.
func (jp *jobParity) snapshotDirty() {
	jp.t.Helper()
	if g, w := jp.col.DirtyWindows(), jp.row.DirtyWindows(); !slices.Equal(g, w) {
		jp.t.Fatalf("dirty windows: columnar %v, row path %v", g, w)
	}
	for _, w := range jp.row.DirtyWindows() {
		jp.compare("SnapshotDirtyWindow", false, func(g *GroupAgg, e Emit) { g.SnapshotDirtyWindow(w, e) })
	}
	jp.col.MarkClean()
	jp.row.MarkClean()
}

func TestJobStatsKernelParity(t *testing.T) {
	for _, k := range []struct {
		name   string
		kernel AggKernel
		val    func(telemetry.Record) float64
	}{
		{"dur", AggKernelJobStatsDur, JobStatsVal},
		{"count", AggKernelJobStatsCount, JobStatsOne},
	} {
		t.Run(k.name, func(t *testing.T) {
			pool := newJobPool()
			rng := rand.New(rand.NewSource(7))
			jp := newJobParity(t, k.kernel, k.val)

			// A small window closes first and leaves its table for window
			// 1, which reuses it at the same size: the pooled strings land
			// in the same slots, and must not hit window 0's dead cells.
			jp.feed(pool.jobSec(rng, 400, []int64{0}, false, false))
			jp.compare("Flush", true, func(g *GroupAgg, e Emit) { g.Flush(10, e) })

			// Partials before columnar rows: the kernel must find these
			// cells by their canonical key, not create twins.
			jp.feed(pool.aggSec(rng, 500, 1))
			// ~6000 distinct keys in one window: the table grows past its
			// minimum and colliding slots evict each other. The section
			// spans windows 1 → 2 → 1.
			jp.feed(pool.jobSec(rng, 20000, []int64{1, 2, 1}, false, false))
			jp.feed(pool.jobSec(rng, 3000, []int64{2}, false, true))
			jp.snapshotDirty()
			// Every string re-allocated mid-window (as after the decoder
			// clears its canonicalization cache), then pooled ones again.
			jp.feed(pool.jobSec(rng, 5000, []int64{1, 2}, true, false))
			jp.feed(pool.jobSec(rng, 5000, []int64{2, 1}, false, false))
			// Partials after columnar rows merge into the kernel's cells.
			jp.feed(pool.aggSec(rng, 500, 2))
			jp.snapshotDirty()
			jp.compare("Flush", true, func(g *GroupAgg, e Emit) { g.Flush(20, e) })

			jp.feed(pool.jobSec(rng, 8000, []int64{3}, false, false))
			jp.feed(pool.jobSec(rng, 2000, []int64{2, 3}, false, true))
			jp.compare("Drain", true, func(g *GroupAgg, e Emit) { g.Drain(e) })
			if n := len(jp.col.OpenWindows()); n != 0 {
				t.Fatalf("%d windows left after Drain", n)
			}
		})
	}
}
