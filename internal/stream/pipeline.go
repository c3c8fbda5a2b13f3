package stream

import (
	"fmt"
	"sync"

	"jarvis/internal/obs"
	"jarvis/internal/operator"
	"jarvis/internal/plan"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
)

// Options configures a data-source pipeline.
type Options struct {
	// EpochMicros is the epoch length (paper evaluates with 1 s).
	EpochMicros int64
	// BudgetFrac is the CPU budget as a fraction of one core.
	BudgetFrac float64
	// DrainedThres tolerates this fraction of an epoch's arrivals as
	// pending records before a proxy signals congestion (§IV-C).
	DrainedThres float64
	// IdleThres tolerates this fraction of spare epoch budget before a
	// proxy signals idleness (§IV-C).
	IdleThres float64
	// MaxQueuePerStage bounds each operator queue; overflow is drained to
	// the stream processor (lossless bounded backpressure).
	MaxQueuePerStage int
	// Boundary caps how many leading operators run locally (from the
	// plan rules); proxies beyond it drain everything.
	Boundary int
	// RecordAtATime selects the legacy depth-first record execution loop
	// instead of the default batch-vectorized one. Both paths implement
	// the same routing, budget and drain semantics; with budget to spare
	// they produce identical epoch results (see TestBatchRecordParity).
	// The record path exists as the semantic reference and for A/B
	// benchmarking; the batch path amortizes dispatch, charges the cost
	// model per batch and reuses pooled epoch buffers.
	RecordAtATime bool
}

// DefaultOptions mirrors the paper's evaluation setup: 1 s epochs,
// DrainedThres 10% and IdleThres 20%.
func DefaultOptions(budgetFrac float64, boundary int) Options {
	return Options{
		EpochMicros:      1_000_000,
		BudgetFrac:       budgetFrac,
		DrainedThres:     0.10,
		IdleThres:        0.20,
		MaxQueuePerStage: 1 << 18,
		Boundary:         boundary,
	}
}

// EpochResult reports one epoch of pipeline execution.
type EpochResult struct {
	// Stats holds per-proxy counters and states, one per local operator.
	Stats []ProxyStats
	// Drains[i] holds records drained at proxy i; they must be delivered
	// to the stream processor's replica of operator i.
	Drains []telemetry.Batch
	// Results are records emitted past the last local operator.
	Results telemetry.Batch
	// ResultStage is the SP-side operator index Results should enter:
	// the last local operator's own index when it is stateful (partial
	// aggregates merge into the replica), one past it otherwise.
	ResultStage int
	// Watermark is the event-time low watermark after this epoch: all
	// records at or before it have been fully processed or drained.
	Watermark int64
	// BudgetUsedFrac is the fraction of the epoch budget consumed.
	BudgetUsedFrac float64
	// SpareBudgetFrac = 1 − BudgetUsedFrac (0 when the budget is 0).
	SpareBudgetFrac float64
	// DrainedBytes and ResultBytes are the epoch's outbound volumes.
	DrainedBytes int64
	ResultBytes  int64

	// ColDrains[i] holds proxy i's drains from a columnar arrival wave
	// (RunEpochColumnar), still in SoA form: sections share the wave's
	// column arrays, narrowed by drain selection vectors. Drains[i] holds
	// the same epoch's row drains (carried-over records, materialized
	// fallbacks) and precedes ColDrains[i] in record order. The shared
	// columns stay valid until the pipeline's next epoch; Recycle only
	// drops the references.
	ColDrains []wire.ColumnarBatch
	// ColResults holds a columnar arrival wave's survivors past the last
	// local operator, still in SoA form. Results keeps the epoch's row
	// results: restored records, carryover cascades and the end-of-epoch
	// flush emissions. Same lifetime as ColDrains.
	ColResults wire.ColumnarBatch

	// Timing is the agent-side trace context for the cross-process epoch
	// trace: the pipeline stamps its own duration, the epoch driver (the
	// agent main loop) stamps the epoch start and generate duration, and
	// the shipper seals the context into the EpochEnd trace extension.
	// All zero when lifecycle timing is disabled.
	Timing EpochTiming
}

// EpochTiming carries the agent-half of an epoch's trace context to the
// shipper (see wire.EpochEnd and obs.EpochTrace). StartMicros is the
// epoch begin on the agent's clock in unix microseconds; zero means the
// driver recorded no epoch-level timing, and the shipper then anchors
// the trace at seal time.
type EpochTiming struct {
	StartMicros int64
	GenMicros   int64
	PipeMicros  int64
}

// TotalOutBytes is the epoch's total network transfer from the source.
func (r *EpochResult) TotalOutBytes() int64 { return r.DrainedBytes + r.ResultBytes }

// Recycle returns the epoch's drain and result buffers to the shared
// batch pool and drops the references, so the next epoch reuses their
// backing arrays instead of allocating. Call it only once every record
// has been consumed (the in-process Processor recycles after SP ingest);
// the scalar fields stay valid, the batches do not.
func (r *EpochResult) Recycle() {
	for i := range r.Drains {
		if r.Drains[i] != nil {
			telemetry.PutBatch(r.Drains[i])
			r.Drains[i] = nil
		}
	}
	putDrainSet(r.Drains)
	r.Drains = nil
	if r.Results != nil {
		telemetry.PutBatch(r.Results)
		r.Results = nil
	}
	// Columnar outputs borrow the pipeline's scratch (and, transitively,
	// the caller's column arrays): dropping the references is all recycling
	// means for them.
	r.ColDrains = nil
	r.ColResults = wire.ColumnarBatch{}
}

// drainSetFree recycles the per-epoch []Batch drain headers (one slot per
// operator) behind a small bounded freelist shared by all pipelines.
var (
	drainSetMu   sync.Mutex
	drainSetFree [][]telemetry.Batch
)

func getDrainSet(n int) []telemetry.Batch {
	drainSetMu.Lock()
	for i := len(drainSetFree) - 1; i >= 0; i-- {
		if cap(drainSetFree[i]) < n {
			continue // leave smaller headers for smaller pipelines
		}
		d := drainSetFree[i]
		last := len(drainSetFree) - 1
		drainSetFree[i] = drainSetFree[last]
		drainSetFree = drainSetFree[:last]
		drainSetMu.Unlock()
		d = d[:n]
		clear(d)
		return d
	}
	drainSetMu.Unlock()
	return make([]telemetry.Batch, n)
}

func putDrainSet(d []telemetry.Batch) {
	if cap(d) == 0 {
		return
	}
	drainSetMu.Lock()
	if len(drainSetFree) < 64 {
		drainSetFree = append(drainSetFree, d[:0])
	}
	drainSetMu.Unlock()
}

// QueryState classifies the whole pipeline per §IV-C: congested if any
// proxy is congested, idle if all are idle, stable otherwise.
func QueryState(stats []ProxyStats) ProxyState {
	if len(stats) == 0 {
		return StateStable
	}
	allIdle := true
	for _, s := range stats {
		if s.State == StateCongested {
			return StateCongested
		}
		if s.State != StateIdle {
			allIdle = false
		}
	}
	if allIdle {
		return StateIdle
	}
	return StateStable
}

// Pipeline executes the source-side replica of a query: operators with a
// control proxy in front of each, a token-bucket CPU budget, bounded
// queues and drain paths. Execution is batch-vectorized by default: each
// epoch drives whole batches stage by stage through the proxies (which
// still decide drain-vs-forward per record) into the operators'
// BatchProcessor path, with budget charged per batch and all epoch
// buffers drawn from pools.
type Pipeline struct {
	query    *plan.Query
	ops      []operator.Operator
	batchOps []operator.BatchProcessor
	proxies  []*Proxy
	queues   []telemetry.Batch
	bucket   *TokenBucket
	cm       *CostModel
	opts     Options

	maxEventSeen int64
	watermark    int64

	// epoch scratch, reset by RunEpoch
	drains  []telemetry.Batch
	results telemetry.Batch

	// restored holds records a RestoreCheckpoint emitted past the local
	// chain; the next epoch's results lead with them.
	restored telemetry.Batch

	// persistent stage scratch for the batch path (ping-pong wave
	// buffers plus the per-stage forwarded run), reused across epochs.
	scratchA telemetry.Batch
	scratchB telemetry.Batch
	fwd      telemetry.Batch

	// columnar arrival-wave machinery (RunEpochColumnar). colOps[i] is
	// non-nil when ops[i] executes SoA waves; colA/colB ping-pong the wave
	// section headers; colRows is the materialization buffer for the row
	// fallback; colDrains/colResults hold the epoch's SoA outputs and
	// colDrainBytes the drains' volume, summed by the route pass; the sel
	// free/lent lists recycle routing selection vectors across epochs.
	colOps        []operator.ColumnarProcessor
	colA, colB    []wire.ColSec
	colRows       telemetry.Batch
	colDrains     []wire.ColumnarBatch
	colDrainBytes int64
	colResults    wire.ColumnarBatch
	selFree       [][]int32
	selLent       [][]int32

	// epochSeq counts completed epochs; prevStates remembers each proxy's
	// state at the previous epoch boundary so finishEpoch emits a
	// proxy_state decision only on transitions (the zero value,
	// StateStable, is every proxy's implicit starting state).
	epochSeq   uint64
	prevStates []ProxyState
}

// NewPipeline compiles a query into a source pipeline. The query should
// already be optimized (plan.Optimize); control proxies are inserted
// between all adjacent operators per §IV-B.
func NewPipeline(q *plan.Query, opts Options) (*Pipeline, error) {
	ops, err := q.Instantiate()
	if err != nil {
		return nil, err
	}
	if opts.EpochMicros <= 0 {
		return nil, fmt.Errorf("stream: non-positive epoch")
	}
	if opts.Boundary <= 0 || opts.Boundary > len(ops) {
		opts.Boundary = len(ops)
	}
	cm, err := NewCostModel(q)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		query:    q,
		ops:      ops,
		batchOps: make([]operator.BatchProcessor, len(ops)),
		proxies:  make([]*Proxy, len(ops)),
		queues:   make([]telemetry.Batch, len(ops)),
		bucket:   NewTokenBucket(opts.BudgetFrac * float64(opts.EpochMicros)),
		cm:       cm,
		opts:     opts,
	}
	p.colOps = make([]operator.ColumnarProcessor, len(ops))
	for i := range p.proxies {
		p.proxies[i] = NewProxy(i) // load factors start at zero (Startup)
		p.batchOps[i] = operator.AsBatchProcessor(ops[i])
		if cp, ok := ops[i].(operator.ColumnarProcessor); ok && cp.ColumnarCapable() {
			p.colOps[i] = cp
		}
	}
	return p, nil
}

// Query returns the compiled query.
func (p *Pipeline) Query() *plan.Query { return p.query }

// Operators exposes the physical operators (read-only use).
func (p *Pipeline) Operators() []operator.Operator { return p.ops }

// CostModel exposes the pipeline's cost model (experiments rescale join
// costs through it).
func (p *Pipeline) CostModel() *CostModel { return p.cm }

// SetBudget changes the CPU budget fraction between epochs.
func (p *Pipeline) SetBudget(frac float64) {
	p.opts.BudgetFrac = frac
	p.bucket.SetCapacity(frac * float64(p.opts.EpochMicros))
}

// Budget returns the current CPU budget fraction.
func (p *Pipeline) Budget() float64 { return p.opts.BudgetFrac }

// LoadFactors returns the current per-proxy load factors.
func (p *Pipeline) LoadFactors() []float64 {
	out := make([]float64, len(p.proxies))
	for i, px := range p.proxies {
		out[i] = px.LoadFactor()
	}
	return out
}

// SetLoadFactors reconfigures all proxies (the runtime's Adapt action).
// Proxies at or past the boundary are forced to zero.
func (p *Pipeline) SetLoadFactors(factors []float64) error {
	if len(factors) != len(p.proxies) {
		return fmt.Errorf("stream: %d load factors for %d proxies", len(factors), len(p.proxies))
	}
	for i, f := range factors {
		if i >= p.opts.Boundary {
			f = 0
		}
		p.proxies[i].SetLoadFactor(f)
	}
	return nil
}

// Boundary returns the number of leading operators allowed to run
// locally.
func (p *Pipeline) Boundary() int { return p.opts.Boundary }

// PendingTotal returns the number of records queued across all stages.
func (p *Pipeline) PendingTotal() int {
	n := 0
	for _, q := range p.queues {
		n += len(q)
	}
	return n
}

// RunEpoch executes one epoch: drains or processes carried-over pending
// records first, then the epoch's input batch, then advances the
// watermark and flushes closed windows. Lossless: every input record is
// either processed locally, queued, or drained to the SP.
func (p *Pipeline) RunEpoch(input telemetry.Batch) EpochResult {
	start := obs.Now()
	p.bucket.Refill()
	if p.opts.RecordAtATime {
		p.drains = make([]telemetry.Batch, len(p.ops))
		p.results = nil
		p.results = append(p.results, p.restored...)
		p.restored = nil
		p.runEpochRecord(input)
	} else {
		p.drains = getDrainSet(len(p.ops))
		p.results = telemetry.GetBatch()
		p.results = append(p.results, p.restored...)
		p.restored = nil
		p.runEpochBatch(input)
	}
	res := p.finishEpoch()
	if !start.IsZero() {
		res.Timing.PipeMicros = obs.ObserveSince(obs.StagePipeline, start).Microseconds()
	}
	return res
}

// RunEpochColumnar executes one epoch over a columnar (SoA) arrival
// wave: the generator's column sections flow through the local chain
// stage at a time with proxies routing, budget charging and queue bounds
// applied per live row — observably equivalent to materializing the wave
// and calling RunEpoch, but records are never built on the all-SoA
// prefix of the plan. At the first stage without a columnar path the
// remaining live rows materialize once and finish on the row machinery,
// exactly like the SP engine's fallback. Carried-over queue records (the
// previous epoch's budget overflow) always run on the row path first.
//
// Proxy decisions consume the same error-diffusion sequence as the row
// path (Proxy.Decide), so stats, drains, results and watermark are
// bit-identical to RunEpoch on the materialized batch whenever the
// operators' columnar kernels are row-equivalent. Columnar epochs always
// use the batch execution loop; Options.RecordAtATime only affects
// RunEpoch.
//
// The caller's batch is treated read-only, and the returned ColDrains /
// ColResults sections reference its column arrays: callers must consume
// the result before mutating the input columns or running the next
// epoch.
func (p *Pipeline) RunEpochColumnar(cb *wire.ColumnarBatch) EpochResult {
	start := obs.Now()
	p.bucket.Refill()
	p.drains = getDrainSet(len(p.ops))
	p.results = telemetry.GetBatch()
	p.results = append(p.results, p.restored...)
	p.restored = nil

	// Reclaim selection vectors lent to the previous epoch's result and
	// reset the columnar output buffers (their previous contents were
	// consumed before this call, per the contract above).
	p.selFree = append(p.selFree, p.selLent...)
	p.selLent = p.selLent[:0]
	if p.colDrains == nil {
		p.colDrains = make([]wire.ColumnarBatch, len(p.ops))
	}
	for i := range p.colDrains {
		p.colDrains[i].Secs = p.colDrains[i].Secs[:0]
	}
	p.colDrainBytes = 0
	p.colResults.Secs = p.colResults.Secs[:0]

	p.runCarryover()

	// Event-time progress observes every live arrival, exactly like the
	// row path's input scan.
	for si := range cb.Secs {
		sec := &cb.Secs[si]
		if sec.Rows != nil {
			for k := range sec.Rows {
				if sec.Rows[k].Time > p.maxEventSeen {
					p.maxEventSeen = sec.Rows[k].Time
				}
			}
			continue
		}
		if sec.Sel != nil {
			for _, idx := range sec.Sel {
				if sec.Times[idx] > p.maxEventSeen {
					p.maxEventSeen = sec.Times[idx]
				}
			}
			continue
		}
		for _, t := range sec.Times {
			if t > p.maxEventSeen {
				p.maxEventSeen = t
			}
		}
	}

	p.runColumnarWave(cb)

	res := p.finishEpoch()
	res.ColDrains = p.colDrains
	res.ColResults = p.colResults
	res.DrainedBytes += p.colDrainBytes
	res.ResultBytes += p.colResults.TotalBytes()
	if !start.IsZero() {
		res.Timing.PipeMicros = obs.ObserveSince(obs.StagePipeline, start).Microseconds()
	}
	return res
}

// runColumnarWave drives the SoA arrival wave through the local chain.
// Each stage mirrors the row wave exactly: route every live row in
// order (forced drains past the budget+queue bound first, then the
// proxy's error-diffusion decision), charge the budget for the prefix
// of forwarded rows it covers, push that prefix through the operator's
// columnar path, and queue the remainder as rows.
func (p *Pipeline) runColumnarWave(cb *wire.ColumnarBatch) {
	b := p.opts.Boundary
	bufA, bufB := p.colA, p.colB
	in := append(bufA[:0], cb.Secs...)
	bufA = in
	for i := 0; i < b; i++ {
		if p.colOps[i] == nil {
			// Fallback: materialize the wave's live rows once and run the
			// remaining stages on the row path (starting with this stage's
			// own proxy, which has not routed them yet).
			p.colRows = p.colRows[:0]
			w := wire.ColumnarBatch{Secs: in}
			w.AppendRows(&p.colRows)
			p.colA, p.colB = bufA[:0], bufB[:0]
			p.runWaveFrom(i, p.colRows)
			return
		}
		live := 0
		for si := range in {
			live += in[si].Len()
		}
		if live == 0 {
			break
		}

		px := p.proxies[i]
		room := p.opts.MaxQueuePerStage - len(p.queues[i])
		if room < 0 {
			room = 0
		}
		cost := p.cm.Cost(i)
		// Forwarded rows beyond this bound could neither be processed
		// (budget) nor queued (bounded stage queue): they force-drain.
		maxFwd := p.bucket.FitCount(cost, live) + room

		// Route pass: walk live rows in order, splitting each section into
		// a forwarded view and a drain view. SoA sections split by fresh
		// selection vectors over shared columns; row sections split by
		// copying records.
		fwd := bufB[:0]
		fwdTotal := 0
		for si := range in {
			sec := &in[si]
			if sec.Rows != nil {
				var fr, dr telemetry.Batch
				for k := range sec.Rows {
					rec := sec.Rows[k]
					if fwdTotal >= maxFwd {
						px.NoteForcedDrain(1)
						dr = append(dr, rec)
						continue
					}
					if px.Decide() {
						fr = append(fr, rec)
						fwdTotal++
					} else {
						dr = append(dr, rec)
					}
				}
				if len(dr) > 0 {
					db := dr.TotalBytes()
					px.NoteDrainedBytes(db)
					p.colDrainBytes += db
					p.colDrains[i].Secs = append(p.colDrains[i].Secs, wire.ColSec{Tag: sec.Tag, Rows: dr})
				}
				if len(fr) > 0 {
					fwd = append(fwd, wire.ColSec{Tag: sec.Tag, Rows: fr})
				}
				continue
			}
			// Decide per live row until the forward bound is hit; every row
			// after that force-drains. Row sizes are summed afterwards over
			// the drained rows only.
			fwdSel, drSel := p.takeSel(), p.takeSel()
			forced := 0
			if sec.Sel != nil {
				k := 0
				for ; k < len(sec.Sel) && fwdTotal < maxFwd; k++ {
					if px.Decide() {
						fwdSel = append(fwdSel, sec.Sel[k])
						fwdTotal++
					} else {
						drSel = append(drSel, sec.Sel[k])
					}
				}
				forced = len(sec.Sel) - k
				drSel = append(drSel, sec.Sel[k:]...)
			} else {
				idx := 0
				for ; idx < len(sec.Times) && fwdTotal < maxFwd; idx++ {
					if px.Decide() {
						fwdSel = append(fwdSel, int32(idx))
						fwdTotal++
					} else {
						drSel = append(drSel, int32(idx))
					}
				}
				forced = len(sec.Times) - idx
				for ; idx < len(sec.Times); idx++ {
					drSel = append(drSel, int32(idx))
				}
			}
			px.NoteForcedDrain(forced)
			fwdSel, drSel = p.lendSel(fwdSel), p.lendSel(drSel)
			if len(drSel) > 0 {
				dsec := *sec
				dsec.Sel = drSel
				db := dsec.LiveBytes()
				px.NoteDrainedBytes(db)
				p.colDrainBytes += db
				p.colDrains[i].Secs = append(p.colDrains[i].Secs, dsec)
			}
			if len(fwdSel) > 0 {
				fsec := *sec
				fsec.Sel = fwdSel
				fwd = append(fwd, fsec)
			}
		}
		bufB = fwd

		// Budget pass: the prefix of forwarded rows the tokens cover is
		// processed columnar; the suffix materializes into the stage queue,
		// exactly like the row path's fwd[n:].
		n := p.bucket.FitCount(cost, fwdTotal)
		p.bucket.ConsumeN(cost, n)
		px.NoteProcessedN(n)
		if n < fwdTotal {
			fwd = p.spillColumnar(i, fwd, n)
		}
		if len(fwd) == 0 {
			p.colA, p.colB = bufA[:0], bufB[:0]
			return
		}

		w := wire.ColumnarBatch{Secs: fwd}
		p.colOps[i].ProcessColumnar(&w)
		bufA, bufB = bufB, bufA
		in = w.Secs
	}
	// Survivors past the last local stage are columnar results.
	for si := range in {
		if in[si].Len() > 0 {
			p.colResults.Secs = append(p.colResults.Secs, in[si])
		}
	}
	p.colA, p.colB = bufA[:0], bufB[:0]
}

// spillColumnar truncates a routed forward wave to its first n live rows
// and materializes the remainder into stage i's queue (rows), returning
// the truncated wave. The materialized records own their memory — queue
// entries outlive the epoch's column arrays.
func (p *Pipeline) spillColumnar(i int, fwd []wire.ColSec, n int) []wire.ColSec {
	cnt := 0
	for si := range fwd {
		sec := &fwd[si]
		l := sec.Len()
		if cnt+l <= n {
			cnt += l
			continue
		}
		keep := n - cnt
		if sec.Rows != nil {
			p.queues[i] = append(p.queues[i], sec.Rows[keep:]...)
			sec.Rows = sec.Rows[:keep]
		} else {
			tail := *sec
			tail.Sel = sec.Sel[keep:]
			tail.AppendRows(&p.queues[i])
			sec.Sel = sec.Sel[:keep]
		}
		for sj := si + 1; sj < len(fwd); sj++ {
			fwd[sj].AppendRows(&p.queues[i])
		}
		if keep == 0 {
			return fwd[:si]
		}
		return fwd[:si+1]
	}
	return fwd
}

// takeSel pops a recycled selection-vector buffer (or returns nil, which
// append grows); lendSel registers the final slice for reclamation at
// the next columnar epoch, once the epoch's result has been consumed.
func (p *Pipeline) takeSel() []int32 {
	if nf := len(p.selFree); nf > 0 {
		s := p.selFree[nf-1]
		p.selFree = p.selFree[:nf-1]
		return s[:0]
	}
	return nil
}

func (p *Pipeline) lendSel(s []int32) []int32 {
	if cap(s) > 0 {
		p.selLent = append(p.selLent, s)
	}
	return s
}

// runEpochBatch is the vectorized execution loop: records move through
// the local chain as whole waves, one stage at a time. Proxies still
// route per record (error diffusion needs the record sequence), but
// forwarded runs are charged to the budget and pushed through the
// operator in one ProcessBatch call, and every stage reuses persistent
// scratch buffers. Stage-at-a-time scheduling feeds each operator the
// same record sequence as the legacy depth-first loop, so with budget to
// spare the two paths produce identical epochs; they only distribute a
// mid-epoch budget exhaustion differently across stages (both remain
// lossless and congestion-visible).
func (p *Pipeline) runEpochBatch(input telemetry.Batch) {
	p.runCarryover()
	for i := range input {
		if input[i].Time > p.maxEventSeen {
			p.maxEventSeen = input[i].Time
		}
	}
	p.runWaveFrom(0, input)
}

// runCarryover processes records queued in earlier epochs: they were
// already committed to local processing, and their emissions cascade
// through the chain, routed at each downstream proxy before that stage's
// own queue runs, mirroring the legacy order. Shared by the row and
// columnar epoch paths (queues always hold rows).
func (p *Pipeline) runCarryover() {
	b := p.opts.Boundary
	curr, next := p.scratchA[:0], p.scratchB[:0]
	for i := 0; i < b; i++ {
		out := &next
		if i+1 >= b {
			out = &p.results
		}
		p.fwd = p.routeBatch(i, curr, p.fwd[:0])
		n1 := p.processBatchAt(i, p.fwd, out)
		pending := p.queues[i]
		n2 := p.processBatchAt(i, pending, out)
		q := append(pending[:0], pending[n2:]...)
		p.queues[i] = append(q, p.fwd[n1:]...)
		if i+1 < b {
			curr, next = next, curr[:0]
		}
	}
	p.scratchA, p.scratchB = curr[:0], next[:0]
}

// runWaveFrom drives one arrival wave of rows through stages start..b-1
// (the whole local chain for a row epoch; the remaining suffix when a
// columnar wave materializes at its first row-only stage).
func (p *Pipeline) runWaveFrom(start int, wave telemetry.Batch) {
	b := p.opts.Boundary
	curr, next := p.scratchA[:0], p.scratchB[:0]
	for i := start; i < b; i++ {
		var out *telemetry.Batch
		if i+1 >= b {
			out = &p.results
		} else {
			next = next[:0]
			out = &next
		}
		p.fwd = p.routeBatch(i, wave, p.fwd[:0])
		n := p.processBatchAt(i, p.fwd, out)
		if n < len(p.fwd) {
			p.queues[i] = append(p.queues[i], p.fwd[n:]...)
		}
		if i+1 < b {
			curr, next = next, curr
			wave = curr
		}
	}
	p.scratchA, p.scratchB = curr, next
}

// routeBatch routes one stage's arrivals: drained records append to the
// stage's drain buffer, forwarded records to fwd (returned). Records
// beyond what the budget can process plus what the stage queue can hold
// are force-drained without consulting Route, exactly like the legacy
// per-record overflow check.
func (p *Pipeline) routeBatch(i int, in telemetry.Batch, fwd telemetry.Batch) telemetry.Batch {
	if len(in) == 0 {
		return fwd
	}
	px := p.proxies[i]
	room := p.opts.MaxQueuePerStage - len(p.queues[i])
	if room < 0 {
		room = 0
	}
	// Forwarded records beyond this bound could neither be processed
	// (budget) nor queued (bounded stage queue): they must force-drain.
	maxFwd := p.bucket.FitCount(p.cm.Cost(i), len(in)) + room
	for k := range in {
		if len(fwd) >= maxFwd {
			p.forceDrain(i, in[k])
			continue
		}
		if px.Route(in[k]) {
			fwd = append(fwd, in[k])
		} else {
			p.appendDrain(i, in[k])
		}
	}
	return fwd
}

// processBatchAt charges the budget for as many of in's records as fit,
// runs that prefix through operator i in one vectorized call, and
// returns how many were consumed; the caller queues the remainder.
func (p *Pipeline) processBatchAt(i int, in telemetry.Batch, out *telemetry.Batch) int {
	if len(in) == 0 {
		return 0
	}
	cost := p.cm.Cost(i)
	n := p.bucket.FitCount(cost, len(in))
	if n == 0 {
		return 0
	}
	p.bucket.ConsumeN(cost, n)
	p.proxies[i].NoteProcessedN(n)
	p.batchOps[i].ProcessBatch(in[:n], out)
	return n
}

// appendDrain adds one record to stage i's drain buffer, lazily drawing
// the buffer from the shared pool on the first drain of the epoch.
func (p *Pipeline) appendDrain(i int, rec telemetry.Record) {
	if p.drains[i] == nil {
		p.drains[i] = telemetry.GetBatch()
	}
	p.drains[i] = append(p.drains[i], rec)
}

// runEpochRecord is the legacy record-at-a-time execution loop: each
// record traverses the local chain depth-first through per-record
// routing, budget charges and emit closures. Kept as the semantic
// reference for the batch path and for A/B benchmarks.
func (p *Pipeline) runEpochRecord(input telemetry.Batch) {
	// Carryover: process pending records queued in earlier epochs (they
	// were already committed to local processing).
	for i := range p.queues {
		pending := p.queues[i]
		p.queues[i] = nil
		for k, rec := range pending {
			if !p.processAt(i, rec) {
				// Budget exhausted: requeue this record and the rest.
				p.queues[i] = append(p.queues[i], pending[k:]...)
				break
			}
		}
	}

	// New arrivals.
	for _, rec := range input {
		if rec.Time > p.maxEventSeen {
			p.maxEventSeen = rec.Time
		}
		p.routeAndFeed(0, rec)
	}
}

// finishEpoch advances the watermark, flushes closed windows and builds
// the epoch's result from the per-proxy stats and drain buffers. Shared
// by both execution paths.
func (p *Pipeline) finishEpoch() EpochResult {
	// Watermark: the smallest event time still unprocessed locally, or
	// the max seen if no backlog.
	wm := p.maxEventSeen
	for _, q := range p.queues {
		if len(q) > 0 && q[0].Time-1 < wm {
			wm = q[0].Time - 1
		}
	}
	if wm > p.watermark {
		p.watermark = wm
	}

	// Flush closed windows in stateful operators (within the boundary).
	// Flush volumes are small (aggregate rows per closed window), so both
	// paths share the record-at-a-time cascade.
	for i := 0; i < p.opts.Boundary; i++ {
		if !p.ops[i].Stateful() {
			continue
		}
		i := i
		p.ops[i].Flush(p.watermark, func(out telemetry.Record) {
			p.emitDownstream(i, out)
		})
	}

	res := EpochResult{
		Stats:       make([]ProxyStats, len(p.proxies)),
		Drains:      p.drains,
		Results:     p.results,
		ResultStage: p.resultStage(),
		Watermark:   p.watermark,
	}
	if capacity := p.bucket.Capacity(); capacity > 0 {
		res.BudgetUsedFrac = p.bucket.Used() / capacity
		res.SpareBudgetFrac = p.bucket.SpareFraction()
	}
	spare := res.SpareBudgetFrac
	for i, px := range p.proxies {
		res.Stats[i] = px.EndEpoch(len(p.queues[i]), spare, p.opts.DrainedThres, p.opts.IdleThres)
	}
	p.epochSeq++
	if len(p.prevStates) != len(res.Stats) {
		p.prevStates = make([]ProxyState, len(res.Stats))
	}
	for i := range res.Stats {
		if st := res.Stats[i].State; st != p.prevStates[i] {
			obs.Emit(obs.Decision{
				Kind:        "proxy_state",
				Epoch:       p.epochSeq,
				Stage:       i,
				Cause:       "epoch_stats",
				BeforeState: p.prevStates[i].String(),
				AfterState:  st.String(),
			})
			p.prevStates[i] = st
		}
	}
	for _, d := range p.drains {
		res.DrainedBytes += d.TotalBytes()
	}
	res.ResultBytes = p.results.TotalBytes()
	return res
}

func (p *Pipeline) resultStage() int {
	last := p.opts.Boundary - 1
	if last >= 0 && last < len(p.ops) && p.ops[last].Stateful() {
		return last
	}
	return p.opts.Boundary
}

// routeAndFeed lets proxy i decide a record's fate and processes it
// depth-first through the local chain when forwarded.
func (p *Pipeline) routeAndFeed(i int, rec telemetry.Record) {
	if i >= p.opts.Boundary || i >= len(p.ops) {
		// Past the local boundary: everything continues on the SP.
		p.emitPast(i, rec)
		return
	}
	// Bounded queue: overflow is drained losslessly.
	if len(p.queues[i]) >= p.opts.MaxQueuePerStage {
		p.forceDrain(i, rec)
		return
	}
	if !p.proxies[i].Route(rec) {
		p.appendDrain(i, rec)
		return
	}
	if !p.processAt(i, rec) {
		// Forwarded but out of budget: it waits in the stage queue.
		p.queues[i] = append(p.queues[i], rec)
	}
}

// processAt runs one committed record through operator i, feeding
// emissions downstream. It reports false when the budget is exhausted
// (the record is NOT consumed).
func (p *Pipeline) processAt(i int, rec telemetry.Record) bool {
	if !p.bucket.TryConsume(p.cm.Cost(i)) {
		return false
	}
	p.proxies[i].NoteProcessed()
	p.ops[i].Process(rec, func(out telemetry.Record) {
		p.emitDownstream(i, out)
	})
	return true
}

// emitDownstream forwards operator i's output to stage i+1 (or results).
func (p *Pipeline) emitDownstream(i int, rec telemetry.Record) {
	if i+1 >= p.opts.Boundary {
		p.results = append(p.results, rec)
		return
	}
	p.routeAndFeed(i+1, rec)
}

// emitPast handles a record that crossed the boundary without local
// processing: it drains at the boundary proxy position.
func (p *Pipeline) emitPast(i int, rec telemetry.Record) {
	stage := i
	if stage >= len(p.ops) {
		p.results = append(p.results, rec)
		return
	}
	p.appendDrain(stage, rec)
}

// forceDrain drains a record that could not be queued, keeping the proxy
// accounting consistent (counted as arrived and drained) through the
// proxy's own API.
func (p *Pipeline) forceDrain(i int, rec telemetry.Record) {
	p.proxies[i].NoteForcedDrain(1)
	p.proxies[i].NoteDrainedBytes(int64(rec.WireSize))
	p.appendDrain(i, rec)
}

// DrainState asks every stateful local operator to hand its partial state
// downstream immediately (checkpoint support, §IV-E). The emitted rows
// are returned tagged with the operator index they must merge into on the
// SP.
func (p *Pipeline) DrainState() map[int]telemetry.Batch {
	out := make(map[int]telemetry.Batch)
	for i := 0; i < p.opts.Boundary; i++ {
		d, ok := p.ops[i].(operator.StatefulDrainer)
		if !ok {
			continue
		}
		var rows telemetry.Batch
		d.Drain(func(r telemetry.Record) { rows = append(rows, r) })
		if len(rows) > 0 {
			out[i] = rows
		}
	}
	return out
}

// Watermark returns the pipeline's current low watermark.
func (p *Pipeline) Watermark() int64 { return p.watermark }

// ObserveTime advances event-time progress without records (an idle
// source's heartbeat), so windows can close during quiet periods.
func (p *Pipeline) ObserveTime(t int64) {
	if t > p.maxEventSeen {
		p.maxEventSeen = t
	}
}

// DemandFraction estimates the fraction of one core the pipeline needs to
// process everything locally at recPerSec input (diagnostics).
func (p *Pipeline) DemandFraction(recPerSec float64) float64 {
	w := 1.0
	demand := 0.0
	for i, op := range p.query.Ops {
		demand += recPerSec * w * p.cm.Cost(i)
		w *= op.RelayBytes
	}
	return demand / 1e6
}
