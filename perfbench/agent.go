package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"runtime"
	"slices"
	"sync"
	"time"

	"jarvis/internal/core"
	"jarvis/internal/obs"
	"jarvis/internal/telemetry"
	"jarvis/internal/transport"
	"jarvis/internal/wire"
)

// ackTimeout bounds how long an agent waits for the SP to acknowledge
// anything before the run is declared failed.
const ackTimeout = 30 * time.Second

// epochRec is what the harness records around one epoch's calls into the
// layers. Times are nanoseconds since the run origin.
type epochRec struct {
	due                               int64 // open loop: when the epoch was due
	genStart, genEnd, runEnd, shipEnd int64
	cpuGen, cpuRun, cpuShip           time.Duration
}

// agent is one data-source agent: a generator, an adaptive core.Source
// and a DurableShipper with flate negotiated.
type agent struct {
	s    *stack
	id   uint32
	src  *core.Source
	gen  generator
	ship *transport.DurableShipper
	cb   wire.ColumnarBatch

	primed  bool      // cb holds the epoch generated during set-up
	tracing bool      // count load-factor changes
	lastLF  []float64 // previous epoch's load factors (tracing)
	lfDiffs int
	recs    []epochRec // indexed by seq; owned by the agent goroutine
	// loopCPU is the agent thread's CPU time in its last closed loop,
	// waits for acks included.
	loopCPU cpuSplit

	ackMu sync.Mutex
	acked uint64
	ackAt []int64 // indexed by seq: when the agent observed its ack
	wake  chan struct{}
}

func newAgent(s *stack, i int, seed uint64) (*agent, error) {
	id := uint32(i + 1)
	src, err := core.NewSource(s.wl.query(), core.SourceOptions{
		ID:         id,
		BudgetFrac: s.wl.budget,
		RateMbps:   s.wl.rateMbps,
		Adapt:      true,
	})
	if err != nil {
		return nil, err
	}
	a := &agent{
		s:    s,
		id:   id,
		src:  src,
		gen:  s.wl.newGen(seed, i),
		ship: transport.NewDurableShipper(id, 0),
		recs: make([]epochRec, 1),
		wake: make(chan struct{}, 1),
	}
	a.ship.SetCompression(true)
	a.ship.SetDialer(dialWith(a.observeAcks))
	if err := a.ship.Connect(s.ln.Addr().String()); err != nil {
		return nil, err
	}
	return a, nil
}

// prime generates the first epoch (part of set-up).
func (a *agent) prime() {
	a.cb.Reset()
	a.gen.NextWindowCols(epochMicros, &a.cb)
	a.primed = true
}

// observeAcks runs on the shipper's ack reader each time it is about to
// read again, i.e. after it has applied every ack read so far.
func (a *agent) observeAcks() {
	acked := a.ship.Acked()
	now := a.s.since()
	a.ackMu.Lock()
	for a.acked < acked {
		a.acked++
		for uint64(len(a.ackAt)) <= a.acked {
			a.ackAt = append(a.ackAt, 0)
		}
		a.ackAt[a.acked] = now
	}
	a.ackMu.Unlock()
	select {
	case a.wake <- struct{}{}:
	default:
	}
}

func (a *agent) ackedSeq() uint64 {
	a.ackMu.Lock()
	defer a.ackMu.Unlock()
	return a.acked
}

func (a *agent) ackTime(seq uint64) int64 {
	a.ackMu.Lock()
	defer a.ackMu.Unlock()
	return a.ackAt[seq]
}

// waitInflightBelow blocks until fewer than limit epochs are
// unacknowledged.
func (a *agent) waitInflightBelow(limit uint64) error {
	timer := time.NewTimer(ackTimeout)
	defer timer.Stop()
	for a.ship.Seq()-a.ackedSeq() >= limit {
		select {
		case <-a.wake:
		case <-timer.C:
			return fmt.Errorf("agent %d: no ack for %v (seq %d, acked %d)", a.id, ackTimeout, a.ship.Seq(), a.ackedSeq())
		}
	}
	return nil
}

// step runs one epoch the way jarvis-agent does: generate, run the
// source-side pipeline, ship. Must run on a locked OS thread.
func (a *agent) step(due int64) error {
	var r epochRec
	r.due = due
	c0 := threadCPU()
	r.genStart = a.s.since()
	genStart := obs.Now()
	var genDur time.Duration
	if a.primed {
		a.primed = false // generated during set-up
	} else {
		a.cb.Reset()
		a.gen.NextWindowCols(epochMicros, &a.cb)
	}
	if !genStart.IsZero() {
		genDur = time.Since(genStart)
		obs.ObserveDurN(obs.StageGenerate, genDur, a.id, a.ship.Seq()+1)
	}
	c1 := threadCPU()
	r.genEnd = a.s.since()
	res, err := a.src.RunEpochColumnar(&a.cb)
	if err != nil {
		return fmt.Errorf("agent %d: run epoch: %w", a.id, err)
	}
	if !genStart.IsZero() {
		res.Timing.StartMicros = genStart.UnixMicro()
		res.Timing.GenMicros = genDur.Microseconds()
	}
	c2 := threadCPU()
	r.runEnd = a.s.since()
	if err := a.ship.ShipEpoch(res); err != nil {
		return fmt.Errorf("agent %d: ship epoch: %w", a.id, err)
	}
	c3 := threadCPU()
	r.shipEnd = a.s.since()
	r.cpuGen, r.cpuRun, r.cpuShip = c1-c0, c2-c1, c3-c2
	if seq := a.ship.Seq(); seq != uint64(len(a.recs)) {
		return fmt.Errorf("agent %d: shipped seq %d, want %d", a.id, seq, len(a.recs))
	}
	a.recs = append(a.recs, r)
	if a.tracing {
		lf := a.src.LoadFactors()
		if a.lastLF != nil && !slices.Equal(lf, a.lastLF) {
			a.lfDiffs++
		}
		a.lastLF = lf
	}
	return nil
}

// closedLoop ships n epochs, each once fewer than window are unacked,
// then waits for every ack.
func (a *agent) closedLoop(n int, window uint64) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := rusageCPU(rusageThread)
	defer func() { a.loopCPU = rusageCPU(rusageThread).sub(start) }()
	for k := 0; k < n; k++ {
		if err := a.waitInflightBelow(window); err != nil {
			return err
		}
		if err := a.step(0); err != nil {
			return err
		}
	}
	return a.waitInflightBelow(1)
}

// openLoop ships n epochs on a fixed schedule: epoch k is due at
// t0 + k·period whatever the state of earlier epochs. It returns the
// largest backlog (shipped but unacked epochs) it saw.
func (a *agent) openLoop(n int, t0, period int64) (inflightMax uint64, err error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for k := 0; k < n; k++ {
		due := t0 + int64(k)*period
		if d := due - a.s.since(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if err := a.step(due); err != nil {
			return inflightMax, err
		}
		inflightMax = max(inflightMax, a.ship.Seq()-a.ackedSeq())
	}
	return inflightMax, a.waitInflightBelow(1)
}

// spDriver calls Advance whenever the set of applied epochs moves: the
// compressed-time analogue of jarvis-sp's once-per-epoch ticker. It
// hashes every emitted result row.
type spDriver struct {
	s        *stack
	wakeCh   chan struct{}
	stopCh   chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	last uint64

	hash hash.Hash // written by the loop, or by its caller once halted

	mu        sync.Mutex // guards the fields below
	digestCPU time.Duration
	rows      int64
	err       error
	advance   []span
	lagMax    int64
}

func newSPDriver(s *stack) *spDriver {
	return &spDriver{
		s:      s,
		wakeCh: make(chan struct{}, 1),
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
		hash:   sha256.New(),
	}
}

func (d *spDriver) poke() {
	select {
	case d.wakeCh <- struct{}{}:
	default:
	}
}

func (d *spDriver) loop() {
	defer close(d.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for {
		select {
		case <-d.stopCh:
			return
		case <-d.wakeCh:
		}
		if t := d.s.appliedTotal(); t != d.last {
			d.last = t
			d.advanceOnce()
		}
	}
}

// halt stops the loop and waits for it to exit.
func (d *spDriver) halt() {
	d.stopOnce.Do(func() { close(d.stopCh) })
	<-d.done
}

// advanceOnce calls Advance and digests the rows it emits. The digest is
// the harness's own work: its thread CPU is kept apart (digestCPU) so it
// is not charged to the SP. Callers other than loop must hold the OS
// thread locked.
func (d *spDriver) advanceOnce() {
	start := d.s.since()
	rows, err := d.s.advance()
	end := d.s.since()
	c0 := threadCPU()
	enc, eerr := encodeRows(rows)
	d.hash.Write(enc)
	c1 := threadCPU()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.digestCPU += c1 - c0
	d.rows += int64(len(rows))
	for _, e := range []error{err, eerr} {
		if e != nil && d.err == nil {
			d.err = e
		}
	}
	d.advance = append(d.advance, span{Name: "checkpoint.advance", Seq: uint64(len(d.advance) + 1), StartNs: start, EndNs: end})
	if d.s.pub != nil {
		d.lagMax = max(d.lagMax, d.s.pub.Lag())
	}
}

func (d *spDriver) digestCPUTotal() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.digestCPU
}

func (d *spDriver) advanceSpans() []span {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.advance)
}

// encodeRows renders result rows canonically: the wire encoding of each
// row, concatenated in emission order (windows flush in order, each
// sorted by key).
func encodeRows(rows telemetry.Batch) ([]byte, error) {
	var out []byte
	for _, r := range rows {
		var err error
		if out, err = wire.EncodeRecord(out, r); err != nil {
			return nil, fmt.Errorf("encode result row: %w", err)
		}
	}
	return out, nil
}
