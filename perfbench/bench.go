package main

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"jarvis/internal/obs"
	"jarvis/internal/transport"
)

const (
	// setupReps is how many times a run sets the stack up; setup_s is
	// the median. The last set-up is the one the run measures.
	setupReps = 15
	// window is the closed loop's bound on unacked epochs per agent,
	// well under transport.DefaultMaxPending so nothing is evicted.
	window = 4
	// A run alternates closed-loop and open-loop chunks, one pair per
	// secondsPerRound of --seconds and at most maxPhaseRounds pairs;
	// closedShare and openShare split --seconds between the phases.
	secondsPerRound = 5
	maxPhaseRounds  = 5
	closedShare     = 0.5
	openShare       = 0.5
	// Traced runs add overhead rounds, one per secondsPerOverheadRound
	// of --seconds, between minOverheadRounds and maxOverheadRounds: each
	// round runs one closed-loop chunk of chunkEpochs per agent and
	// configuration, in rotating order.
	secondsPerOverheadRound = 4
	minOverheadRounds       = 2
	maxOverheadRounds       = 6
	chunkEpochs             = 2 * windowEpochs
	// warmupEpochs per agent run untimed before the phases, so the
	// runtime's first load-factor decisions and first-use allocations
	// stay out of the measurement.
	warmupEpochs = 2 * windowEpochs
	// windowEpochs is the queries' 10 s tumbling window in epochs. One
	// epoch in each window flushes it and costs far more than the rest,
	// so every chunk runs a whole number of windows.
	windowEpochs = 10
)

type config struct {
	workload *workloadSpec
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	// refSeed is the seed of the reference the result digest is checked
	// against; it equals seed except in the gate's own test.
	refSeed uint64
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is everything one run measured.
type outcome struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	correct   bool
	digest    string
	refDigest string
	spans     []span
}

func (o *outcome) set(name, unit string, v float64) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// counters holds process-wide counters: a snapshot at a chunk edge, or
// growth summed over chunks (the CPU times are only differenced).
type counters struct {
	procCPU   cpuSplit
	digestCPU time.Duration
	wireBytes int64
	payload   int64
	busyNs    int64
	waitNs    int64
	stages    map[string]float64
	gostats   goStats
}

func snapshot(s *stack) (counters, error) {
	stages, err := stageTotals()
	if err != nil {
		return counters{}, err
	}
	return counters{
		procCPU:   rusageCPU(rusageSelf),
		digestCPU: s.sp.digestCPUTotal(),
		wireBytes: s.ln.bytes.Load(),
		payload:   s.rc.BytesIn(),
		busyNs:    s.ln.busyNs.Load(),
		waitNs:    s.ln.waitNs.Load(),
		stages:    stages,
		gostats:   readGoStats(),
	}, nil
}

// addDelta adds the counters' growth from c0 to c1 to c.
func (c *counters) addDelta(c0, c1 counters) {
	c.wireBytes += c1.wireBytes - c0.wireBytes
	c.payload += c1.payload - c0.payload
	c.busyNs += c1.busyNs - c0.busyNs
	c.waitNs += c1.waitNs - c0.waitNs
	if c.stages == nil {
		c.stages = map[string]float64{}
	}
	for k, v := range c1.stages {
		c.stages[k] += v - c0.stages[k]
	}
	c.gostats.allocBytes += c1.gostats.allocBytes - c0.gostats.allocBytes
	c.gostats.gcPauseSec += c1.gostats.gcPauseSec - c0.gostats.gcPauseSec
}

// eachAgent runs f on every agent concurrently and returns their errors
// joined.
func eachAgent(s *stack, f func(a *agent) error) error {
	errs := make([]error, len(s.agents))
	var wg sync.WaitGroup
	for i, a := range s.agents {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(a)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// closedPhase runs n epochs per agent in closed loop and returns the
// wall time until the last ack.
func closedPhase(s *stack, n int) (time.Duration, error) {
	start := time.Now()
	err := eachAgent(s, func(a *agent) error { return a.closedLoop(n, window) })
	return time.Since(start), err
}

// setupStack sets the stack up setupReps times, tearing all but the last
// down, and returns the last with every set-up's duration in seconds.
func setupStack(cfg config, origin time.Time) (*stack, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		dir := filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d-%d", cfg.workload.name, os.Getpid(), i))
		start := time.Now()
		s, err := newStack(cfg.workload, cfg.seed, dir, origin)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			_ = os.RemoveAll(dir)
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if len(setups) == setupReps {
			return s, setups, nil
		}
		s.close()
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
}

// roundsFor scales a round count with --seconds within [lo, hi].
func roundsFor(seconds, perRound float64, lo, hi int) int {
	return min(hi, max(lo, int(math.Round(seconds/perRound))))
}

// epochsPerRound sizes one chunk of a phase, per agent, in whole windows.
func epochsPerRound(seconds, share, rate float64, rounds int) int {
	windows := math.Round(seconds * share * rate / numAgents / float64(rounds) / windowEpochs)
	return windowEpochs * max(1, int(windows))
}

// recIndex returns each agent's next epoch-record index.
func recIndex(s *stack) []int {
	from := make([]int, len(s.agents))
	for i, a := range s.agents {
		from[i] = len(a.recs)
	}
	return from
}

// closedStats sums the closed-loop chunks: throughput, and the per-epoch
// CPU and byte costs. Costs come from the closed loop only; in the open
// loop the process also spends CPU idling between epochs.
type closedStats struct {
	epochs                               int
	wall, genCPU, runCPU, shipCPU, spCPU time.Duration
	// wallRef, agentRef and spRef are the wall time and the agent and
	// SP CPU in reference milliseconds (see speedScale).
	wallRef, agentRef, spRef float64
	sum                      counters
}

func (c *closedStats) measure(s *stack, n int) error {
	from := recIndex(s)
	c0, err := snapshot(s)
	if err != nil {
		return err
	}
	wall, err := closedPhase(s, n)
	if err != nil {
		return err
	}
	c1, err := snapshot(s)
	if err != nil {
		return err
	}
	c.wall += wall
	c.sum.addDelta(c0, c1)
	var gen, agent time.Duration
	var agentThreads cpuSplit
	epochs := 0
	for i, a := range s.agents {
		agentThreads.user += a.loopCPU.user
		agentThreads.sys += a.loopCPU.sys
		for _, r := range a.recs[from[i]:] {
			gen += r.cpuGen
			agent += r.cpuRun + r.cpuShip
			c.runCPU += r.cpuRun
			c.shipCPU += r.cpuShip
			epochs++
		}
	}
	// SP CPU is what the process spent beyond the agent threads (their
	// timed calls and their waits for acks) and the harness's own result
	// digest: receiver, engine, checkpoint, standby, Go runtime. Only its
	// user time follows the box's speed; its kernel time (socket and file
	// calls) does not, and is taken as measured.
	sp := c1.procCPU.sub(c0.procCPU).sub(agentThreads)
	sp.user -= c1.digestCPU - c0.digestCPU
	scale := speedScale(s.wl, gen, epochs)
	c.epochs += epochs
	c.genCPU += gen
	c.spCPU += sp.total()
	c.wallRef += ms(wall) * scale
	c.agentRef += ms(agent) * scale
	c.spRef += ms(sp.user)*scale + ms(sp.sys)
	return nil
}

// speedScale converts the times of a chunk into reference milliseconds.
// On a shared host a thread's speed drifts by up to 1.6× over seconds to
// minutes, as other tenants load the machine, and the CPU and wall times
// of this CPU-bound run drift with it. The generator gauges the drift:
// its work per epoch is set by the workload and seed, not by the code
// under test, and it runs on the agent threads between the timed calls.
// A chunk's times are scaled by the generator's reference CPU cost over
// its measured cost in that chunk; on a box as fast as the reference,
// scaled and raw figures agree.
func speedScale(wl *workloadSpec, gen time.Duration, epochs int) float64 {
	return wl.genRefMs * float64(epochs) / ms(gen)
}

func (c *closedStats) report(o *outcome) {
	n := float64(c.epochs)
	d := c.sum
	o.set("epochs_per_s", "epochs/s", n/(c.wallRef/1e3))
	o.set("agent_cpu_ms_per_epoch", "ms", c.agentRef/n)
	o.set("sp_cpu_ms_per_epoch", "ms", c.spRef/n)
	o.set("bench.raw_epochs_per_s", "epochs/s", n/c.wall.Seconds())
	o.set("bench.raw_agent_cpu_ms", "ms", ms(c.runCPU+c.shipCPU)/n)
	o.set("bench.raw_sp_cpu_ms", "ms", ms(c.spCPU)/n)
	o.set("wire_bytes_per_epoch", "bytes", float64(d.wireBytes)/n)
	o.set("workload.gen_cpu_ms", "ms", ms(c.genCPU)/n)
	o.set("core.run_epoch_cpu_ms", "ms", ms(c.runCPU)/n)
	o.set("transport.ship_cpu_ms", "ms", ms(c.shipCPU)/n)
	o.set("transport.payload_bytes_per_epoch", "bytes", float64(d.payload)/n)
	o.set("transport.sp_busy_ms", "ms", float64(d.busyNs)/1e6/n)
	o.set("transport.sp_read_wait_ms", "ms", float64(d.waitNs)/1e6/n)
	for _, st := range []string{"encode", "decode", "ingest", "snapshot", "replicate"} {
		o.set("obs.stage_"+st+"_ms", "ms", d.stages[st]*1e3/n)
	}
	o.set("go.gc_pause_ms_per_epoch", "ms", d.gostats.gcPauseSec*1e3/n)
	o.set("go.alloc_bytes_per_epoch", "bytes", d.gostats.allocBytes/n)
}

// openStats pools the open-loop chunks' per-epoch samples. latRef holds
// the latencies in reference milliseconds, scaled by their chunk's
// speedScale; the other samples are raw.
type openStats struct {
	lat, latRef, late, gen, run, ship, ackWait, advance []float64
	inflightMax                                         uint64
}

func (p *openStats) measure(s *stack, n int) error {
	period := int64(float64(time.Second) * numAgents / s.wl.openRate)
	from := recIndex(s)
	advFrom := len(s.sp.advanceSpans())
	t0 := s.since() + int64(10*time.Millisecond)
	inflight := make([]uint64, len(s.agents))
	err := eachAgent(s, func(a *agent) error {
		m, err := a.openLoop(n, t0, period)
		inflight[a.id-1] = m
		return err
	})
	if err != nil {
		return err
	}
	var gen time.Duration
	epochs := 0
	for i, a := range s.agents {
		for _, r := range a.recs[from[i]:] {
			gen += r.cpuGen
			epochs++
		}
	}
	scale := speedScale(s.wl, gen, epochs)
	for i, a := range s.agents {
		p.inflightMax = max(p.inflightMax, inflight[i])
		for k, r := range a.recs[from[i]:] {
			ackAt := a.ackTime(uint64(from[i] + k))
			p.lat = append(p.lat, float64(ackAt-r.due)/1e6)
			p.latRef = append(p.latRef, float64(ackAt-r.due)/1e6*scale)
			p.late = append(p.late, float64(r.genStart-r.due)/1e6)
			p.gen = append(p.gen, float64(r.genEnd-r.genStart)/1e6)
			p.run = append(p.run, float64(r.runEnd-r.genEnd)/1e6)
			p.ship = append(p.ship, float64(r.shipEnd-r.runEnd)/1e6)
			p.ackWait = append(p.ackWait, float64(ackAt-r.shipEnd)/1e6)
		}
	}
	for _, sp := range s.sp.advanceSpans()[advFrom:] {
		p.advance = append(p.advance, sp.ms())
	}
	return nil
}

func (p *openStats) report(o *outcome) {
	o.set("epoch_latency_p50_ms", "ms", quantile(p.latRef, 0.5))
	o.set("epoch_latency_p99_ms", "ms", quantile(p.latRef, 0.99))
	o.set("bench.raw_epoch_latency_p50_ms", "ms", quantile(p.lat, 0.5))
	o.set("workload.gen_ms_p50", "ms", quantile(p.gen, 0.5))
	o.set("core.run_epoch_ms_p50", "ms", quantile(p.run, 0.5))
	o.set("core.run_epoch_ms_p99", "ms", quantile(p.run, 0.99))
	o.set("transport.ship_ms_p50", "ms", quantile(p.ship, 0.5))
	o.set("transport.ack_wait_ms_p50", "ms", quantile(p.ackWait, 0.5))
	o.set("transport.ack_wait_ms_p99", "ms", quantile(p.ackWait, 0.99))
	o.set("transport.inflight_max", "epochs", float64(p.inflightMax))
	o.set("bench.gen_late_ms_p50", "ms", quantile(p.late, 0.5))
	o.set("bench.gen_late_ms_p99", "ms", quantile(p.late, 0.99))
	o.set("checkpoint.advance_ms_p50", "ms", quantile(p.advance, 0.5))
	o.set("checkpoint.advance_ms_p99", "ms", quantile(p.advance, 0.99))
}

var errNoRows = errors.New("the run emitted no result rows")

// run executes one benchmark run: set-up, rounds of a closed-loop chunk
// followed by an open-loop chunk (plus overhead rounds when traced), the
// final flush, the correctness gate and the metrics.
func run(cfg config) (*outcome, error) {
	wl := cfg.workload
	origin := time.Now()
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	s, setups, err := setupStack(cfg, origin)
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(s.dir) }()
	closed := false
	defer func() {
		if !closed {
			s.close()
		}
	}()

	o := &outcome{metrics: map[string]metric{}}
	o.set("setup_s", "s", quantile(setups, 0.5))
	for _, a := range s.agents {
		a.tracing = cfg.trace
	}
	s.ln.setTiming(cfg.trace)

	if _, err := closedPhase(s, warmupEpochs); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	// Alternating the phases in rounds spreads each over the whole run,
	// so a transient slowdown of the box lands in few chunks.
	rounds := roundsFor(cfg.seconds, secondsPerRound, 1, maxPhaseRounds)
	nClosed := epochsPerRound(cfg.seconds, closedShare, wl.closedRate, rounds)
	nOpen := epochsPerRound(cfg.seconds, openShare, wl.openRate, rounds)
	var (
		cl closedStats
		op openStats
	)
	phaseStart := time.Now()
	for r := 0; r < rounds; r++ {
		if err := cl.measure(s, nClosed); err != nil {
			return nil, fmt.Errorf("closed loop: %w", err)
		}
		if err := op.measure(s, nOpen); err != nil {
			return nil, fmt.Errorf("open loop: %w", err)
		}
	}
	cl.report(o)
	op.report(o)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	o.set("peak_rss_mb", "MiB", rss)

	if cfg.trace {
		n := roundsFor(cfg.seconds, secondsPerOverheadRound, minOverheadRounds, maxOverheadRounds)
		if err := measureOverheads(s, o, n); err != nil {
			return nil, err
		}
	}

	// Final flush: one last Advance emits the rows of windows the last
	// epochs closed, and a forced snapshot acks any tail the cadence has
	// not covered yet.
	s.sp.halt()
	runtime.LockOSThread()
	s.sp.advanceOnce()
	runtime.UnlockOSThread()
	if s.rm != nil {
		if err := s.rm.Snapshot(); err != nil {
			return nil, fmt.Errorf("final snapshot: %w", err)
		}
	}
	for _, a := range s.agents {
		// Epochs still unacked when this gives up count as failed below.
		_ = a.waitInflightBelow(1)
	}
	if s.sp.err != nil {
		return nil, fmt.Errorf("advance: %w", s.sp.err)
	}

	// Failure accounting.
	seqs := make([]uint64, len(s.agents))
	lfChanges := 0
	for i, a := range s.agents {
		seqs[i] = a.ship.Seq()
		o.attempted += int64(seqs[i])
		o.failed += int64(seqs[i]-a.ship.Acked()) + a.ship.Dropped()
		// The first connect counts as one; any further is a reconnect.
		o.failed += a.ship.Counters().Get(transport.CtrReconnects) - 1
		lfChanges += a.lfDiffs
	}
	o.set("core.load_factor_changes", "count", float64(lfChanges))
	o.set("checkpoint.advance_calls", "count", float64(len(s.sp.advanceSpans())))
	o.set("checkpoint.result_rows", "rows", float64(s.sp.rows))
	o.set("ha.repl_lag_max", "epochs", float64(s.sp.lagMax))
	store := 0.0
	if s.rm != nil {
		n, err := dirBytes(filepath.Join(s.dir, "primary"))
		if err != nil {
			return nil, err
		}
		store = float64(n)
	}
	o.set("checkpoint.store_bytes", "bytes", store)
	o.digest = hex.EncodeToString(s.sp.hash.Sum(nil))
	if cfg.trace {
		o.spans = collectSpans(s)
	}
	rows := s.sp.rows
	s.close()
	closed = true

	// Correctness gate: the same seeded epochs, processed in-process
	// without the transport, must give byte-identical result rows.
	refStart := time.Now()
	ref, refRows, err := referenceDigest(wl, cfg.refSeed, seqs)
	fmt.Fprintf(os.Stderr, "perfbench: set-up %.2fs, phases %.2fs, reference %.2fs\n",
		phaseStart.Sub(origin).Seconds(), refStart.Sub(phaseStart).Seconds(), time.Since(refStart).Seconds())
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	o.refDigest = ref
	o.correct = o.failed == 0 && rows > 0 && rows == refRows && ref == o.digest
	if rows == 0 {
		return o, errNoRows
	}
	return o, nil
}

// measureOverheads measures, in closed-loop chunks run in rotating order,
// the cost of the harness's own tracing (traced vs untraced) and of the
// program's obs timing (obs.SetEnabled on vs off).
func measureOverheads(s *stack, o *outcome, rounds int) error {
	type setting struct{ trace, obsOn bool }
	configs := []setting{{true, true}, {false, true}, {false, false}}
	n := chunkEpochs
	var traceOver, obsOver []float64
	defer obs.SetEnabled(true)
	for r := 0; r < rounds; r++ {
		rate := make([]float64, len(configs))
		for k := range configs {
			c := (r + k) % len(configs)
			for _, a := range s.agents {
				a.tracing = configs[c].trace
			}
			s.ln.setTiming(configs[c].trace)
			obs.SetEnabled(configs[c].obsOn)
			wall, err := closedPhase(s, n)
			if err != nil {
				return fmt.Errorf("overhead round %d: %w", r, err)
			}
			rate[c] = float64(n*numAgents) / wall.Seconds()
		}
		traceOver = append(traceOver, (rate[1]/rate[0]-1)*100)
		obsOver = append(obsOver, (rate[2]/rate[1]-1)*100)
	}
	for _, a := range s.agents {
		a.tracing = true
	}
	s.ln.setTiming(true)
	tMed, tIQR := medianIQR(traceOver)
	oMed, oIQR := medianIQR(obsOver)
	o.set("bench.tracing_overhead_pct", "%", tMed)
	o.set("bench.tracing_overhead_iqr_pct", "%", tIQR)
	o.set("obs.timing_overhead_pct", "%", oMed)
	o.set("obs.timing_overhead_iqr_pct", "%", oIQR)
	above := 0.0
	if math.Abs(oMed) > oIQR {
		above = 1
	}
	o.set("obs.timing_overhead_above_noise", "bool", above)
	return nil
}

// medianIQR returns the median and the interquartile range of xs
// (at least two values), with quartiles as Python's
// statistics.quantiles(xs, n=4) computes them.
func medianIQR(xs []float64) (median, iqr float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(2), q(3) - q(1)
}

// collectSpans turns the harness's per-epoch records into spans: gen,
// run_epoch, ship and ack_wait per agent epoch, plus the SP's advance
// calls.
func collectSpans(s *stack) []span {
	var out []span
	for _, a := range s.agents {
		for seq := 1; seq < len(a.recs); seq++ {
			r := a.recs[seq]
			id, sq := a.id, uint64(seq)
			out = append(out,
				span{"workload.gen", id, sq, r.genStart, r.genEnd},
				span{"core.run_epoch", id, sq, r.genEnd, r.runEnd},
				span{"transport.ship", id, sq, r.runEnd, r.shipEnd},
				span{"transport.ack_wait", id, sq, r.shipEnd, a.ackTime(sq)},
			)
		}
	}
	out = append(out, s.sp.advanceSpans()...)
	sort.Slice(out, func(i, j int) bool { return out[i].StartNs < out[j].StartNs })
	return out
}
