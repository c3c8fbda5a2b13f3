package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"jarvis/internal/checkpoint"
	"jarvis/internal/core"
	"jarvis/internal/ha"
	"jarvis/internal/obs"
	"jarvis/internal/plan"
	"jarvis/internal/telemetry"
	"jarvis/internal/transport"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

// epochMicros is the event time one epoch covers: the paper's 1 s epoch.
const epochMicros = 1_000_000

// numAgents is fixed at two: two agent connections keep the load within
// a 2-core box without oversubscribing it.
const numAgents = 2

// generator is the columnar face of the workload generators.
type generator interface {
	NextWindowCols(durMicros int64, cb *wire.ColumnarBatch)
}

// workloadSpec is one benchmark workload: a query, the agents' budget,
// and whether the SP runs the durable (checkpoint + standby) ack path.
type workloadSpec struct {
	name     string
	query    func() *plan.Query
	rateMbps float64
	budget   float64
	durable  bool
	newGen   func(seed uint64, agent int) generator
	// closedRate and openRate (epochs/s, both agents) size the phases:
	// closedRate is about the closed-loop throughput on a 2-core x86
	// box, openRate the open-loop schedule. openRate is about 40% of it,
	// so the open loop stays clear of saturation when the box runs slow.
	closedRate float64
	openRate   float64
	// genRefMs is the generator's reference CPU cost per epoch, about
	// its cost on a 2-core Xeon VM: the speed gauge of speedScale.
	genRefMs float64
}

var workloads = []*workloadSpec{
	{
		name: "s2s-drain", query: plan.S2SProbe, rateMbps: workload.PingmeshMbps10x,
		budget: 0.1, newGen: pingGen, closedRate: 72, openRate: 30, genRefMs: 3,
	},
	{
		name: "s2s-local", query: plan.S2SProbe, rateMbps: workload.PingmeshMbps10x,
		budget: 1.0, newGen: pingGen, closedRate: 130, openRate: 50, genRefMs: 3,
	},
	{
		name: "spans-durable", query: plan.TraceSpanAgg, rateMbps: workload.SpanMbps10x,
		budget: 0.6, durable: true, newGen: spanGen, closedRate: 125, openRate: 50, genRefMs: 8,
	},
}

func workloadByName(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// agentSeed derives agent i's generator seed from the run seed
// (splitmix64 finalizer, so neighbouring seeds give unrelated streams).
func agentSeed(seed uint64, agent int) uint64 {
	z := seed + uint64(agent+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// pingGen gives each agent its own source address, so the two agents'
// (src, dst) groups are disjoint.
func pingGen(seed uint64, agent int) generator {
	cfg := workload.DefaultPingConfig(agentSeed(seed, agent))
	cfg.SrcIP = 0x0A000001 + uint32(agent)
	return workload.NewPingGen(cfg)
}

// spanGen draws each agent's (service, operation) keys from its own half
// of the key space. Disjoint groups make the SP's floating-point
// duration sums independent of how the two connections interleave, so
// the result digest is exact.
func spanGen(seed uint64, agent int) generator {
	s := agentSeed(seed, agent)
	cfg := workload.DefaultSpanConfig(s)
	half := cfg.Services * cfg.OpsPerService / numAgents
	z := workload.NewZipf(cfg.ZipfS, half)
	rng := rand.New(rand.NewPCG(s, 0x51ed2701))
	cfg.RankPick = func(int) int { return agent*half + z.Rank(rng.Float64()) }
	return workload.NewSpanGen(cfg)
}

// stack is one set-up instance of the production path: an SP (receiver
// behind a TCP server, plus recovery and a warm standby on the durable
// workload) and two adaptive agents connected to it over loopback.
type stack struct {
	wl     *workloadSpec
	dir    string
	origin time.Time

	rc   *transport.Receiver
	ln   *countingListener
	srv  *transport.Server
	rm   *checkpoint.SPRecovery
	rlog *checkpoint.ResultLog
	pub  *ha.Publisher
	st   *ha.Standby

	cancel context.CancelFunc
	wg     sync.WaitGroup
	agents []*agent
	sp     *spDriver
}

// newStack sets the production path up and generates each agent's first
// epoch; the time this takes is the benchmark's set-up time.
func newStack(wl *workloadSpec, seed uint64, dir string, origin time.Time) (*stack, error) {
	s := &stack{wl: wl, dir: dir, origin: origin}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	if err := s.start(ctx, seed); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) start(ctx context.Context, seed uint64) error {
	q := s.wl.query()
	proc, err := core.NewProcessor(q)
	if err != nil {
		return err
	}
	s.rc = transport.NewReceiver(proc.Engine())
	// As in jarvis-sp: the flight recorder is always armed.
	fl := transport.NewFlightRecorder(s.rc.Counters())
	s.rc.SetFlightRecorder(fl)
	obs.Decisions().SetNotify(fl.OnDecision)

	gate := ha.NewGate(ha.RolePrimary, 1, nil)
	if s.wl.durable {
		if err := s.startDurable(ctx, proc, gate); err != nil {
			return err
		}
	}
	s.rc.SetHelloGate(gate)
	for i := 0; i < numAgents; i++ {
		s.rc.RegisterSource(uint32(i + 1))
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	s.sp = newSPDriver(s)
	s.ln = &countingListener{Listener: ln, wake: s.sp.poke, origin: s.origin}
	s.srv = transport.NewServer(s.rc)
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		_ = s.srv.Serve(ctx, s.ln)
	}()
	go func() {
		defer s.wg.Done()
		s.sp.loop()
	}()

	for i := 0; i < numAgents; i++ {
		a, err := newAgent(s, i, seed)
		if err != nil {
			return err
		}
		s.agents = append(s.agents, a)
	}
	for _, a := range s.agents {
		a.prime()
	}
	return nil
}

// startDurable adds the durable ack path: a snapshot every applied epoch,
// the exactly-once result log, and a warm standby that must confirm each
// snapshot before agents are acked.
func (s *stack) startDurable(ctx context.Context, proc *core.Processor, gate *ha.Gate) error {
	priDir := filepath.Join(s.dir, "primary")
	store, err := checkpoint.OpenStore(priDir)
	if err != nil {
		return err
	}
	logPath := filepath.Join(priDir, "results.log")
	s.rlog, err = checkpoint.OpenResultLog(logPath)
	if err != nil {
		return err
	}
	s.rm = checkpoint.NewSPRecovery(store, s.rlog, proc.Engine(), s.rc, 1)
	s.rm.SetTerm(1)
	s.pub = ha.NewPublisher(store, logPath, 1, gate.Counters())
	s.rm.SetReplicator(s.pub, 0)

	sbProc, err := core.NewProcessor(s.wl.query())
	if err != nil {
		return err
	}
	s.st, err = ha.NewStandby(sbProc, filepath.Join(s.dir, "standby"), nil)
	if err != nil {
		return err
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		_ = s.pub.Serve(ctx, rln)
	}()
	go func() {
		defer s.wg.Done()
		s.st.Run(ctx, rln.Addr().String())
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.pub.Standbys() == 0 {
		if time.Now().After(deadline) {
			return errors.New("standby never attached to the publisher")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// advance is what jarvis-sp's epoch ticker calls.
func (s *stack) advance() (telemetry.Batch, error) {
	if s.rm != nil {
		return s.rm.Advance()
	}
	return s.rc.Advance(), nil
}

// since is the time elapsed since the run origin, in nanoseconds.
func (s *stack) since() int64 { return int64(time.Since(s.origin)) }

func (s *stack) appliedTotal() uint64 {
	var t uint64
	for i := 0; i < numAgents; i++ {
		t += s.rc.AppliedSeq(uint32(i + 1))
	}
	return t
}

// close stops every goroutine the stack started and waits for them.
func (s *stack) close() {
	for _, a := range s.agents {
		_ = a.ship.Close()
	}
	if s.sp != nil {
		s.sp.halt()
	}
	if s.srv != nil {
		_ = s.srv.Close()
	}
	s.cancel()
	if s.pub != nil {
		_ = s.pub.Close()
	}
	s.wg.Wait()
	if s.rm != nil {
		_ = s.rm.Close()
	}
	if s.rlog != nil {
		_ = s.rlog.Close()
	}
	if s.st != nil {
		_ = s.st.ResultLog().Close()
	}
	obs.Decisions().SetNotify(nil)
}

// countingListener counts the bytes the SP reads from agent sockets and,
// when timing is on, splits each connection's time into time blocked in
// Read (waiting for the agent) and time between Reads (SP work).
type countingListener struct {
	net.Listener
	wake func()

	bytes   atomic.Int64
	timing  atomic.Bool
	phaseNs atomic.Int64 // intervals are clipped to start here
	busyNs  atomic.Int64
	waitNs  atomic.Int64
	origin  time.Time // read-only after construction
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &spConn{Conn: c, l: l}, nil
}

// setTiming switches busy/wait accounting on or off; when on, intervals
// are clipped to start now.
func (l *countingListener) setTiming(on bool) {
	l.phaseNs.Store(int64(time.Since(l.origin)))
	l.timing.Store(on)
}

type spConn struct {
	net.Conn
	l        *countingListener
	lastExit int64
}

func (c *spConn) Read(p []byte) (int, error) {
	// Read is re-entered only after the receiver has handled everything
	// it read before, so this is the point to look for applied epochs.
	c.l.wake()
	if !c.l.timing.Load() {
		n, err := c.Conn.Read(p)
		c.l.bytes.Add(int64(n))
		return n, err
	}
	phase := c.l.phaseNs.Load()
	enter := int64(time.Since(c.l.origin))
	if c.lastExit != 0 {
		c.l.busyNs.Add(enter - max(c.lastExit, phase))
	}
	n, err := c.Conn.Read(p)
	exit := int64(time.Since(c.l.origin))
	c.l.waitNs.Add(exit - max(enter, phase))
	c.lastExit = exit
	c.l.bytes.Add(int64(n))
	return n, err
}

// ackConn wraps an agent's connection: its Read is re-entered only after
// the shipper has processed every ack read so far, so the hook observes
// new acks without polling.
type ackConn struct {
	net.Conn
	onRead func()
}

func (c *ackConn) Read(p []byte) (int, error) {
	c.onRead()
	return c.Conn.Read(p)
}

func dialWith(onRead func()) func(addr string) (io.ReadWriteCloser, error) {
	return func(addr string) (io.ReadWriteCloser, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &ackConn{Conn: c, onRead: onRead}, nil
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
