// Command perfbench measures Jarvis on the path production runs, in one
// process over loopback TCP: two adaptive agents (columnar generator →
// core.Source.RunEpochColumnar → transport.DurableShipper with flate)
// ship to a real transport.Server/Receiver; on the durable workload the
// SP also runs checkpoint.SPRecovery (a snapshot every applied epoch,
// result log) and replicates to a warm ha.Standby before it acks.
//
// Usage (from the repository root; run.sh builds and then runs this):
//
//	bash perfbench/run.sh --workload s2s-drain --seed 1 --seconds 22 --trace 0
//
// Workloads:
//
//   - s2s-drain: S2SProbe on Pingmesh at budget 0.1. Agents process
//     almost nothing and ship raw records, so encode+flate, TCP, decode
//     and SP ingest carry each epoch.
//   - s2s-local: the same query and inputs at budget 1.0. Agents run the
//     whole source-side pipeline and ship small partials, so the
//     operator kernels and the core runtime carry each epoch. It is the
//     bypass pair of s2s-drain, and its results are identical.
//   - spans-durable: TraceSpanAgg (2048 keys) at budget 0.6 with
//     checkpointing and a warm standby on the ack path.
//
// A run sets the stack up fifteen times (setup_s is the median), warms up
// for two windows, then alternates closed-loop chunks (each agent keeps at
// most four epochs unacked; throughput, CPU and bytes) with open-loop
// chunks (each agent's epoch k is due at t0 + k·period at a fixed
// per-workload rate; latency from the due time to the agent observing the
// ack). Epoch counts follow from --seconds and fixed per-workload rates,
// so a run does the same work on every commit.
//
// Throughput, latency and CPU costs are reported in reference
// milliseconds: each chunk's times are scaled by how fast the generator,
// whose work is fixed by the workload, ran in that chunk (speedScale), so
// that the drifting speed of a shared host cancels out. The raw figures
// are per-layer metrics.
//
// Afterwards the run flushes the SP and compares the SHA-256 of the result
// rows with an in-process reference over the same seeded epochs; a
// mismatch or an unacknowledged epoch fails the run (exit code 1).
//
// With --trace 0 the last output line is a JSON object with the
// end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
// traced run, whose spans are written to a JSON-lines file. A traced run
// also measures the overhead of its own tracing and of the program's obs
// timing in interleaved closed-loop chunks. See README.md for the metric
// definitions.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// endToEnd lists the metrics printed with --trace 0; every other metric
// is per-layer and printed with --trace 1. The latency p99 is per-layer:
// on a 2-core VM its run-to-run spread exceeds any usable bound.
var endToEnd = []string{
	"epochs_per_s", "epoch_latency_p50_ms",
	"agent_cpu_ms_per_epoch", "sp_cpu_ms_per_epoch", "wire_bytes_per_epoch",
	"peak_rss_mb", "setup_s",
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: s2s-drain, s2s-local or spans-durable")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 22, "approximate measured time of the run")
		trace   = flag.Int("trace", 0, "1 for the traced per-layer run")
		workdir = flag.String("workdir", ".bench_build/work", "directory for checkpoints and span files")
		root    = flag.String("root", ".", "repository root, fingerprinted into the result")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace, *workdir, *root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed uint64, seconds float64, trace int, workdir, root string) error {
	wl, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("want --seconds > 0 and --trace 0 or 1")
	}
	fp, err := fingerprint(root, wl.name, seed)
	if err != nil {
		return err
	}
	fpJSON, err := json.Marshal(fp)
	if err != nil {
		return err
	}
	fmt.Printf("fingerprint %s\n", fpJSON)

	cfg := config{workload: wl, seed: seed, refSeed: seed, seconds: seconds, trace: trace == 1, workdir: workdir}
	o, err := run(cfg)
	if err != nil {
		return err
	}
	if cfg.trace {
		path := filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, seed))
		if err := saveSpans(path, fp, o.spans); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(o.spans), path)
	}
	res := result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for k, m := range o.metrics {
		isE2E := false
		for _, e := range endToEnd {
			isE2E = isE2E || e == k
		}
		if isE2E != cfg.trace {
			res.Metrics[k] = m
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-36s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("result digest %s (reference %s), %d of %d epochs failed\n", o.digest, o.refDigest, o.failed, o.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !o.correct {
		return fmt.Errorf("incorrect run: digest %s, reference %s, %d failed epochs", o.digest, o.refDigest, o.failed)
	}
	return nil
}

// saveSpans writes the fingerprint header and then one span per line.
func saveSpans(path string, header any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fingerprint identifies the box, toolchain and code a result came from.
func fingerprint(root, workload string, seed uint64) (map[string]any, error) {
	src, err := sourceDigest(root)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"cpu":           cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        gitCommit(root),
		"source_sha256": src,
		"workload":      workload,
		"seed":          seed,
	}, nil
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the repository's .git directory, or returns
// "unknown" when the tree is not a git checkout.
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under root (skipping
// dot-directories such as the build directory), so a result names the
// code it measured even where the tree is not a git checkout.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("fingerprint sources: %w", err)
	}
	h := sha256.New()
	for _, p := range files {
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return "", err
		}
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
