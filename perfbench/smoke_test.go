package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks the
// program against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload at a tiny epoch count, traced, and checks
// that each declared metric is measured with its declared unit, that the
// digest gate passes, and that the agent-side spans tile the epoch
// latency.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			wl, err := workloadByName(w.Name)
			if err != nil {
				t.Fatal(err)
			}
			o, err := run(config{workload: wl, seed: 3, refSeed: 3, seconds: 1, trace: true, workdir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !o.correct || o.failed != 0 || o.attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d digest %s reference %s",
					o.correct, o.failed, o.attempted, o.digest, o.refDigest)
			}
			declared := map[string]bool{}
			for _, group := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
				for _, m := range group {
					declared[m.Name] = true
					got, ok := o.metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not measured", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
					if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("metric %s = %v", m.Name, got.Value)
					}
				}
			}
			for name := range o.metrics {
				if !declared[name] {
					t.Errorf("metric %s is measured but not declared in BENCHMARK.json", name)
				}
			}

			// Each epoch's latency is its generator lateness plus its gen,
			// run_epoch, ship and ack_wait spans. The medians add up too
			// while the open loop keeps its schedule; a saturated loop
			// (a slow build such as -race) only grows its backlog.
			v := func(name string) float64 { return o.metrics[name].Value }
			tiled := v("bench.gen_late_ms_p50") + v("workload.gen_ms_p50") + v("core.run_epoch_ms_p50") +
				v("transport.ship_ms_p50") + v("transport.ack_wait_ms_p50")
			p50 := v("bench.raw_epoch_latency_p50_ms")
			if late := v("bench.gen_late_ms_p50"); late > p50/2 {
				t.Logf("open loop saturated (lateness p50 %.2f ms of %.2f ms): tiling not checked", late, p50)
			} else if math.Abs(tiled-p50) > 0.25*p50+1 {
				t.Errorf("span medians sum to %.2f ms, epoch latency p50 is %.2f ms", tiled, p50)
			}
		})
	}
}

// TestDigestGateRejectsOtherSeed feeds the gate a reference computed from
// a different seed: the run must be marked incorrect.
func TestDigestGateRejectsOtherSeed(t *testing.T) {
	wl, err := workloadByName("s2s-local")
	if err != nil {
		t.Fatal(err)
	}
	o, err := run(config{workload: wl, seed: 3, refSeed: 4, seconds: 1, workdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if o.correct || o.digest == o.refDigest {
		t.Fatalf("gate passed against another seed's reference (digest %s)", o.digest)
	}
}

// TestBypassPairSameResults checks that s2s-drain and s2s-local, the same
// query and inputs at budgets 0.1 and 1.0, produce identical result rows:
// the budget moves work between agent and SP, never the answer.
func TestBypassPairSameResults(t *testing.T) {
	digests := map[string]string{}
	for _, name := range []string{"s2s-drain", "s2s-local"} {
		wl, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		d, rows, err := referenceDigest(wl, 5, []uint64{30, 30})
		if err != nil {
			t.Fatal(err)
		}
		if rows == 0 {
			t.Fatalf("%s: no result rows", name)
		}
		digests[name] = d
	}
	if digests["s2s-drain"] != digests["s2s-local"] {
		t.Fatalf("result digests differ: %v", digests)
	}
}
