package telemetry

import (
	"fmt"
	"strconv"
	"strings"
)

// LogLine is one unstructured text log record from the LogAnalytics
// workload (paper Listing 3 / Helios scenario). Raw holds the full line;
// WireSize of the containing Record equals len(Raw).
type LogLine struct {
	Timestamp int64
	Raw       string
}

// NewLogRecord wraps a log line in a stream Record sized to the text.
func NewLogRecord(ts int64, raw string) Record {
	return Record{Time: ts, WireSize: len(raw), Data: &LogLine{Timestamp: ts, Raw: raw}}
}

// JobStats is the parsed representation of a LogAnalytics line: one
// (tenant, statistic) observation. The query buckets Stat with
// width_bucket(stat, 0, 100, 10) and counts per
// (tenant, statName, bucket).
type JobStats struct {
	Timestamp int64
	Tenant    string
	StatName  string // "job running time" | "cpu util" | "memory util"
	Stat      float64
	Bucket    int
}

// The statistic names a LogAnalytics line carries. ParseJobStats returns
// these constants instead of substrings of the line, so every row shares
// one string per statistic and holds no reference to its line.
const (
	StatJobRunningTime = "job running time"
	StatCPUUtil        = "cpu util"
	StatMemoryUtil     = "memory util"
)

// canonStatName returns the constant equal to name, or name itself when
// it is none of the known statistics.
func canonStatName(name string) string {
	switch name {
	case StatJobRunningTime:
		return StatJobRunningTime
	case StatCPUUtil:
		return StatCPUUtil
	case StatMemoryUtil:
		return StatMemoryUtil
	}
	return name
}

// JobStatsWireSize approximates the serialized size of a parsed JobStats
// record: tenant + stat name strings plus numeric fields and envelope.
func (j *JobStats) JobStatsWireSize() int {
	return len(j.Tenant) + len(j.StatName) + 8 + 8 + 4 + 16
}

// ParseJobStats parses a LogAnalytics line of the form produced by
// workload.LogGen, e.g.
//
//	tenant name=alpha-07 job running time=532 cpu util=74.2 memory util=31.0
//
// The line must already be trimmed/lowercased (the query's first Map).
// It returns one JobStats per statistic present on the line.
func ParseJobStats(ts int64, line string) ([]JobStats, error) {
	fields := strings.Split(line, ",")
	var tenant string
	type kv struct {
		name string
		val  float64
	}
	var stats []kv
	for _, f := range fields {
		eq := strings.IndexByte(f, '=')
		if eq < 0 {
			continue
		}
		key := strings.TrimSpace(f[:eq])
		val := strings.TrimSpace(f[eq+1:])
		if key == "tenant name" {
			tenant = val
			continue
		}
		x, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: bad stat %q: %w", f, err)
		}
		stats = append(stats, kv{canonStatName(key), x})
	}
	if tenant == "" {
		return nil, fmt.Errorf("telemetry: line has no tenant: %q", line)
	}
	out := make([]JobStats, 0, len(stats))
	for _, s := range stats {
		out = append(out, JobStats{Timestamp: ts, Tenant: tenant, StatName: s.name, Stat: s.val})
	}
	return out, nil
}

// WidthBucket reproduces SQL width_bucket(v, lo, hi, n): values below lo
// map to bucket 0, above hi to n+1, and [lo,hi) is split into n equal
// buckets numbered 1..n. The LogAnalytics query uses (0, 100, 10).
func WidthBucket(v, lo, hi float64, n int) int {
	if n <= 0 {
		return 0
	}
	if v < lo {
		return 0
	}
	if v >= hi {
		return n + 1
	}
	return int((v-lo)/(hi-lo)*float64(n)) + 1
}
