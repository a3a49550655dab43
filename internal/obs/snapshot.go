package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Hist is a histogram's merged state.
type Hist struct {
	// Bounds are the ascending bucket upper limits; Counts has one more
	// entry than Bounds (the overflow bucket).
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
}

// Quantile estimates the q-th quantile (0..1) by nearest rank over the
// buckets: the returned value is the upper bound of the bucket holding
// the rank (Max for the overflow bucket). Zero for an empty histogram.
func (h *Hist) Quantile(q float64) int64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return h.Max
		}
	}
	return h.Max
}

// Metric is one merged metric in a snapshot.
type Metric struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Domain string `json:"domain"`
	Help   string `json:"help,omitempty"`
	// Value carries counters and gauges; Hist carries histograms.
	Value int64 `json:"value"`
	Hist  *Hist `json:"hist,omitempty"`
}

// Snapshot is a merged view of a registry, sorted by metric name.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot merges every shard: counters and histogram buckets sum,
// gauges take the maximum. Safe to call while workers are still
// writing (atomic loads), in which case it is a live partial view; a
// snapshot taken after the pool drains is the canonical aggregate.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	shards := append([]*Shard(nil), r.shards...)
	defs := make([]*def, 0, len(r.defs))
	for _, d := range r.defs {
		defs = append(defs, d)
	}
	r.mu.Unlock()
	sort.Slice(defs, func(i, j int) bool { return defs[i].name < defs[j].name })

	for _, d := range defs {
		m := Metric{Name: d.name, Kind: d.kind.String(), Domain: d.domain.String(), Help: d.help}
		switch d.kind {
		case KindCounter:
			for _, s := range shards {
				s.mu.Lock()
				c := s.counters[d.name]
				s.mu.Unlock()
				if c != nil {
					m.Value += c.v.Load()
				}
			}
		case KindGauge:
			any := false
			max := int64(math.MinInt64)
			for _, s := range shards {
				s.mu.Lock()
				g := s.gauges[d.name]
				s.mu.Unlock()
				if g != nil && g.set.Load() {
					any = true
					if v := g.v.Load(); v > max {
						max = v
					}
				}
			}
			if any {
				m.Value = max
			}
		case KindHistogram:
			hist := &Hist{
				Bounds: append([]int64(nil), d.bounds...),
				Counts: make([]int64, len(d.bounds)+1),
				Min:    math.MaxInt64,
				Max:    math.MinInt64,
			}
			for _, s := range shards {
				s.mu.Lock()
				h := s.hists[d.name]
				s.mu.Unlock()
				if h == nil {
					continue
				}
				for i := range hist.Counts {
					hist.Counts[i] += h.buckets[i].Load()
				}
				hist.Count += h.count.Load()
				hist.Sum += h.sum.Load()
				if v := h.min.Load(); v < hist.Min {
					hist.Min = v
				}
				if v := h.max.Load(); v > hist.Max {
					hist.Max = v
				}
			}
			if hist.Count == 0 {
				hist.Min, hist.Max = 0, 0
			}
			m.Hist = hist
		}
		snap.Metrics = append(snap.Metrics, m)
	}
	return snap
}

// Value returns the named counter's or gauge's value; ok is false when
// the snapshot holds no metric of that name.
func (s *Snapshot) Value(name string) (v int64, ok bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// Canonical returns the sim-domain subset — the deterministic part of
// the snapshot. Wall-domain metrics are quarantined out, exactly like
// the sweep report keeps wall times outside its canonical bytes.
func (s *Snapshot) Canonical() *Snapshot {
	out := &Snapshot{}
	for _, m := range s.Metrics {
		if m.Domain == Sim.String() {
			out.Metrics = append(out.Metrics, m)
		}
	}
	return out
}

// MarshalCanonical renders the canonical (sim-domain) dump: indented
// JSON, sorted by name, newline-terminated — byte-identical for the
// same seed range at any worker count.
func (s *Snapshot) MarshalCanonical() []byte {
	b, _ := json.MarshalIndent(s.Canonical(), "", "  ")
	return append(b, '\n')
}

// MarshalAll renders the full diagnostic dump, wall domain included.
func (s *Snapshot) MarshalAll() []byte {
	b, _ := json.MarshalIndent(s, "", "  ")
	return append(b, '\n')
}

// DecodeSnapshot parses a dump produced by MarshalCanonical/MarshalAll.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("obs: bad snapshot: %v", err)
	}
	return &s, nil
}

// PromText renders the snapshot in the Prometheus text exposition
// format (both domains — the exposition is for live operations, not
// determinism checks; wall metrics carry a domain label). Histograms
// render cumulative le buckets plus _sum and _count, per convention.
func (s *Snapshot) PromText() string {
	var sb strings.Builder
	for _, m := range s.Metrics {
		if m.Help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", m.Name, m.Help)
		}
		promKind := m.Kind
		if promKind == "histogram" {
			fmt.Fprintf(&sb, "# TYPE %s histogram\n", m.Name)
			var cum int64
			for i, c := range m.Hist.Counts {
				cum += c
				le := "+Inf"
				if i < len(m.Hist.Bounds) {
					le = fmt.Sprintf("%d", m.Hist.Bounds[i])
				}
				fmt.Fprintf(&sb, "%s_bucket{domain=%q,le=%q} %d\n", m.Name, m.Domain, le, cum)
			}
			fmt.Fprintf(&sb, "%s_sum{domain=%q} %d\n", m.Name, m.Domain, m.Hist.Sum)
			fmt.Fprintf(&sb, "%s_count{domain=%q} %d\n", m.Name, m.Domain, m.Hist.Count)
			continue
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", m.Name, promKind)
		fmt.Fprintf(&sb, "%s{domain=%q} %d\n", m.Name, m.Domain, m.Value)
	}
	return sb.String()
}

// durationish reports whether a metric's values are nanoseconds, going
// by the repo-wide naming convention (_ns suffix).
func durationish(name string) bool { return strings.HasSuffix(name, "_ns") }

func fmtValue(name string, v int64) string {
	if durationish(name) {
		return time.Duration(v).Round(time.Microsecond).String()
	}
	return fmt.Sprintf("%d", v)
}

// Table renders the snapshot as the human-readable SLO summary: one
// aligned row per metric, histograms expanded to count/p50/p95/p99/max.
// Wall-domain rows are listed under a separate header so the reader
// sees at a glance which numbers are environment-dependent.
func (s *Snapshot) Table() string {
	var sb strings.Builder
	write := func(domain string, header string) {
		rows := make([][2]string, 0, len(s.Metrics))
		for _, m := range s.Metrics {
			if m.Domain != domain {
				continue
			}
			var val string
			switch {
			case m.Hist != nil && m.Hist.Count == 0:
				val = "n=0"
			case m.Hist != nil:
				val = fmt.Sprintf("n=%d p50=%s p95=%s p99=%s max=%s",
					m.Hist.Count,
					fmtValue(m.Name, m.Hist.Quantile(0.50)),
					fmtValue(m.Name, m.Hist.Quantile(0.95)),
					fmtValue(m.Name, m.Hist.Quantile(0.99)),
					fmtValue(m.Name, m.Hist.Max))
			default:
				val = fmtValue(m.Name, m.Value)
			}
			rows = append(rows, [2]string{m.Name, val})
		}
		if len(rows) == 0 {
			return
		}
		fmt.Fprintf(&sb, "%s\n", header)
		width := 0
		for _, r := range rows {
			if len(r[0]) > width {
				width = len(r[0])
			}
		}
		for _, r := range rows {
			fmt.Fprintf(&sb, "  %-*s  %s\n", width, r[0], r[1])
		}
	}
	write("sim", "metrics (sim domain, canonical):")
	write("wall", "metrics (wall domain, environment-dependent):")
	if sb.Len() == 0 {
		return "metrics: none\n"
	}
	return sb.String()
}
