package service

import (
	"math"
	"net/http"
	"sync"
	"time"
)

// histogram is a log-bucketed latency histogram: bucket i covers
// latencies up to histBase·histGrowth^i milliseconds.  Geometric buckets
// give constant relative quantile error (~±25%) across six decades with a
// few dozen counters — plenty for p50/p95/p99 on a serving dashboard.
const (
	histBase    = 0.05 // ms; first bucket upper bound
	histGrowth  = 1.5
	histBuckets = 40 // last bound ≈ 3.3e6 ms, beyond any request deadline
)

type histogram struct {
	mu     sync.Mutex
	counts [histBuckets]int64
	n      int64
	sumMS  float64
	maxMS  float64
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d.Microseconds()) / 1e3
	i := 0
	if ms > histBase {
		i = int(math.Ceil(math.Log(ms/histBase) / math.Log(histGrowth)))
		if i >= histBuckets {
			i = histBuckets - 1
		}
	}
	h.mu.Lock()
	h.counts[i]++
	h.n++
	h.sumMS += ms
	if ms > h.maxMS {
		h.maxMS = ms
	}
	h.mu.Unlock()
}

// quantile returns the upper bound of the bucket containing quantile q.
func (h *histogram) quantile(q float64) float64 {
	target := int64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= target {
			return histBase * math.Pow(histGrowth, float64(i))
		}
	}
	return h.maxMS
}

// LatencySummary is one endpoint's latency digest in /metrics.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

func (h *histogram) summary() LatencySummary {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := LatencySummary{Count: h.n, MaxMS: h.maxMS}
	if h.n == 0 {
		return s
	}
	s.MeanMS = h.sumMS / float64(h.n)
	s.P50MS = h.quantile(0.50)
	s.P95MS = h.quantile(0.95)
	s.P99MS = h.quantile(0.99)
	return s
}

// Metrics is the body of GET /metrics.
type Metrics struct {
	UptimeS    float64 `json:"uptime_s"`
	InFlight   int64   `json:"in_flight"`
	QueueDepth int64   `json:"queue_depth"`
	Requests   struct {
		Compile int64 `json:"compile"`
		Run     int64 `json:"run"`
		Sweep   int64 `json:"sweep"`
	} `json:"requests"`
	Errors   int64 `json:"errors"`
	Rejected int64 `json:"rejected"`
	Panics   int64 `json:"panics"`
	Cache    struct {
		Hits      int64   `json:"hits"`
		Misses    int64   `json:"misses"`
		HitRate   float64 `json:"hit_rate"`
		Computes  int64   `json:"computes"`
		Coalesced int64   `json:"coalesced"`
		Evictions int64   `json:"evictions"`
		Bytes     int64   `json:"bytes"` // the resident entries' charges: binaries, headers, programs
		Entries   int64   `json:"entries"`
	} `json:"cache"`
	// Array aggregates partitioned /run traffic: runs served, cells
	// simulated, total stall cycles, and the worst input-queue
	// high-water mark any cell has reached.
	Array struct {
		Runs        int64 `json:"runs"`
		Cells       int64 `json:"cells"`
		StallCycles int64 `json:"stall_cycles"`
		MaxInQueue  int64 `json:"max_in_queue"`
	} `json:"array"`
	Latency struct {
		Compile LatencySummary `json:"compile"`
		Run     LatencySummary `json:"run"`
		Sweep   LatencySummary `json:"sweep"`
	} `json:"latency_ms"`
}

func (s *Server) metrics() Metrics {
	var m Metrics
	m.UptimeS = time.Since(s.start).Seconds()
	m.InFlight = s.inflight.Load()
	m.QueueDepth = s.queued.Load()
	m.Requests.Compile = s.reqCompile.Load()
	m.Requests.Run = s.reqRun.Load()
	m.Requests.Sweep = s.reqSweep.Load()
	m.Errors = s.errors.Load()
	m.Rejected = s.rejected.Load()
	m.Panics = s.panics.Load()
	cs := s.cache.Stats()
	m.Cache.Hits = cs.Hits
	m.Cache.Misses = cs.Misses
	if total := cs.Hits + cs.Misses; total > 0 {
		m.Cache.HitRate = float64(cs.Hits) / float64(total)
	}
	m.Cache.Computes = cs.Computes
	m.Cache.Coalesced = cs.Coalesced
	m.Cache.Evictions = cs.Evictions
	m.Cache.Bytes = cs.Bytes
	m.Cache.Entries = cs.Entries
	m.Array.Runs = s.arrRuns.Load()
	m.Array.Cells = s.arrCells.Load()
	m.Array.StallCycles = s.arrStalls.Load()
	m.Array.MaxInQueue = s.arrMaxQueue.Load()
	m.Latency.Compile = s.latCompile.summary()
	m.Latency.Run = s.latRun.summary()
	m.Latency.Sweep = s.latSweep.summary()
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reply(w, http.StatusOK, s.metrics())
}

// noteArrayRun folds one partitioned run's per-cell stats into the
// /metrics aggregates.
func (s *Server) noteArrayRun(cells []CellRunStats) {
	s.arrRuns.Add(1)
	s.arrCells.Add(int64(len(cells)))
	for _, c := range cells {
		s.arrStalls.Add(c.StallCycles)
		for {
			cur := s.arrMaxQueue.Load()
			if int64(c.MaxInQueue) <= cur || s.arrMaxQueue.CompareAndSwap(cur, int64(c.MaxInQueue)) {
				break
			}
		}
	}
}
