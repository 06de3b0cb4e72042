package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bg3"
	"bg3/internal/graph"
	"bg3/internal/metrics"
	"bg3/internal/storage"
)

// storageLatency is the simulated round trip of every storage read and
// write, in every workload.
const storageLatency = time.Millisecond

// checkLatency refuses sub-millisecond simulated storage latency: the
// storage layer sleeps, and below the OS timer floor a sleep measures the
// timer, not the setting.
func checkLatency(o bg3.Options) error {
	if o.StorageReadLatency < time.Millisecond || o.StorageWriteLatency < time.Millisecond {
		return fmt.Errorf("simulated storage latency must be at least 1ms (read %v, write %v): sub-ms sleeps measure the OS timer floor",
			o.StorageReadLatency, o.StorageWriteLatency)
	}
	return nil
}

// baseOptions is the deployment every workload shares: replicated, the
// forest on at the split threshold the repository's bench harness uses,
// 1 ms storage, library defaults otherwise.
func baseOptions() bg3.Options {
	return bg3.Options{
		Replicated:           true,
		ForestSplitThreshold: 64,
		StorageReadLatency:   storageLatency,
		StorageWriteLatency:  storageLatency,
	}
}

// scenario is one workload: a traffic mix and the deployment it runs on.
type scenario struct {
	name    string
	why     string
	heavy   []string
	light   []string
	traffic map[string]any
	options func() bg3.Options
	setup   func(seed int64) (instance, error)
	// layers are per-layer metrics only this workload reports.
	layers []layerMetric
}

var workloads = map[string]*scenario{}

func register(w *scenario) { workloads[w.name] = w }

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// instance is one set-up deployment with its traffic.
type instance interface {
	// drive runs the traffic for d; tr is nil in an untraced phase.
	drive(d time.Duration, tr *tracer) (*loadStats, error)
	// counters reads the program's metrics registries.
	counters() counters
	// writtenBytes is the logical bytes the benchmark has written so far.
	writtenBytes() float64
	// liveBytes is the logical bytes of the graph the model holds.
	liveBytes() float64
	audit() auditResult
	checkFailures() checkResult
	describe() map[string]any
	close()
}

// edgeBytes is the logical size of one edge the benchmark writes: source,
// destination and type, plus its encoded properties.
var edgeBytes = float64(8 + 8 + 2 + len(graph.EncodeProps(tsProps)))

var errReplicaLag = errors.New("replica did not show an acknowledged edge within 5s")

// tsProps is the property list every edge carries: the same 4-byte "ts"
// workload.Apply writes.
var tsProps = graph.Properties{{Name: "ts", Value: []byte{0, 0, 0, 0}}}

// base holds what every instance shares: the model, the read checks, and
// the logical byte count.
type base struct {
	m       *model
	written atomic.Int64 // edges written by acknowledged writes
	checks  checkResult
	mu      sync.Mutex
	info    map[string]any
}

// checkResult counts reads whose result disagreed with the model.
type checkResult struct {
	Reads int64  `json:"reads_checked"`
	Count int64  `json:"failed"`
	First string `json:"first,omitempty"`
}

// auditResult is the end-of-run comparison of the database with the model.
type auditResult struct {
	Edges      int    `json:"edges"`
	Sources    int    `json:"sources"`
	Targets    string `json:"targets"`
	Mismatches int    `json:"mismatches"`
	Error      string `json:"error,omitempty"`
}

func (b *base) checked(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.checks.Reads++
	if err != nil {
		b.checks.Count++
		if b.checks.First == "" {
			b.checks.First = err.Error()
		}
	}
}

func (b *base) checkFailures() checkResult {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.checks
}

func (b *base) writtenBytes() float64 { return float64(b.written.Load()) * edgeBytes }
func (b *base) liveBytes() float64    { return float64(b.m.edgeCount()) * edgeBytes }
func (b *base) describe() map[string]any {
	return b.info
}

// auditTarget is one copy of the graph the end-of-run audit reads.
type auditTarget struct {
	name string
	r    neighborer
}

// auditAll audits each target against the model.
func (b *base) auditAll(targets ...auditTarget) auditResult {
	res := auditResult{Edges: b.m.edgeCount(), Sources: len(b.m.sources())}
	var names []string
	for _, t := range targets {
		names = append(names, t.name)
		bad, err := b.m.audit(t.r, 8)
		res.Mismatches += bad
		if err != nil && res.Error == "" {
			res.Error = t.name + ": " + err.Error()
		}
	}
	res.Targets = strings.Join(names, "+")
	return res
}

// datasetSeed draws the base graphs. The dataset is fixed, like a
// benchmark's scale factor, so runs with different --seed values differ
// in their request streams, not in the graph they start from.
const datasetSeed = 1

// baseGraph draws a base graph: edges zipf-distributed over their source
// (skew 1.2, as the Table-1 generators draw the vertices they touch) with
// uniform destinations. The edges come sorted, as a bulk load would feed
// them, so loading walks the key space once.
func baseGraph(seed int64, vertices, edges int) []edgeKey {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.2, 1, uint64(vertices-1))
	out := make([]edgeKey, edges)
	for i := range out {
		out[i] = edgeKey{graph.VertexID(z.Uint64()), graph.VertexID(rng.Intn(vertices))}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].src != out[j].src {
			return out[i].src < out[j].src
		}
		return out[i].dst < out[j].dst
	})
	return out
}

// bulkLoad commits edges in batches of chunk through apply, from loaders
// goroutines, and returns each batch's latency.
func bulkLoad(edges []edgeKey, etype graph.EdgeType, chunk, loaders int, apply func([]graph.Mutation) error) (*samples, error) {
	lat := &samples{}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, loaders)
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= len(edges) {
					return
				}
				hi := min(lo+chunk, len(edges))
				muts := make([]graph.Mutation, 0, hi-lo)
				for _, e := range edges[lo:hi] {
					muts = append(muts, graph.AddEdgeMut(graph.Edge{Src: e.src, Dst: e.dst, Type: etype, Props: tsProps}))
				}
				t0 := time.Now()
				if err := apply(muts); err != nil {
					errs[l] = err
					return
				}
				lat.addDur(time.Since(t0))
			}
		}(l)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("bulk load: %w", err)
		}
	}
	return lat, nil
}

// counters is a flattened reading of one or more metrics registries.
// Counters and gauges add up across registries; for histograms the count
// and sum add up and the p99 is the worst registry's.
type counters map[string]float64

func (c counters) get(name string) float64 { return c[name] }

func (c counters) add(s metrics.Snapshot) {
	for name, v := range s {
		switch v.Kind {
		case metrics.KindCounter, metrics.KindGauge:
			c[name] += float64(v.Value)
		case metrics.KindHistogram:
			h := v.Histogram
			c[name+".count"] += float64(h.Count)
			c[name+".sum"] += float64(h.Count * h.MeanUS)
			c[name+".p99"] = max(c[name+".p99"], float64(h.P99US))
		case metrics.KindIntHistogram:
			h := v.IntHistogram
			c[name+".count"] += float64(h.Count)
			c[name+".sum"] += float64(h.Count) * h.Mean
			c[name+".p99"] = max(c[name+".p99"], float64(h.P99))
		}
	}
}

// delta is the change of a monotonic counter between two readings.
func delta(a, b counters, name string) float64 { return b.get(name) - a.get(name) }

// deltaMean is the mean of a histogram's observations between readings.
func deltaMean(a, b counters, name string) float64 {
	return ratio(delta(a, b, name+".sum"), delta(a, b, name+".count"))
}

// sampleCounters reads the instance's counters every 200ms until stop,
// keeping one reading per second and the maximum of the gauges whose peak
// matters.
func sampleCounters(inst instance, stop <-chan struct{}) ([]map[string]float64, map[string]float64) {
	peaks := map[string]float64{}
	var series []map[string]float64
	t := time.NewTicker(200 * time.Millisecond)
	defer t.Stop()
	start := time.Now()
	for n := 0; ; n++ {
		select {
		case <-stop:
			return series, peaks
		case <-t.C:
		}
		c := inst.counters()
		for _, g := range []string{"mvcc.epoch_lag", "bwtree.retained_bytes", "replication.applied_lsn_lag", "mvcc.pinned_epochs"} {
			peaks[g] = max(peaks[g], c.get(g))
		}
		if n%5 == 4 {
			c["t_s"] = time.Since(start).Seconds()
			series = append(series, c)
		}
	}
}

// storageProbe is the calibration of the simulated storage: what one
// append and one read on a standalone store at the workload latency cost.
type storageProbe struct {
	appendMS, readMS float64
}

func probeStorage(tr *tracer) (storageProbe, error) {
	s := storage.Open(&storage.Options{ReadLatency: storageLatency, WriteLatency: storageLatency})
	defer s.Close()
	var app, rd samples
	data := make([]byte, 256)
	for i := 0; i < 25; i++ {
		t0 := time.Now()
		loc, err := s.Append(0, uint64(i), data)
		t1 := time.Now()
		if err != nil {
			return storageProbe{}, fmt.Errorf("storage probe: %w", err)
		}
		if _, err := s.Read(loc); err != nil {
			return storageProbe{}, fmt.Errorf("storage probe: %w", err)
		}
		t2 := time.Now()
		app.addDur(t1.Sub(t0))
		rd.addDur(t2.Sub(t1))
		tr.record("storage.Append", t0, t1, -1, 0)
		tr.record("storage.Read", t1, t2, -1, 0)
	}
	return storageProbe{appendMS: app.summary().P50, readMS: rd.summary().P50}, nil
}

// neighborsInto reads src's neighbors through read and collects them; it
// reports whether the read stopped early (limit reached).
func neighborsInto(read func(fn func(graph.VertexID, graph.Properties) bool) error, limit int) ([]graph.VertexID, bool, error) {
	var got []graph.VertexID
	err := read(func(d graph.VertexID, _ graph.Properties) bool {
		got = append(got, d)
		return true
	})
	return got, limit > 0 && len(got) >= limit, err
}
