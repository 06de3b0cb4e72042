// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against an in-process BG3 deployment on simulated storage with
// 1 ms reads and writes, checks every read and a final audit against its
// own model of the graph, and prints one JSON result line:
//
//	go run . --workload follow-read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// the run measures once untraced and once traced on the same deployment,
// and the result holds the per-layer metrics (plus the tracing overhead).
// The full record of every run, with its settings, is written under
// --out. Workloads and metrics are described in README.md and layers.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// setups is how many times a run sets its deployment up: setup_s is the
// median, and the last deployment is the one measured.
const setups = 3

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	commit   string
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds per phase")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for run records and traces")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source revision recorded with the results")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	w, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", cfg.workload, workloadNames())
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if err := checkLatency(w.options()); err != nil {
		return err
	}
	rec := runRecord{Meta: newMeta(cfg, w)}

	// Set up several times; the median is setup_s, the last one is measured.
	var inst instance
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		inst, err = w.setup(cfg.seed)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		rec.SetupS = append(rec.SetupS, time.Since(t0).Seconds())
	}
	defer inst.close()
	rec.Meta.Setup = inst.describe()

	d := time.Duration(cfg.seconds) * time.Second
	plain, err := measure(inst, d, nil)
	if err != nil {
		return err
	}
	rec.Untraced = plain.endToEnd(median(rec.SetupS))
	rec.Latency = map[string]summary{"read_ms": plain.load.read.summary(), "write_ms": plain.load.write.summary()}
	rec.Windows = map[string][]float64{"throughput_ops_s": plain.winThroughput, "cpu_us_per_op": plain.winCPU}
	rec.Errors = plain.errors()
	res := result{Attempted: plain.load.attempted.Load(), Failed: plain.load.failed.Load(), Metrics: gated(rec.Untraced)}

	if cfg.trace {
		tr := newTracer()
		traced, err := measure(inst, d, tr)
		if err != nil {
			return err
		}
		rec.Traced = traced.endToEnd(median(rec.SetupS))
		traced.untraced, traced.traced = rec.Untraced, rec.Traced
		rec.Layers = traced.layers(w.layers)
		rec.LayerDoc = layerDoc(w.layers)
		res = result{Attempted: traced.load.attempted.Load(), Failed: traced.load.failed.Load(), Metrics: rec.Layers}
		self := make(map[string]summary)
		for name, s := range traced.selfTimes {
			self[name] = s.summary()
		}
		rec.SelfTimeUS = self
		path := filepath.Join(cfg.out, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path, rec.Meta, self, traced.series); err != nil {
			return err
		}
		rec.TracePath = path
		for k, v := range traced.errors() {
			rec.Errors["traced "+k] = v
		}
	}

	// Audit the leader (and replica) against the model once writes stop.
	rec.Audit = inst.audit()
	rec.Checks = inst.checkFailures()
	res.Correct = rec.Audit.Mismatches == 0 && rec.Checks.Count == 0 && rec.Audit.Error == ""
	rec.ErrorRate = ratio(float64(res.Failed), float64(res.Attempted))

	if err := rec.write(filepath.Join(cfg.out, "runs", fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, boolInt(cfg.trace)))); err != nil {
		return err
	}
	summaryLine, _ := json.Marshal(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "setup_s": rec.SetupS,
		"audit": rec.Audit, "read_checks_failed": rec.Checks.Count, "error_rate": rec.ErrorRate,
	})
	fmt.Println(string(summaryLine))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// phase is one measured interval on a deployment.
type phase struct {
	load      *loadStats
	before    counters
	after     counters
	cpu       time.Duration
	mem0      runtime.MemStats
	mem1      runtime.MemStats
	heapMB    float64
	logical   float64 // bytes of edges the benchmark wrote in the phase
	liveLog   float64 // bytes of the live graph at the end
	series    []map[string]float64
	maxima    map[string]float64
	probe     storageProbe
	tr        *tracer
	selfTimes map[string]*samples
	marks     []cpuMark
	// winThroughput and winCPU are the per-window values behind the
	// throughput and CPU medians.
	winThroughput, winCPU []float64
	// untraced and traced are the end-to-end figures of a traced run's
	// two phases, for the tracing overhead.
	untraced, traced map[string]metricValue
}

// measure drives the instance's traffic for d. With a tracer it also
// samples the program's counters and records spans.
func measure(inst instance, d time.Duration, tr *tracer) (*phase, error) {
	p := &phase{tr: tr}
	runtime.GC()
	p.before = inst.counters()
	runtime.ReadMemStats(&p.mem0)
	cpu0 := cpuTime()
	w0 := inst.writtenBytes()

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		p.marks = cpuMarks(stop)
	}()
	if tr != nil {
		bg.Add(1)
		go func() {
			defer bg.Done()
			p.series, p.maxima = sampleCounters(inst, stop)
		}()
	}
	st, err := inst.drive(d, tr)
	close(stop)
	bg.Wait()
	if err != nil {
		return nil, err
	}
	p.load = st
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&p.mem1)
	p.after = inst.counters()
	p.logical = inst.writtenBytes() - w0
	p.liveLog = inst.liveBytes()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	// The storage service is simulated in process: its resident extents are
	// the remote store's memory, not the database's. The per-operation
	// samples are the benchmark's, and grow with the operation count.
	p.heapMB = (float64(m.HeapAlloc) - p.after.get("storage.total_bytes") - st.sampleBytes()) / (1 << 20)
	if tr != nil {
		p.selfTimes = tr.selfTimes()
		if p.probe, err = probeStorage(tr); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// windowLen is the length of the windows a phase is cut into: throughput
// and CPU per operation are the medians of their per-window values, so a
// burst of noise from outside the process moves one window, not the run.
const windowLen = 5 * time.Second

// cpuMark is the process CPU time at a window boundary.
type cpuMark struct {
	at  time.Time
	cpu time.Duration
}

// cpuMarks records the CPU time now and at every window boundary until
// stop, and once more when stopped.
func cpuMarks(stop <-chan struct{}) []cpuMark {
	marks := []cpuMark{{time.Now(), cpuTime()}}
	t := time.NewTicker(windowLen)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return append(marks, cpuMark{time.Now(), cpuTime()})
		case <-t.C:
			marks = append(marks, cpuMark{time.Now(), cpuTime()})
		}
	}
}

// windows returns the medians over the phase's full windows of the
// completion rate and of CPU microseconds per completed operation.
func (p *phase) windows() (throughput, cpuPerOp float64) {
	done := p.load.doneAt.sorted()
	var thr, cpu []float64
	for i := 1; i < len(p.marks); i++ {
		a, b := p.marks[i-1], p.marks[i]
		if b.at.Sub(a.at) < windowLen*9/10 {
			continue // the closing partial window
		}
		lo := a.at.Sub(p.load.start).Seconds()
		hi := b.at.Sub(p.load.start).Seconds()
		n := float64(sort.SearchFloat64s(done, hi) - sort.SearchFloat64s(done, lo))
		thr = append(thr, n/b.at.Sub(a.at).Seconds())
		cpu = append(cpu, ratio(us(b.cpu-a.cpu), n))
	}
	p.winThroughput, p.winCPU = thr, cpu
	if len(thr) == 0 { // a phase shorter than one window
		n := float64(p.load.completed())
		return p.load.throughput(), ratio(us(p.cpu), n)
	}
	return median(thr), median(cpu)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// endToEnd computes the user-visible metrics of a phase.
func (p *phase) endToEnd(setupS float64) map[string]metricValue {
	rd, wr := p.load.read.summary(), p.load.write.summary()
	thr, cpu := p.windows()
	m := map[string]metricValue{
		"setup_s":          {setupS, "s"},
		"throughput_ops_s": {thr, "1/s"},
		"read_p50_ms":      {rd.P50, "ms"},
		"read_p99_ms":      {rd.P99, "ms"},
		"write_p50_ms":     {wr.P50, "ms"},
		"write_p99_ms":     {wr.P99, "ms"},
		"cpu_us_per_op":    {cpu, "us"},
		"write_amp":        {ratio(p.after.get("storage.bytes_written")-p.before.get("storage.bytes_written"), p.logical), "ratio"},
		"space_amp":        {ratio(p.after.get("storage.bytes_written")-p.after.get("storage.gc_bytes_reclaimed"), p.liveLog), "ratio"},
		"heap_mb":          {p.heapMB, "MB"},
	}
	return m
}

func (p *phase) errors() map[string]string {
	out := make(map[string]string)
	p.load.errs.Range(func(k, v any) bool {
		out[fmt.Sprint(k)] = v.(string)
		return true
	})
	return out
}

// runRecord is everything one run measured, with its settings.
type runRecord struct {
	Meta       meta                   `json:"meta"`
	SetupS     []float64              `json:"setup_s_each"`
	Untraced   map[string]metricValue `json:"end_to_end"`
	Latency    map[string]summary     `json:"latency"`
	Windows    map[string][]float64   `json:"windows"`
	Traced     map[string]metricValue `json:"end_to_end_traced,omitempty"`
	Layers     map[string]metricValue `json:"per_layer,omitempty"`
	LayerDoc   []map[string]string    `json:"per_layer_doc,omitempty"`
	SelfTimeUS map[string]summary     `json:"self_time_us,omitempty"`
	TracePath  string                 `json:"trace_path,omitempty"`
	Audit      auditResult            `json:"audit"`
	Checks     checkResult            `json:"read_checks"`
	ErrorRate  float64                `json:"error_rate"`
	Errors     map[string]string      `json:"first_errors,omitempty"`
}

func (r *runRecord) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// meta is the run's settings, recorded with its results.
type meta struct {
	Workload    string         `json:"workload"`
	Why         string         `json:"why"`
	Heavy       []string       `json:"heavy_layers"`
	Light       []string       `json:"light_layers"`
	Seed        int64          `json:"seed"`
	Seconds     int            `json:"seconds"`
	Setups      int            `json:"setups"`
	Trace       bool           `json:"trace"`
	NumCPU      int            `json:"nproc"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	GoVersion   string         `json:"go_version"`
	Commit      string         `json:"commit"`
	Options     any            `json:"options"`
	Traffic     map[string]any `json:"traffic"`
	Setup       map[string]any `json:"setup,omitempty"`
	StartedUnix int64          `json:"started_unix"`
}

func newMeta(cfg config, w *scenario) meta {
	return meta{
		Workload: w.name, Why: w.why, Heavy: w.heavy, Light: w.light,
		Seed: cfg.seed, Seconds: cfg.seconds, Setups: setups, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: cfg.commit,
		Options: w.options(), Traffic: w.traffic, StartedUnix: time.Now().Unix(),
	}
}
