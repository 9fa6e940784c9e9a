// Command pdcubench is the repository's end-to-end benchmark. It runs
// one workload against real `pdcu serve` processes, checks the answers
// against values computed apart from the server, and prints one JSON
// result line: the end-to-end metrics, or with -trace 1 the per-layer
// metrics of a traced run. See README.md for the workloads and metrics.
//
//	pdcubench -pdcu <binary> -workload browse -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"

	"pdcunplugged/internal/corpus"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner holds one benchmark run: its settings, the live server
// processes, the correctness verdict and the metrics gathered so far.
type runner struct {
	ctx     context.Context
	bin     string
	dir     string
	seed    int64
	seconds float64
	trace   bool

	mu        sync.Mutex // guards live
	live      []*node
	ck        checker
	attempted int
	failed    int
	opBase    uint64 // keeps op numbers of successive phases apart

	e2e    map[string]metric
	layers map[string]metric
}

// setupRounds is how many times a run starts its serving processes from
// scratch; setup_s is the median.
const setupRounds = 9

func (r *runner) set(name, unit string, v float64)   { r.e2e[name] = metric{v, unit} }
func (r *runner) layer(name, unit string, v float64) { r.layers[name] = metric{v, unit} }

// share is the fraction f of the run's measuring time.
func (r *runner) share(f float64) time.Duration {
	return time.Duration(f * r.seconds * float64(time.Second))
}

func (r *runner) start(name string, args ...string) (*node, error) {
	n, err := startNode(r.bin, name, args...)
	if err == nil {
		r.mu.Lock()
		r.live = append(r.live, n)
		r.mu.Unlock()
	}
	return n, err
}

// stop stops the nodes in reverse order, followers before their leader,
// so no leader waits on a follower's open long-poll while it drains.
func (r *runner) stop(ns ...*node) {
	for i := len(ns) - 1; i >= 0; i-- {
		ns[i].stop()
	}
}

func (r *runner) stopAll() {
	r.mu.Lock()
	live := r.live
	r.mu.Unlock()
	r.stop(live...)
}

// setup starts a node set setupRounds times, keeps the last one and
// reports the median time from the first process start to every node
// serving the expected generation.
func (r *runner) setup(start func() ([]*node, error)) ([]*node, error) {
	var times []time.Duration
	var set []*node
	for i := 0; i < setupRounds; i++ {
		if set != nil {
			r.stop(set...)
		}
		t0 := time.Now()
		var err error
		if set, err = start(); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0))
	}
	r.set("setup_s", "s", quantile(times, 0.5).Seconds())
	return set, nil
}

// expectedGeneration is the generation ID a node must publish for the
// sources: the first 16 hex digits of the corpus fingerprint.
func expectedGeneration(sources ...corpus.Source) (string, error) {
	repo, err := corpus.LoadAll(sources...)
	if err != nil {
		return "", err
	}
	return repo.Fingerprint()[:16], nil
}

// startPair starts a watching leader over dirs and one follower, and
// waits until both serve generation gen.
func (r *runner) startPair(srcs []string, gen string) (*node, *node, error) {
	args := []string{"-watch", "-poll", pollInterval}
	for _, s := range srcs {
		args = append(args, "-src", s)
	}
	ld, err := r.start("leader", args...)
	if err != nil {
		return nil, nil, err
	}
	if _, err := awaitReady(r.ctx, ld, gen, 60*time.Second); err != nil {
		return nil, nil, err
	}
	fl, err := r.start("follower", "-follow", ld.base())
	if err != nil {
		return nil, nil, err
	}
	if _, err := awaitReady(r.ctx, fl, gen, 60*time.Second); err != nil {
		return nil, nil, err
	}
	return ld, fl, nil
}

// nextOps returns the op function of the next phase: the traffic's ops
// numbered past every op an earlier phase of the run used.
func (r *runner) nextOps(tr *traffic) func(uint64) op {
	base := r.opBase
	r.opBase += 1 << 40
	return func(i uint64) op { return tr.op(base + i) }
}

func (r *runner) count(res *phaseResult) {
	r.attempted += res.attempted
	r.failed += res.failed
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "failed:", f)
	}
}

// latency runs the fixed-rate phase whose figures are the workload's
// p50_ms, p99_ms and server_cpu_us_per_req; with tracing it also
// reports the per-class latencies and the servers' own counters.
func (r *runner) latency(tr *traffic, nodes []*node, gens []string, rate float64, dur time.Duration, during func()) {
	var before metrics
	if r.trace {
		before = r.scrapeAll(nodes)
	}
	cpu0 := nodesCPU(nodes)
	p := &phase{targets: nodes, rate: rate, contribRate: contribRate, dur: dur, grace: time.Second,
		mainOp: r.nextOps(tr), contribOp: contribOp, gens: gens}
	var res *phaseResult
	if during == nil {
		res = p.run()
	} else {
		done := make(chan struct{})
		go func() {
			defer close(done)
			res = p.run()
		}()
		during()
		<-done
	}
	cpu := nodesCPU(nodes) - cpu0
	// An op the generator could not even send within a second of the
	// phase's end was due and never answered: it counts as failed.
	res.attempted += res.dropped
	res.failed += res.dropped
	if res.dropped > 0 {
		fmt.Fprintf(os.Stderr, "failed: %d requests of the fixed-rate phase never sent\n", res.dropped)
	}
	r.count(res)
	r.layer("p50_ms", "ms", ms(res.pooled(0.5)))
	r.layer("p99_ms", "ms", ms(res.pooled(0.99)))
	r.set("server_cpu_us_per_req", "us", float64(cpu.Microseconds())/float64(max(1, res.served())))
	if !r.trace {
		return
	}
	after := r.scrapeAll(nodes)
	hits := after.sum("pdcu_query_cache_total", `result="hit"`) - before.sum("pdcu_query_cache_total", `result="hit"`)
	lookups := after.sum("pdcu_query_cache_total") - before.sum("pdcu_query_cache_total")
	r.layer("query.cache_hit_ratio", "ratio", hits/max(1, lookups))
	// Replication long-polls are held open on purpose; they are not
	// request latency.
	httpDelta := func(name string) float64 {
		return after.sum(name) - after.sum(name, `path="/replica"`) - before.sum(name) + before.sum(name, `path="/replica"`)
	}
	sum := httpDelta("pdcu_http_request_duration_seconds_sum")
	cnt := httpDelta("pdcu_http_request_duration_seconds_count")
	r.layer("http.server_mean_us", "us", sum/max(1, cnt)*1e6)
	for c, name := range classNames {
		r.layer("endpoint."+name+".p50_ms", "ms", ms(quantile(res.lat[c], 0.5)))
	}
	r.layer("generator.lag_ms", "ms", ms(quantile(res.lag, 0.99)))
	r.layer("generator.cpu_us_per_req", "us", float64(res.genCPU.Microseconds())/float64(max(1, res.attempted)))
}

// sloP99 is the shipped query-latency objective: 99% of requests within
// 5 ms.
const sloP99 = 5 * time.Millisecond

// capacity reports the median of three capacity probes, each given a
// third of the budget, so that one probe spoiled by outside interference
// cannot set the figure.
func (r *runner) capacity(tr *traffic, nodes []*node, gens []string, budget time.Duration) {
	var found []float64
	for i := 0; i < 3; i++ {
		found = append(found, r.probe(tr, nodes, gens, budget/3))
	}
	r.layer("capacity_rps", "req/s", medianF(found))
}

// probe finds the highest offered rate whose p99 stays within the SLO
// with every request answered as expected and none left unsent. A
// closed-loop burst estimates the saturation throughput X; a bisection
// over [0.3X, 1.1X] then narrows the answer to 5% of X. A step passes
// when the p99 of all its latencies is within the objective.
func (r *runner) probe(tr *traffic, nodes []*node, gens []string, budget time.Duration) float64 {
	const steps = 4
	closedDur := budget / 6
	closed := &phase{targets: nodes, closed: true, dur: closedDur, mainOp: r.nextOps(tr), gens: gens}
	cres := closed.run()
	r.count(cres)
	x := float64(cres.served()) / closedDur.Seconds()
	fmt.Fprintf(os.Stderr, "capacity probe: closed loop %.0f req/s\n", x)
	stepDur := (budget - closedDur) / steps
	step := func(rate float64) bool {
		p := &phase{targets: nodes, rate: rate, contribRate: contribRate, dur: stepDur, grace: stepGrace,
			mainOp: r.nextOps(tr), contribOp: contribOp, gens: gens}
		res := p.run()
		r.count(res)
		p99 := res.pooled(0.99)
		pass := res.failed == 0 && res.dropped == 0 && p99 <= sloP99
		fmt.Fprintf(os.Stderr, "capacity step %.0f req/s: p99 %.3f ms, %d failed, %d unsent, pass %v\n",
			rate, ms(p99), res.failed, res.dropped, pass)
		return pass
	}
	lo, hi, best := 0.3*x, 1.1*x, 0.0
	for i := 0; i < steps; i++ {
		if rate := (lo + hi) / 2; step(rate) {
			lo, best = rate, rate
		} else {
			hi = rate
		}
	}
	// Should no rate in the range hold the objective, step down from 0.3X.
	for rate := 0.3 * x; best == 0 && rate > 0.05*x; rate *= 0.6 {
		if step(rate) {
			best = rate
		}
	}
	return best
}

// stepGrace bounds how far a capacity step that falls behind runs past
// its end; its unsent ops fail the step.
const stepGrace = 250 * time.Millisecond

func nodesCPU(ns []*node) time.Duration {
	var t time.Duration
	for _, n := range ns {
		t += n.cpu()
	}
	return t
}

func peakRSSMB(ns []*node) float64 {
	var b int64
	for _, n := range ns {
		b += n.peakRSS()
	}
	return float64(b) / (1 << 20)
}

// scrapeAll sums the nodes' /metrics.
func (r *runner) scrapeAll(ns []*node) metrics {
	all := metrics{}
	for _, n := range ns {
		m, err := n.scrape()
		if err != nil {
			r.ck.failf("scrape: %v", err)
			continue
		}
		for k, v := range m {
			all[k] += v
		}
	}
	return all
}

func main() {
	workload := flag.String("workload", "", "browse, search-scale or edit-replicate")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 10, "measuring time of the run")
	traced := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	bin := flag.String("pdcu", "", "the pdcu binary under test")
	dir := flag.String("dir", "", "scratch directory for the run's corpora (removed afterwards)")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *bin == "" || *dir == "" || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: pdcubench -pdcu <binary> -dir <scratch> -workload browse|search-scale|edit-replicate [-seed n] [-seconds s] [-trace 0|1]")
		os.Exit(2)
	}
	// The generator allocates little; a lazier collector keeps its
	// pauses out of the latencies it measures.
	debug.SetGCPercent(400)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &runner{ctx: ctx, bin: *bin, dir: *dir, seed: *seed, seconds: *seconds, trace: *traced == 1,
		e2e: map[string]metric{}, layers: map[string]metric{}}
	// Interrupted, the run stops its servers, removes its scratch
	// directory and exits without a result.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		cancel()
		r.stopAll()
		os.RemoveAll(r.dir)
		os.Exit(1)
	}()
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
			}
		}()
		if err := os.MkdirAll(r.dir, 0o755); err != nil {
			return err
		}
		return run(r)
	}()
	r.stopAll()
	os.RemoveAll(r.dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdcubench:", err)
		os.Exit(1)
	}
	for _, e := range r.ck.errs {
		fmt.Fprintln(os.Stderr, "incorrect:", e)
	}
	out := result{Correct: r.ck.ok(), Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	if r.trace {
		out.Metrics = r.layers
	}
	// Standard error shows every figure the run measured, end-to-end
	// and per-layer alike.
	for _, set := range []map[string]metric{r.e2e, r.layers} {
		names := make([]string, 0, len(set))
		for k := range set {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(os.Stderr, "%-34s %14.4f %s\n", k, set[k].Value, set[k].Unit)
		}
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
}

var workloads = map[string]func(*runner) error{
	"browse":         (*runner).browse,
	"search-scale":   (*runner).searchScale,
	"edit-replicate": (*runner).editReplicate,
}

func realSrcs(dirs map[string]string) []string {
	return []string{"builtin=" + dirs["builtin"], "csinparallel=" + dirs["csinparallel"]}
}

func dirSources(dirs map[string]string) []corpus.Source {
	return []corpus.Source{corpus.Dir("builtin", dirs["builtin"]), corpus.Dir("csinparallel", dirs["csinparallel"])}
}
