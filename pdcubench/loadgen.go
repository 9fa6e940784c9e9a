package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Traffic classes. Every workload sends every class; the weights and
// the key distributions differ.
const (
	clsSearch = iota
	clsTypo
	clsActivities
	clsFacets
	clsSite
	clsRevalidate
	clsContrib
	nClasses
)

var classNames = [nClasses]string{"search", "typo", "activities", "facets", "site", "revalidate", "contrib"}

// op is one request of a traffic mix with the status it must get.
type op struct {
	class  int
	method string
	target string // path and query
	etag   string // sent as If-None-Match when set
	body   string
	want   int
	alt    int // a second accepted status, or 0
}

// phase is one stretch of open-loop load: a main stream at rate
// requests per second plus a contribution stream at contribRate, both
// spread evenly over the targets. Each target gets at most two
// connections (the CPUs of the benchmark machine). Op number i of the
// main stream is mainOp(i); the same seed gives the same sequence.
type phase struct {
	targets     []*node
	rate        float64 // 0 with closed: back-to-back requests
	closed      bool
	contribRate float64
	dur         time.Duration
	mainOp      func(i uint64) op
	contribOp   func(i uint64) op
	gens        []string // expected Pdcu-Generation per target; empty = any
	// grace is how long past the phase's end a due op may still be
	// sent; an op still queued then is dropped.
	grace time.Duration
}

const connsPerTarget = 2

// phaseResult holds every latency of a phase, by class, timed from when
// the request was due (or from when it was sent, if the generator sent
// it late while the connection was idle: that delay is the generator's,
// and is kept apart in lag).
type phaseResult struct {
	lat       [nClasses][]time.Duration
	lag       []time.Duration
	attempted int
	failed    int
	dropped   int // due but never sent: still queued grace after the end
	genCPU    time.Duration
	failures  []string
}

// pooled is the q-quantile of every latency of the phase.
func (r *phaseResult) pooled(q float64) time.Duration {
	var all []time.Duration
	for _, l := range r.lat {
		all = append(all, l...)
	}
	return quantile(all, q)
}

func (r *phaseResult) served() int { return r.attempted - r.failed }

// schedule hands out the ops of one target in due order, merging the
// main and contribution streams.
type schedule struct {
	mu          sync.Mutex
	start, end  time.Time
	t, n        int // this target's index and the number of targets
	k, c        uint64
	rate, crate float64
	closed      bool
	p           *phase
}

func (s *schedule) due(j uint64, rate float64) time.Time {
	// Stream position j of target t is global op j*n+t of a stream at
	// the total rate, so the targets' arrivals interleave evenly.
	g := float64(j)*float64(s.n) + float64(s.t)
	return s.start.Add(time.Duration(g / rate * float64(time.Second)))
}

func (s *schedule) next() (op, time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		if time.Now().After(s.end) {
			return op{}, time.Time{}, false
		}
		i := s.k*uint64(s.n) + uint64(s.t)
		s.k++
		return s.p.mainOp(i), time.Time{}, true
	}
	dm, dc := s.end, s.end
	if s.rate > 0 {
		dm = s.due(s.k, s.rate)
	}
	if s.crate > 0 {
		dc = s.due(s.c, s.crate)
	}
	switch {
	case dc.Before(dm) && dc.Before(s.end):
		i := s.c*uint64(s.n) + uint64(s.t)
		s.c++
		return s.p.contribOp(i), dc, true
	case dm.Before(s.end):
		i := s.k*uint64(s.n) + uint64(s.t)
		s.k++
		return s.p.mainOp(i), dm, true
	}
	return op{}, time.Time{}, false
}

// sleepUntil waits for t. Go's timers wake up to a millisecond late on
// an idle process, so the last stretch is a nanosleep system call,
// which wakes within tens of microseconds.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d > 2*time.Millisecond {
		time.Sleep(d - 1500*time.Microsecond)
		d = time.Until(t)
	}
	if d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// cpuSelf is the benchmark process's own CPU time.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run drives the phase to its end and returns what it measured.
func (p *phase) run() *phaseResult {
	start := time.Now().Add(2 * time.Millisecond)
	end := start.Add(p.dur)
	cpu0 := cpuSelf()
	res := &phaseResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	n := len(p.targets)
	for t, tgt := range p.targets {
		s := &schedule{start: start, end: end, t: t, n: n, closed: p.closed, p: p,
			rate: p.rate, crate: p.contribRate}
		want := ""
		if t < len(p.gens) {
			want = p.gens[t]
		}
		for w := 0; w < connsPerTarget; w++ {
			wg.Add(1)
			go func(addr string) {
				defer wg.Done()
				local := worker(s, dial(addr), want, end.Add(p.grace))
				mu.Lock()
				res.merge(local)
				mu.Unlock()
			}(tgt.addr)
		}
	}
	wg.Wait()
	res.genCPU = cpuSelf() - cpu0
	return res
}

func (r *phaseResult) merge(o *phaseResult) {
	for c := range r.lat {
		r.lat[c] = append(r.lat[c], o.lat[c]...)
	}
	r.lag = append(r.lag, o.lag...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.dropped += o.dropped
	for _, f := range o.failures {
		if len(r.failures) < 8 {
			r.failures = append(r.failures, f)
		}
	}
}

// worker owns one connection: it takes the schedule's next op, waits
// until it is due, sends it and records the outcome. An op that is due
// but still unsent at last is dropped.
func worker(s *schedule, c *conn, wantGen string, last time.Time) *phaseResult {
	defer c.close()
	res := &phaseResult{}
	fail := func(o op, why string) {
		res.failed++
		if len(res.failures) < 8 {
			res.failures = append(res.failures, fmt.Sprintf("%s %s: %s", o.method, o.target, why))
		}
	}
	for {
		o, due, ok := s.next()
		if !ok {
			return res
		}
		ref := time.Now()
		if !s.closed {
			if due.After(ref) {
				sleepUntil(due)
				ref = time.Now()
				res.lag = append(res.lag, ref.Sub(due))
			} else if ref.After(last) {
				res.dropped++
				continue
			} else {
				ref = due
			}
		}
		res.attempted++
		resp, err := c.do(o.method, o.target, o.etag, o.body)
		lat := time.Since(ref)
		switch {
		case err != nil:
			fail(o, err.Error())
		case resp.status != o.want && (o.alt == 0 || resp.status != o.alt):
			fail(o, fmt.Sprintf("status %d, want %d", resp.status, o.want))
		case resp.gen == "":
			fail(o, "no Pdcu-Generation header")
		case wantGen != "" && resp.gen != wantGen:
			fail(o, fmt.Sprintf("generation %s, want %s", resp.gen, wantGen))
		}
		res.lat[o.class] = append(res.lat[o.class], lat)
	}
}

// quantile is the nearest-rank q-quantile of ds (sorted in place).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	k := int(math.Ceil(q*float64(len(ds)))) - 1
	if k < 0 {
		k = 0
	}
	return ds[k]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
