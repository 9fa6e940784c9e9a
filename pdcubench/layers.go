package main

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/core"
	"pdcunplugged/internal/corpus"
	"pdcunplugged/internal/engine"
	"pdcunplugged/internal/frontmatter"
	"pdcunplugged/internal/markdown"
	"pdcunplugged/internal/obs"
	"pdcunplugged/internal/query"
	"pdcunplugged/internal/replica"
	"pdcunplugged/internal/search"
	"pdcunplugged/internal/site"
)

// layerReps is how many times a traced timing repeats; it reports the
// median.
const layerReps = 5

// timeMedian runs f layerReps times and returns the median duration.
func timeMedian(f func()) time.Duration {
	ds := make([]time.Duration, layerReps)
	for i := range ds {
		t := time.Now()
		f()
		ds[i] = time.Since(t)
	}
	return quantile(ds, 0.5)
}

// perCall is the time of one call of f: the median over layerReps
// blocks of n calls, after one block of warm-up.
func perCall(n int, f func()) time.Duration {
	for i := 0; i < n; i++ {
		f()
	}
	return timeMedian(func() {
		for i := 0; i < n; i++ {
			f()
		}
	}) / time.Duration(n)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// traceLayers times each layer's public functions in this process on
// the workload's inputs: sources is the corpus the read phases served
// and files are its Markdown files (copied before they are edited).
// The engine runs first, because markdown.RenderCached and
// search.BuildCached are process-wide memos: engine.rebuild_cold_ms is
// the one timing that finds them empty, and every later timing that
// renders Markdown through the site builder finds them warm.
func (r *runner) traceLayers(sources []corpus.Source, files map[string]string, tr *traffic) error {
	obs.SetLevel(slog.LevelError)
	ctx := context.Background()

	// Copy the corpus, so the edits below touch no file a server watches.
	copied := map[string]string{}
	cfg := engine.Defaults()
	srcDirs := map[string]bool{}
	for slug, p := range files {
		src := filepath.Base(filepath.Dir(p))
		dst := filepath.Join(r.dir, "trace", src, slug+".md")
		if !srcDirs[src] {
			srcDirs[src] = true
			if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
				return err
			}
			cfg.Srcs = append(cfg.Srcs, engine.SourceSpec{Name: src, Path: filepath.Dir(dst)})
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := os.WriteFile(dst, b, 0o644); err != nil {
			return err
		}
		copied[slug] = dst
	}
	sort.Slice(cfg.Srcs, func(i, j int) bool { return cfg.Srcs[i].Name < cfg.Srcs[j].Name })
	slugs := make([]string, 0, len(copied))
	for s := range copied {
		slugs = append(slugs, s)
	}
	sort.Strings(slugs)

	eng, err := engine.New(cfg)
	if err != nil {
		return err
	}
	t := time.Now()
	if _, err := eng.Rebuild(ctx); err != nil {
		return err
	}
	r.layer("engine.rebuild_cold_ms", "ms", ms(time.Since(t)))
	r.layer("engine.rebuild_unchanged_ms", "ms", ms(timeMedian(func() { eng.Rebuild(ctx) })))
	var touch []time.Duration
	var parses []float64
	for i := 0; i < layerReps; i++ {
		slug := slugs[(i*7919)%len(slugs)]
		b, err := os.ReadFile(copied[slug])
		if err != nil {
			return err
		}
		a, err := activity.Parse(slug, string(b))
		if err != nil {
			return err
		}
		a.Details = strings.TrimSpace(a.Details+fmt.Sprintf("\n\nTraced edit %d.", i)) + "\n"
		if err := os.WriteFile(copied[slug], []byte(a.Render()), 0o644); err != nil {
			return err
		}
		p0 := activity.ParseCalls()
		t := time.Now()
		if _, err := eng.Rebuild(ctx); err != nil {
			return err
		}
		touch = append(touch, time.Since(t))
		parses = append(parses, float64(activity.ParseCalls()-p0))
	}
	r.layer("engine.rebuild_touch_ms", "ms", ms(quantile(touch, 0.5)))
	r.layer("activity.parse_calls_per_edit", "count", medianF(parses))

	gen := eng.Current()
	var snap []byte
	r.layer("replica.encode_ms", "ms", ms(timeMedian(func() { snap, err = replica.Encode(gen) })))
	if err != nil {
		return err
	}
	r.layer("replica.snapshot_bytes", "bytes", float64(len(snap)))
	r.layer("replica.decode_ms", "ms", ms(timeMedian(func() { _, err = replica.Decode(snap) })))
	if err != nil {
		return err
	}
	var adopt []time.Duration
	for i := 0; i < layerReps; i++ {
		g, err := replica.Decode(snap)
		if err != nil {
			return err
		}
		fresh, err := engine.New(engine.Defaults())
		if err != nil {
			return err
		}
		t := time.Now()
		if !fresh.Adopt(g) {
			return fmt.Errorf("a fresh engine refused to adopt generation %d", g.Seq)
		}
		adopt = append(adopt, time.Since(t))
	}
	r.layer("replica.adopt_ms", "ms", ms(quantile(adopt, 0.5)))

	var repo *core.Repository
	r.layer("corpus.load_ms", "ms", ms(timeMedian(func() { repo, err = corpus.LoadAll(sources...) })))
	if err != nil {
		return err
	}
	acts := repo.All()
	r.layer("core.fingerprint_ms", "ms", ms(timeMedian(func() {
		fresh, _ := core.New(acts)
		fresh.Fingerprint()
	})))
	var sections []string
	for _, a := range acts {
		doc, err := frontmatter.Parse(a.Render())
		if err != nil {
			return err
		}
		for _, s := range markdown.SplitSections(doc.Body) {
			sections = append(sections, s.Content)
		}
	}
	r.layer("markdown.render_ms", "ms", ms(timeMedian(func() {
		for _, s := range sections {
			markdown.Render(s)
		}
	})))

	b := site.NewBuilder(site.Options{Workers: runtime.GOMAXPROCS(0)})
	t = time.Now()
	prev, err := b.Build(repo)
	if err != nil {
		return err
	}
	r.layer("site.build_cold_ms", "ms", ms(time.Since(t)))
	r.layer("site.build_unchanged_ms", "ms", ms(timeMedian(func() { b.Build(repo) })))
	var stouch []time.Duration
	var misses, useful []float64
	for i := 0; i < layerReps; i++ {
		edited := make([]*activity.Activity, len(acts))
		copy(edited, acts)
		k := (i * 7919) % len(edited)
		a := *edited[k]
		a.Details = strings.TrimSpace(a.Details + fmt.Sprintf("\n\nTraced edit %d.", i))
		edited[k] = &a
		touched, err := core.New(edited)
		if err != nil {
			return err
		}
		t := time.Now()
		s, err := b.Build(touched)
		if err != nil {
			return err
		}
		stouch = append(stouch, time.Since(t))
		misses = append(misses, float64(b.LastStats().CacheMisses))
		useful = append(useful, usefulRenders(prev, s))
		prev = s
	}
	r.layer("site.build_touch_ms", "ms", ms(quantile(stouch, 0.5)))
	r.layer("site.jobs_rerendered_touch", "count", medianF(misses))
	r.layer("site.useful_render_ratio", "ratio", medianF(useful))

	var ix *search.Index
	r.layer("search.build_ms", "ms", ms(timeMedian(func() { ix = search.Build(acts) })))
	var plain, fuzzy []string
	for i := uint64(0); len(plain) < 2000 || len(fuzzy) < 500; i++ {
		o := tr.op(i)
		u, err := url.Parse(o.target)
		if err != nil {
			return err
		}
		switch o.class {
		case clsSearch:
			plain = append(plain, u.Query().Get("q"))
		case clsTypo:
			fuzzy = append(fuzzy, u.Query().Get("q"))
		}
	}
	r.layer("search.query_us", "us", us(timeMedian(func() {
		for _, q := range plain {
			ix.Search(q, 10)
		}
	})/time.Duration(len(plain))))
	r.layer("search.fuzzy_us", "us", us(timeMedian(func() {
		for _, q := range fuzzy {
			ix.SearchFuzzy(q, 10)
		}
	})/time.Duration(len(fuzzy))))

	qs := gen.Snapshot()
	h := query.New(qs, query.Options{}).Handler()
	serve := func(hd http.Handler, target string) {
		req := httptest.NewRequest("GET", target, nil)
		req.Header.Set("Accept-Encoding", "gzip")
		hd.ServeHTTP(httptest.NewRecorder(), req)
	}
	const n = 1000
	hot := "/api/v1/search?q=" + url.QueryEscape(plain[0])
	noop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	recorder := perCall(n, func() { serve(noop, hot) })
	r.layer("harness.recorder_us", "us", us(recorder))
	r.layer("query.hit_us", "us", us(perCall(n, func() { serve(h, hot) })-recorder))
	fresh := 0
	r.layer("query.miss_us", "us", us(perCall(n, func() {
		fresh++
		serve(h, fmt.Sprintf("/api/v1/search?q=%s+zqfresh%d", url.QueryEscape(plain[fresh%len(plain)]), fresh))
	})-recorder))
	r.layer("query.contrib_us", "us", us(perCall(20, func() {
		query.ValidateContribution(qs, "relay-race-speedup", contribValid)
	})))
	return nil
}

// usefulRenders is the share of re-rendered pages whose bytes changed
// between two builds of one Builder. A page the builder served from its
// cache shares its byte slice with the previous build; any other page
// was rendered again.
func usefulRenders(prev, cur *site.Site) float64 {
	rendered, changed := 0, 0
	for p, data := range cur.Pages {
		old, ok := prev.Pages[p]
		if ok && len(old) > 0 && len(data) > 0 && &old[0] == &data[0] {
			continue
		}
		rendered++
		if !bytes.Equal(old, data) {
			changed++
		}
	}
	if rendered == 0 {
		return 0
	}
	return float64(changed) / float64(rendered)
}

func medianF(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	return s[len(s)/2]
}
