package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/corpus"
)

// Offered rates of the fixed-rate phases, requests per second. browse
// offers about a quarter of the capacity_rps it measured on a 2-CPU
// machine, search-scale an eighth: at a quarter, the 20 ms contribution
// validations it holds a connection for bring its p99 near the 5 ms
// objective. edit-replicate's stream is about 2% of its read capacity,
// so that the edits load the machine, not the reads.
const (
	browseRate = 5000
	scaleRate  = 600
	streamRate = 400 // edit-replicate's read stream over both nodes
)

// scaleActivities is the size of the amplified corpus.
const scaleActivities = 1000

// browse: the builtin and CSinParallel catalogs served by one process
// to browser-like traffic whose API keys fit in the query cache.
func (r *runner) browse() error {
	acts, err := realActivities()
	if err != nil {
		return err
	}
	gen, err := expectedGeneration(corpus.Builtin(), corpus.CSinParallel())
	if err != nil {
		return err
	}
	set, err := r.setup(func() ([]*node, error) {
		n, err := r.start("node", "-catalog", "builtin", "-catalog", "csinparallel")
		if err == nil {
			_, err = awaitReady(r.ctx, n, gen, time.Minute)
		}
		return []*node{n}, err
	})
	if err != nil {
		return err
	}
	n := set[0]
	tr := newTraffic(r.seed)
	tr.hotPools(acts, r.seed)
	tr.site = crawl(n, gen, &r.ck)
	checkPaper(n, &r.ck)
	checkContrib(n, &r.ck)
	tr.reval = checkNegotiation(n, r.revalTargets(tr), &r.ck)
	gens := []string{gen}
	r.latency(tr, set, gens, browseRate, r.share(0.3), nil)
	r.capacity(tr, set, gens, r.share(0.15))
	r.set("peak_rss_mb", "MB", peakRSSMB(set))
	r.stop(n)

	dirs, err := exportReal(filepath.Join(r.dir, "real"))
	if err != nil {
		return err
	}
	if err := r.editPair(realSrcs(dirs), dirSources(dirs), realFiles(dirs, acts), r.share(0.55)); err != nil {
		return err
	}
	if r.trace {
		return r.traceLayers([]corpus.Source{corpus.Builtin(), corpus.CSinParallel()}, realFiles(dirs, acts), tr)
	}
	return nil
}

// searchScale: an amplified corpus of about a thousand activities
// under traffic whose keys almost never repeat.
func (r *runner) searchScale() error {
	dir := filepath.Join(r.dir, "scale")
	m, err := Amplify(dir, "scale", scaleActivities, r.seed)
	if err != nil {
		return err
	}
	src := corpus.Dir("scale", dir)
	gen, err := expectedGeneration(src)
	if err != nil {
		return err
	}
	set, err := r.setup(func() ([]*node, error) {
		n, err := r.start("node", "-src", "scale="+dir)
		if err == nil {
			_, err = awaitReady(r.ctx, n, gen, time.Minute)
		}
		return []*node{n}, err
	})
	if err != nil {
		return err
	}
	n := set[0]
	tr := newTraffic(r.seed)
	tr.vocab, tr.planted = m.Vocab, m.Activities
	files := map[string]string{}
	tr.site = []string{"/"}
	for _, p := range m.Activities {
		tr.site = append(tr.site, "/activities/"+p.Slug+"/")
		files[p.Slug] = filepath.Join(dir, p.Slug+".md")
	}
	checkScale(n, m, r.seed, &r.ck)
	checkContrib(n, &r.ck)
	tr.reval = checkNegotiation(n, r.revalTargets(tr), &r.ck)
	gens := []string{gen}
	r.latency(tr, set, gens, scaleRate, r.share(0.45), nil)
	r.capacity(tr, set, gens, r.share(0.2))
	r.set("peak_rss_mb", "MB", peakRSSMB(set))
	r.stop(n)

	if err := r.editPair([]string{"scale=" + dir}, []corpus.Source{src}, files, r.share(0.35)); err != nil {
		return err
	}
	if r.trace {
		return r.traceLayers([]corpus.Source{src}, files, tr)
	}
	return nil
}

// editReplicate: a watching leader and one follower over an exported
// copy of the real corpus; seeded edits and unchanged saves while a
// light read stream runs against both nodes.
func (r *runner) editReplicate() error {
	acts, err := realActivities()
	if err != nil {
		return err
	}
	dirs, err := exportReal(filepath.Join(r.dir, "real"))
	if err != nil {
		return err
	}
	gen, err := expectedGeneration(dirSources(dirs)...)
	if err != nil {
		return err
	}
	set, err := r.setup(func() ([]*node, error) {
		ld, fl, err := r.startPair(realSrcs(dirs), gen)
		return []*node{ld, fl}, err
	})
	if err != nil {
		return err
	}
	ld, fl := set[0], set[1]
	tr := newTraffic(r.seed)
	tr.hotPools(acts, r.seed)
	tr.revalAlt = true
	tr.site = crawl(ld, gen, &r.ck)
	checkPaper(ld, &r.ck)
	checkContrib(ld, &r.ck)
	checkContrib(fl, &r.ck)
	same := append(append(append([]string{"/api/v1/facets"}, tr.site...), tr.search[:10]...), tr.filters[:10]...)
	checkIdentical(ld, fl, same, &r.ck)
	tr.reval = checkNegotiation(ld, r.revalTargets(tr), &r.ck)
	r.capacity(tr, set, []string{gen, gen}, r.share(0.2))
	files := realFiles(dirs, acts)
	var editErr error
	r.latency(tr, set, nil, streamRate, r.share(0.8), func() {
		editErr = r.edits(ld, fl, files, r.share(0.8))
	})
	if editErr != nil {
		return editErr
	}
	r.set("peak_rss_mb", "MB", peakRSSMB(set))
	if r.trace {
		return r.traceLayers(dirSources(dirs), files, tr)
	}
	return nil
}

// revalTargets picks the URLs whose validators the revalidate class
// replays: twenty site pages and a handful of API keys.
func (r *runner) revalTargets(tr *traffic) []string {
	rng := rand.New(rand.NewSource(r.seed))
	var out []string
	for _, i := range rng.Perm(len(tr.site))[:min(20, len(tr.site))] {
		out = append(out, tr.site[i])
	}
	out = append(out, "/api/v1/facets")
	for i := uint64(0); len(out) < 30; i++ {
		out = append(out, tr.target([]int{clsSearch, clsActivities, clsTypo}[i%3], mix64(uint64(r.seed)<<20+i)))
	}
	return out
}

func realFiles(dirs map[string]string, acts []*activity.Activity) map[string]string {
	files := map[string]string{}
	for _, a := range acts {
		files[a.Slug] = filepath.Join(dirs[a.Source], a.Slug+".md")
	}
	return files
}

// editPair starts a watching leader and a follower over srcs and runs
// the edit phase against them (browse and search-scale, after their
// read phases).
func (r *runner) editPair(srcs []string, sources []corpus.Source, files map[string]string, dur time.Duration) error {
	gen, err := expectedGeneration(sources...)
	if err != nil {
		return err
	}
	ld, fl, err := r.startPair(srcs, gen)
	if err != nil {
		return err
	}
	defer r.stop(ld, fl)
	return r.edits(ld, fl, files, dur)
}

// writeAtomic replaces path's content the way editors save: write a
// hidden temporary file, then rename it over the original.
func writeAtomic(path string, data []byte) error {
	tmp := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// waitFor polls the node's /readyz every millisecond until cond holds,
// and returns the matching state and when it was seen.
func waitFor(n *node, cond func(*readyz) bool, timeout time.Duration) (*readyz, time.Time, bool) {
	deadline := time.Now().Add(timeout)
	for {
		z, ok := n.ready()
		now := time.Now()
		if ok && cond(z) {
			return z, now, true
		}
		if now.After(deadline) {
			return z, now, false
		}
		time.Sleep(time.Millisecond)
	}
}

// edits runs whole rounds of one content edit and one unchanged save
// until dur has passed (two rounds at least). A content edit plants a
// fresh marker in one activity's Details; the round waits until the
// leader publishes it (publish_ms) and the follower serves the same
// generation (converge_ms), then checks the marker and the byte
// identity of both nodes. The unchanged save rewrites one file with its
// own bytes, which moves only its modification time.
func (r *runner) edits(ld, fl *node, files map[string]string, dur time.Duration) error {
	slugs := make([]string, 0, len(files))
	orig := map[string][]byte{}
	for s, p := range files {
		slugs = append(slugs, s)
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		orig[s] = b
	}
	sort.Strings(slugs)
	rng := rand.New(rand.NewSource(r.seed))
	fm0, err := fl.scrape()
	if err != nil {
		return err
	}
	z0, ok := ld.ready()
	if !ok {
		return fmt.Errorf("leader not ready before the edits")
	}
	var publish, converge, detect []time.Duration
	edits, saves := 0, 0
	lastPublish := 100 * time.Millisecond
	end := time.Now().Add(dur)
	for k := 0; k < 2 || time.Now().Before(end); k++ {
		slug := slugs[rng.Intn(len(slugs))]
		marker := fmt.Sprintf("zqedit%04dx%03d", k, uint64(r.seed)%1000)
		a, err := activity.Parse(slug, string(orig[slug]))
		if err != nil {
			return err
		}
		a.Details = strings.TrimSpace(a.Details+"\n\nRevision note "+marker+".") + "\n"
		before, ok := ld.ready()
		if !ok {
			return fmt.Errorf("leader not ready before edit %d", k)
		}
		t0 := time.Now()
		if err := writeAtomic(files[slug], []byte(a.Render())); err != nil {
			return err
		}
		edits++
		saves++
		r.attempted++
		z, tPub, ok := waitFor(ld, func(z *readyz) bool { return z.Generation != before.Generation }, 20*time.Second)
		var tConv time.Time
		if ok {
			_, tConv, ok = waitFor(fl, func(f *readyz) bool { return f.Generation == z.Generation }, 20*time.Second)
		}
		if !ok {
			r.failed++
			fmt.Fprintf(os.Stderr, "failed: edit of %s did not reach both nodes\n", slug)
		} else {
			lastPublish = tPub.Sub(t0)
			publish = append(publish, lastPublish)
			converge = append(converge, tConv.Sub(tPub))
			if z.LastRebuild == nil {
				return fmt.Errorf("leader reports no rebuild after edit %d", k)
			}
			if d, err := time.ParseDuration(z.LastRebuild.Duration); err == nil {
				detect = append(detect, lastPublish-d)
			}
			for _, n := range []*node{ld, fl} {
				checkMarker(n, slug, marker, &r.ck)
			}
			checkIdentical(ld, fl, []string{"/", "/activities/" + slug + "/", "/api/v1/facets", "/api/v1/search?q=" + marker}, &r.ck)
		}

		slug = slugs[rng.Intn(len(slugs))]
		cur, err := os.ReadFile(files[slug])
		if err != nil {
			return err
		}
		if before, ok = ld.ready(); !ok || before.LastRebuild == nil {
			return fmt.Errorf("leader not ready before save %d", k)
		}
		if err := writeAtomic(files[slug], cur); err != nil {
			return err
		}
		saves++
		r.attempted++
		// The save may or may not make the leader rebuild; wait long
		// enough for a rebuild to show, and if one published, for the
		// follower to take it.
		window := 3*lastPublish + 50*time.Millisecond
		z, _, rebuilt := waitFor(ld, func(z *readyz) bool {
			return z.Seq != before.Seq || z.LastRebuild != nil && !z.LastRebuild.Time.Equal(before.LastRebuild.Time)
		}, window)
		if rebuilt {
			if _, _, ok := waitFor(fl, func(f *readyz) bool { return f.Seq >= z.Seq }, 20*time.Second); !ok {
				r.failed++
				fmt.Fprintln(os.Stderr, "failed: follower did not take the leader's republished generation")
			}
		}
		if z != nil && z.Generation != before.Generation {
			r.ck.failf("an unchanged save of %s changed the generation from %s to %s", slug, before.Generation, z.Generation)
		}
		checkIdentical(ld, fl, []string{"/activities/" + slug + "/"}, &r.ck)
	}
	z1, _ := ld.ready()
	fm1, err := fl.scrape()
	if err != nil {
		return err
	}
	r.set("publish_ms", "ms", ms(quantile(publish, 0.5)))
	r.set("converge_ms", "ms", ms(quantile(converge, 0.5)))
	bytesIn := fm1.sum("pdcu_replica_fetch_bytes_total") - fm0.sum("pdcu_replica_fetch_bytes_total")
	r.set("replica_bytes_per_edit", "bytes", bytesIn/float64(edits))
	if z1 != nil {
		r.layer("engine.publishes_per_save", "ratio", float64(z1.Seq-z0.Seq)/float64(saves))
	}
	r.layer("watch.detect_ms", "ms", ms(quantile(detect, 0.5)))
	adopted := fm1.sum("pdcu_replica_fetch_total", `result="adopted"`) - fm0.sum("pdcu_replica_fetch_total", `result="adopted"`)
	r.layer("replica.fetches_per_content_edit", "ratio", adopted/float64(edits))
	return nil
}
