package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/url"
	"regexp"
	"sort"
	"strings"
)

// checker collects correctness failures. A failure makes the run's
// result report correct=false; the run itself goes on.
type checker struct{ errs []string }

func (c *checker) failf(format string, args ...any) {
	if len(c.errs) < 20 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

func (c *checker) ok() bool { return len(c.errs) == 0 }

// paperCounts are the activity counts the paper reports for the builtin
// curation (EXPERIMENTS.md): the Activities columns of Table I (CS2013
// knowledge units) and Table II (TCPP topic areas), the Section III-A
// course recommendations and the Section III-D medium and sense counts.
var paperCounts = []struct {
	param, term string
	want        int
}{
	{"cs2013", "PD_ParallelismFundamentals", 2},
	{"cs2013", "PD_ParallelDecomposition", 21},
	{"cs2013", "PD_CommunicationAndCoordination", 9},
	{"cs2013", "PD_ParallelAlgorithms", 12},
	{"cs2013", "PD_ParallelArchitecture", 9},
	{"cs2013", "PD_ParallelPerformance", 10},
	{"cs2013", "PD_DistributedSystems", 2},
	{"cs2013", "PD_CloudComputing", 3},
	{"cs2013", "PD_FormalModels", 1},
	{"tcpp", "TCPP_Architecture", 9},
	{"tcpp", "TCPP_Programming", 24},
	{"tcpp", "TCPP_Algorithms", 22},
	{"tcpp", "TCPP_Crosscutting", 8},
	{"course", "K_12", 15},
	{"course", "CS0", 8},
	{"course", "CS1", 17},
	{"course", "CS2", 25},
	{"course", "DSA", 27},
	{"course", "Systems", 22},
	{"medium", "analogy", 11},
	{"medium", "role-play", 11},
	{"medium", "game", 4},
	{"medium", "paper", 8},
	{"medium", "board", 6},
	{"medium", "cards", 6},
	{"medium", "pens", 4},
	{"medium", "coins", 2},
	{"medium", "food", 4},
	{"medium", "instrument", 1},
	{"sense", "visual", 27},
	{"sense", "movement", 14},
	{"sense", "touch", 10},
	{"sense", "sound", 2},
	{"sense", "accessible", 9},
}

// checkPaper compares the builtin source's faceted counts with the
// paper's tables.
func checkPaper(n *node, ck *checker) {
	for _, pc := range paperCounts {
		var r struct{ Count int }
		u := fmt.Sprintf("%s/api/v1/activities?source=builtin&%s=%s", n.base(), pc.param, url.QueryEscape(pc.term))
		if err := getJSON(u, &r); err != nil {
			ck.failf("paper count %s=%s: %v", pc.param, pc.term, err)
		} else if r.Count != pc.want {
			ck.failf("%s: builtin activities with %s=%s: %d, the paper reports %d", n.name, pc.param, pc.term, r.Count, pc.want)
		}
	}
}

var hrefRE = regexp.MustCompile(`href="(/[^"#?]*)"`)

// crawl follows the site's links from / and returns every page path it
// reached. Every linked page must answer 200 with the generation gen.
func crawl(n *node, gen string, ck *checker) []string {
	seen := map[string]bool{"/": true}
	queue := []string{"/"}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		code, hdr, body, err := get(n.base() + p)
		if err != nil || code != 200 {
			ck.failf("%s: linked page %s: status %d, %v", n.name, p, code, err)
			continue
		}
		if g := hdr.Get("Pdcu-Generation"); g != gen {
			ck.failf("%s: page %s has generation %q, want %q", n.name, p, g, gen)
		}
		for _, m := range hrefRE.FindAllSubmatch(body, -1) {
			if l := string(m[1]); !seen[l] && !strings.HasPrefix(l, "//") {
				seen[l] = true
				queue = append(queue, l)
			}
		}
	}
	pages := make([]string, 0, len(seen))
	for p := range seen {
		pages = append(pages, p)
	}
	sort.Strings(pages)
	return pages
}

// checkNegotiation fetches each target plainly and with gzip, checks
// that a gzip body decompresses to the plain body and that the page's
// validator gets a bodiless 304, and returns the validators.
func checkNegotiation(n *node, targets []string, ck *checker) []reval {
	var out []reval
	gzipped := 0
	for _, t := range targets {
		code, hdr, plain, err := get(n.base() + t)
		if err != nil || code != 200 {
			ck.failf("%s: %s: status %d, %v", n.name, t, code, err)
			continue
		}
		_, zhdr, zbody, err := get(n.base()+t, "Accept-Encoding", "gzip")
		if err != nil {
			ck.failf("%s: %s with gzip: %v", n.name, t, err)
			continue
		}
		if zhdr.Get("Content-Encoding") == "gzip" {
			gzipped++
			zr, err := gzip.NewReader(bytes.NewReader(zbody))
			var unz []byte
			if err == nil {
				unz, err = io.ReadAll(zr)
			}
			if err != nil || !bytes.Equal(unz, plain) {
				ck.failf("%s: %s: gzip body does not decompress to the plain body (%v)", n.name, t, err)
			}
		} else if !bytes.Equal(zbody, plain) {
			ck.failf("%s: %s: body differs when gzip is offered but not used", n.name, t)
		}
		etag := hdr.Get("Etag")
		if etag == "" {
			ck.failf("%s: %s: no ETag", n.name, t)
			continue
		}
		code, _, body, err := get(n.base()+t, "If-None-Match", etag)
		if err != nil || code != 304 || len(body) != 0 {
			ck.failf("%s: %s revalidation: status %d, %d body bytes, %v", n.name, t, code, len(body), err)
			continue
		}
		out = append(out, reval{target: t, etag: etag})
	}
	if gzipped == 0 {
		ck.failf("%s: no response was gzipped although every request offered gzip", n.name)
	}
	return out
}

// checkContrib submits one acceptable and one broken activity.
func checkContrib(n *node, ck *checker) {
	for _, c := range []struct {
		body   string
		accept bool
	}{{contribValid, true}, {contribInvalid, false}} {
		var r struct{ Accepted bool }
		code, body, err := post(n.base()+"/api/v1/contrib/validate?slug=relay-race-speedup", c.body)
		if err == nil && code == 200 {
			err = json.Unmarshal(body, &r)
		}
		if err != nil || code != 200 || r.Accepted != c.accept {
			ck.failf("%s: contrib validation: status %d, accepted=%v, want accepted=%v (%v)", n.name, code, r.Accepted, c.accept, err)
		}
	}
}

// searchTop returns the slug ranked first for q.
func searchTop(n *node, q string) (string, error) {
	var r struct {
		Results []struct{ Slug string }
	}
	if err := getJSON(n.base()+"/api/v1/search?limit=3&q="+url.QueryEscape(q), &r); err != nil {
		return "", err
	}
	if len(r.Results) == 0 {
		return "", nil
	}
	return r.Results[0].Slug, nil
}

// checkScale compares the amplified corpus's answers with the
// amplifier's ground truth: facet counts against its tallies, filtered
// counts against counts over its recorded tags, and each sampled
// marker's search against the activity it was planted in.
func checkScale(n *node, m *Manifest, seed int64, ck *checker) {
	var f struct {
		Activities int
		Facets     map[string]map[string]int
	}
	if err := getJSON(n.base()+"/api/v1/facets", &f); err != nil {
		ck.failf("facets: %v", err)
		return
	}
	if f.Activities != len(m.Activities) {
		ck.failf("facets: %d activities, the amplifier wrote %d", f.Activities, len(m.Activities))
	}
	for param, tally := range m.Tally {
		for term, want := range tally {
			if got := f.Facets[param][term]; got != want {
				ck.failf("facet %s=%s: %d, the amplifier assigned it to %d", param, term, got, want)
			}
		}
		for term, got := range f.Facets[param] {
			if tally[term] == 0 {
				ck.failf("facet %s=%s: %d, the amplifier never assigned it", param, term, got)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	terms := facetTerms()
	for k := 0; k < 30; k++ {
		a, b := facetParamNames[rng.Intn(5)], facetParamNames[rng.Intn(5)]
		ta, tb := terms[a][rng.Intn(len(terms[a]))], terms[b][rng.Intn(len(terms[b]))]
		want := 0
		for i := range m.Activities {
			if contains(m.Activities[i].facet(a), ta) && contains(m.Activities[i].facet(b), tb) {
				want++
			}
		}
		var r struct{ Count int }
		u := fmt.Sprintf("%s/api/v1/activities?%s=%s&%s=%s", n.base(), a, ta, b, tb)
		if a == b {
			u = fmt.Sprintf("%s/api/v1/activities?%s=%s", n.base(), a, ta)
			want = m.Tally[a][ta]
		}
		if err := getJSON(u, &r); err != nil || r.Count != want {
			ck.failf("filter %s=%s&%s=%s: %d activities, ground truth %d (%v)", a, ta, b, tb, r.Count, want, err)
		}
	}
	for _, i := range rng.Perm(len(m.Activities))[:100] {
		p := m.Activities[i]
		if top, err := searchTop(n, p.Marker); err != nil || top != p.Slug {
			ck.failf("search %s: top hit %q, planted in %s (%v)", p.Marker, top, p.Slug, err)
		}
	}
}

// checkIdentical fetches each target from both nodes and requires the
// same status and byte-identical bodies.
func checkIdentical(a, b *node, targets []string, ck *checker) {
	for _, t := range targets {
		ca, _, ba, erra := get(a.base() + t)
		cb, _, bb, errb := get(b.base() + t)
		if erra != nil || errb != nil || ca != cb || !bytes.Equal(ba, bb) {
			ck.failf("%s differs between %s (%d, %d bytes) and %s (%d, %d bytes)", t, a.name, ca, len(ba), b.name, cb, len(bb))
		}
	}
}

// checkMarker requires the node to show marker on the activity's page
// and to rank the activity first when searching for it.
func checkMarker(n *node, slug, marker string, ck *checker) {
	code, _, body, err := get(n.base() + "/activities/" + slug + "/")
	if err != nil || code != 200 || !bytes.Contains(body, []byte(marker)) {
		ck.failf("%s: page of %s lacks edit marker %s (status %d, %v)", n.name, slug, marker, code, err)
	}
	if top, err := searchTop(n, marker); err != nil || top != slug {
		ck.failf("%s: search %s: top hit %q, want %s (%v)", n.name, marker, top, slug, err)
	}
}
