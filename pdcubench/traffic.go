package main

import (
	"math/rand"
	"sort"
	"strings"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/cs2013"
	"pdcunplugged/internal/tcpp"
)

// traffic generates a workload's request mix. Op number i depends only
// on the seed and i. With hot pools the keys repeat (browse, and the
// read stream of edit-replicate); with a vocabulary every search, typo
// search and filter is drawn afresh, so keys almost never repeat
// (search-scale).
type traffic struct {
	seed  uint64
	total int

	site    []string // site page paths
	search  []string // hot search targets
	typo    []string // hot fuzzy search targets
	filters []string // hot /api/v1/activities targets
	reval   []reval

	vocab   []string  // distinct-key mode when non-empty
	planted []Planted // the amplified activities whose tags filters draw
	// revalAlt accepts 200 as well as 304 for a revalidation: under
	// edits a page's validator can go stale between fetch and reuse.
	revalAlt bool
}

type reval struct{ target, etag string }

// paramTaxonomy maps each /api/v1/activities parameter to the taxonomy
// it filters.
var paramTaxonomy = map[string]string{
	"course": "courses", "cs2013": "cs2013", "medium": "medium",
	"sense": "senses", "source": "source", "tcpp": "tcpp",
}

// facetTerms lists the terms each /api/v1/activities parameter accepts.
func facetTerms() map[string][]string {
	return map[string][]string{
		"course": activity.KnownCourses,
		"cs2013": cs2013.Terms(),
		"tcpp":   tcpp.Terms(),
		"sense":  activity.KnownSenses,
		"medium": activity.KnownMediums,
	}
}

// mix is the traffic mix of every workload, in relative weights.
// search, typo, activities, facets and site carry the weights of the
// repository's documented traffic model, internal/loadgen DefaultMix
// (45, 5, 20, 10, 18). Its contrib share of 2 becomes the fixed-rate
// stream of contribRate instead: 2% of the rates offered here would
// overrun the shipped admission bucket. revalidate has no counterpart
// there and no measured basis; its weight of 10 is a choice.
var mix = [nClasses]int{clsSearch: 45, clsTypo: 5, clsActivities: 20, clsFacets: 10, clsSite: 18, clsRevalidate: 10}

// contribRate is the contribution stream of every load phase, requests
// per second over all targets: below the shipped 5/s bucket
// (-contrib-rate), so no validation is shed.
const contribRate = 2

func newTraffic(seed int64) *traffic {
	tr := &traffic{seed: uint64(seed)}
	for _, v := range mix {
		tr.total += v
	}
	return tr
}

// mix64 is the splitmix64 finalizer: a cheap, well-mixed hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (tr *traffic) op(i uint64) op {
	h := mix64(tr.seed*0x9e3779b97f4a7c15 + i + 1)
	r := int(h % uint64(tr.total))
	cls := 0
	for ; cls < clsContrib; cls++ {
		if r < mix[cls] {
			break
		}
		r -= mix[cls]
	}
	o := op{class: cls, method: "GET", want: 200, target: tr.target(cls, mix64(h))}
	if cls == clsRevalidate {
		rv := tr.reval[mix64(h)%uint64(len(tr.reval))]
		o.target, o.etag, o.want = rv.target, rv.etag, 304
		if tr.revalAlt {
			o.alt = 200
		}
	}
	return o
}

// target is the path of a GET of class cls, chosen by the hash h.
func (tr *traffic) target(cls int, h uint64) string {
	switch cls {
	case clsSearch:
		if tr.vocab != nil {
			return "/api/v1/search?q=" + tr.word(h) + "+" + tr.word(h>>32)
		}
		return tr.search[h%uint64(len(tr.search))]
	case clsTypo:
		if tr.vocab != nil {
			return "/api/v1/search?fuzzy=1&q=" + typo(tr.word(h), h>>20) + "+" + tr.word(h>>40)
		}
		return tr.typo[h%uint64(len(tr.typo))]
	case clsActivities:
		if tr.vocab != nil {
			return tr.filter(h)
		}
		return tr.filters[h%uint64(len(tr.filters))]
	case clsFacets:
		return "/api/v1/facets"
	case clsSite:
		return tr.site[h%uint64(len(tr.site))]
	}
	return ""
}

func (tr *traffic) word(h uint64) string { return tr.vocab[h%uint64(len(tr.vocab))] }

// filter draws one amplified activity and three of its facet
// parameters, each with one of the activity's own terms, so every
// filter matches at least that activity.
func (tr *traffic) filter(h uint64) string {
	p := &tr.planted[h%uint64(len(tr.planted))]
	perm := rand.New(rand.NewSource(int64(h))).Perm(len(facetParamNames))
	var b strings.Builder
	b.WriteString("/api/v1/activities?")
	for k, i := range perm[:3] {
		if k > 0 {
			b.WriteByte('&')
		}
		terms := p.facet(facetParamNames[i])
		b.WriteString(facetParamNames[i] + "=" + terms[(h>>(8*k+16))%uint64(len(terms))])
	}
	return b.String()
}

// typo deletes one letter of w.
func typo(w string, h uint64) string {
	if len(w) < 4 {
		return w
	}
	k := 1 + int(h%uint64(len(w)-1))
	return w[:k-1] + w[k:]
}

// Contribution submissions: one the curator accepts, one it rejects.
const contribValid = `---
title: "Relay Race Speedup"
date: "2026-01-01"
cs2013: ["PD_ParallelDecomposition"]
tcpp: ["TCPP_Algorithms"]
courses: ["CS1"]
senses: ["movement"]
medium: ["objects"]
---

## Original Author/link

Benchmark probe

No external resources found. See details below.

---

## Details

Teams pass a baton down one long line and time the relay, then split
into several short lines that run at once and compare the two times to
see speedup emerge from decomposition.
`

const contribInvalid = "---\ntitle: unterminated front matter\n"

func contribOp(i uint64) op {
	o := op{class: clsContrib, method: "POST", target: "/api/v1/contrib/validate?slug=relay-race-speedup", want: 200}
	if i%2 == 0 {
		o.body = contribValid
	} else {
		o.body = contribInvalid
	}
	return o
}

// hotPools draws the repeated search, typo and filter keys of the real
// corpus from its titles and tags: 100 + 40 + 60 keys plus the facets
// listing, fewer than the 256 entries of the query cache.
func (tr *traffic) hotPools(acts []*activity.Activity, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var pairs, singles, long []string
	seen := map[string]bool{}
	for _, a := range acts {
		ws := words(a.Title)
		if len(ws) >= 2 {
			pairs = append(pairs, ws[0]+"+"+ws[1])
		}
		for _, w := range ws {
			if seen[w] {
				continue
			}
			seen[w] = true
			if len(w) >= 5 {
				singles = append(singles, w)
			}
			if len(w) >= 6 {
				long = append(long, w)
			}
		}
	}
	for _, s := range [][]string{pairs, singles, long} {
		sort.Strings(s)
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	}
	cands := append(pairs, singles...)
	for _, q := range cands[:min(100, len(cands))] {
		tr.search = append(tr.search, "/api/v1/search?q="+q)
	}
	for _, w := range long[:min(40, len(long))] {
		tr.typo = append(tr.typo, "/api/v1/search?fuzzy=1&q="+typo(w, rng.Uint64()))
	}
	used := map[string]map[string]bool{}
	for _, a := range acts {
		for p, tax := range paramTaxonomy {
			for _, t := range a.Terms(tax) {
				if used[p] == nil {
					used[p] = map[string]bool{}
				}
				used[p][t] = true
			}
		}
	}
	var single []string
	params := make([]string, 0, len(used))
	for p := range used {
		params = append(params, p)
	}
	sort.Strings(params)
	for _, p := range params {
		ts := make([]string, 0, len(used[p]))
		for t := range used[p] {
			ts = append(ts, t)
		}
		sort.Strings(ts)
		for _, t := range ts {
			single = append(single, p+"="+t)
		}
	}
	for _, f := range single {
		tr.filters = append(tr.filters, "/api/v1/activities?"+f)
	}
	for len(tr.filters) < 60 {
		a, b := single[rng.Intn(len(single))], single[rng.Intn(len(single))]
		if strings.Split(a, "=")[0] != strings.Split(b, "=")[0] {
			tr.filters = append(tr.filters, "/api/v1/activities?"+a+"&"+b)
		}
	}
	tr.filters = tr.filters[:60]
}
