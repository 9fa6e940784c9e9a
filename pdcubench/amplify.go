package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/corpus"
	"pdcunplugged/internal/cs2013"
	"pdcunplugged/internal/tcpp"
)

// Planted is the ground truth the amplifier records for one generated
// activity: the marker token planted in its text and the tags it
// assigned. The correctness checks compare the server's answers with
// these values, never with an earlier answer of the server.
type Planted struct {
	Slug    string
	Marker  string
	Courses []string
	CS2013  []string
	TCPP    []string
	Senses  []string
	Medium  []string
}

// facet returns the tags the /api/v1/activities parameter param selects.
func (p *Planted) facet(param string) []string {
	switch param {
	case "course":
		return p.Courses
	case "cs2013":
		return p.CS2013
	case "tcpp":
		return p.TCPP
	case "sense":
		return p.Senses
	case "medium":
		return p.Medium
	}
	return nil
}

// Manifest is everything the amplifier assigned: the generated
// activities in slug order, the facet tallies those assignments imply,
// and the vocabulary the generated text draws on (the query stream of
// the search-scale workload samples it).
type Manifest struct {
	Activities []Planted
	Tally      map[string]map[string]int // facet parameter -> term -> activities
	Vocab      []string
}

// facetParamNames are the /api/v1/activities filter parameters whose
// tallies the amplifier records.
var facetParamNames = []string{"course", "cs2013", "medium", "sense", "tcpp"}

// syllables build the synthetic words that widen the vocabulary the way
// a larger real corpus would.
var syllables = strings.Fields("ba ce di fo gu ka le mi no pu ra se ti vo zu bar cen dor fil gan hex jor kel lum mar nex pol qua ren sol tor ul ver wex yel zan")

// realActivities loads the curated corpus the benchmark serves: the
// builtin curation plus the bundled CSinParallel catalog, each activity
// carrying its source name.
func realActivities() ([]*activity.Activity, error) {
	repo, err := corpus.LoadAll(corpus.Builtin(), corpus.CSinParallel())
	if err != nil {
		return nil, err
	}
	return repo.All(), nil
}

// exportReal writes the real corpus as one Markdown directory per
// source (dir/builtin, dir/csinparallel) and returns the directories by
// source name. Served with -src name=dir, the sources keep their names.
func exportReal(dir string) (map[string]string, error) {
	acts, err := realActivities()
	if err != nil {
		return nil, err
	}
	dirs := map[string]string{}
	for _, a := range acts {
		d := filepath.Join(dir, a.Source)
		if dirs[a.Source] == "" {
			if err := os.MkdirAll(d, 0o755); err != nil {
				return nil, err
			}
			dirs[a.Source] = d
		}
		c := *a
		c.Source = "" // the directory adapter stamps the name
		if err := os.WriteFile(filepath.Join(d, a.Slug+".md"), []byte(c.Render()), 0o644); err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// words returns the lower-case alphabetic words of s that are at least
// four letters long.
func words(s string) []string {
	f := strings.FieldsFunc(strings.ToLower(s), func(r rune) bool { return r < 'a' || r > 'z' })
	out := f[:0]
	for _, w := range f {
		if len(w) >= 4 {
			out = append(out, w)
		}
	}
	return out
}

// Amplify writes n seeded mutations of the real activities into dir as
// one .md file each, and returns what it assigned. Every generated
// activity starts from a real one (round robin in slug order), gets a
// new slug and title, a fresh draw of taxonomy tags, a paragraph of
// words from the real text and from synthetic words, and a marker token
// no other activity contains. The same seed writes byte-identical files.
func Amplify(dir, source string, n int, seed int64) (*Manifest, error) {
	bases, err := realActivities()
	if err != nil {
		return nil, err
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i].Slug < bases[j].Slug })
	rng := rand.New(rand.NewSource(seed))

	realWords := map[string]bool{}
	for _, a := range bases {
		for _, w := range words(a.Title + " " + a.Details + " " + a.Accessibility) {
			realWords[w] = true
		}
	}
	pool := make([]string, 0, len(realWords))
	for w := range realWords {
		pool = append(pool, w)
	}
	sort.Strings(pool)
	synth := map[string]bool{}
	for len(synth) < 3*n {
		var b strings.Builder
		for k := 2 + rng.Intn(3); k > 0; k-- {
			b.WriteString(syllables[rng.Intn(len(syllables))])
		}
		if w := b.String(); !realWords[w] {
			synth[w] = true
		}
	}
	synthPool := make([]string, 0, len(synth))
	for w := range synth {
		synthPool = append(synthPool, w)
	}
	sort.Strings(synthPool)

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &Manifest{Tally: map[string]map[string]int{}}
	used := map[string]bool{}
	for i := 0; i < n; i++ {
		base := bases[i%len(bases)]
		a := *base
		a.Source = ""
		a.Slug = fmt.Sprintf("%s-%04d", base.Slug, i)
		a.Title = base.Title + " " + strings.ToUpper(synthPool[i][:1]) + synthPool[i][1:]
		a.CS2013 = pick(rng, cs2013.Terms(), 1, 3)
		a.TCPP = pick(rng, tcpp.Terms(), 1, 2)
		a.Courses = pick(rng, activity.KnownCourses, 1, 3)
		a.Senses = pick(rng, activity.KnownSenses, 1, 2)
		a.Medium = pick(rng, activity.KnownMediums, 1, 2)
		a.CS2013Details = nil
		for _, d := range base.CS2013Details {
			if u, _, err := cs2013.ParseDetail(d); err == nil && contains(a.CS2013, u.Term) {
				a.CS2013Details = append(a.CS2013Details, d)
			}
		}
		a.TCPPDetails = nil
		for _, d := range base.TCPPDetails {
			if ar, _, err := tcpp.FindTopic(d); err == nil && contains(a.TCPP, ar.Term) {
				a.TCPPDetails = append(a.TCPPDetails, d)
			}
		}
		a.SortTags()

		marker := fmt.Sprintf("zqmark%04dx%03d", i, uint64(seed)%1000)
		para := make([]string, 0, 24)
		for k := 0; k < 16; k++ {
			w := pool[rng.Intn(len(pool))]
			para = append(para, w)
			used[w] = true
		}
		for k := 0; k < 8; k++ {
			w := synthPool[rng.Intn(len(synthPool))]
			para = append(para, w)
			used[w] = true
		}
		a.Details = strings.TrimSpace(base.Details+"\n\nVariant notes: "+strings.Join(para, " ")+".") +
			"\n\nMarker " + marker + "."
		if errs := a.Validate(); len(errs) > 0 {
			return nil, fmt.Errorf("amplify %s: %v", a.Slug, errs[0])
		}
		if err := os.WriteFile(filepath.Join(dir, a.Slug+".md"), []byte(a.Render()), 0o644); err != nil {
			return nil, err
		}
		p := Planted{Slug: a.Slug, Marker: marker, Courses: a.Courses, CS2013: a.CS2013,
			TCPP: a.TCPP, Senses: a.Senses, Medium: a.Medium}
		for _, param := range facetParamNames {
			if m.Tally[param] == nil {
				m.Tally[param] = map[string]int{}
			}
			for _, t := range p.facet(param) {
				m.Tally[param][t]++
			}
		}
		m.Activities = append(m.Activities, p)
	}
	m.Tally["source"] = map[string]int{source: n}
	sort.Slice(m.Activities, func(i, j int) bool { return m.Activities[i].Slug < m.Activities[j].Slug })
	for w := range used {
		m.Vocab = append(m.Vocab, w)
	}
	sort.Strings(m.Vocab)
	return m, nil
}

// pick draws between lo and hi distinct terms from terms, in seeded
// random order.
func pick(rng *rand.Rand, terms []string, lo, hi int) []string {
	k := lo + rng.Intn(hi-lo+1)
	perm := rng.Perm(len(terms))
	out := make([]string, k)
	for i := range out {
		out[i] = terms[perm[i]]
	}
	return out
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
