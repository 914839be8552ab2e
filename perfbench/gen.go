package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"rationality/internal/bimatrix"
	"rationality/internal/core"
	"rationality/internal/game"
	"rationality/internal/proof"
)

// inventorID is the inventor every generated announcement names.
const inventorID = "perfbench-inventor"

// forgedOneIn makes one announcement in this many a forgery.
const forgedOneIn = 8

// template is one generated game with an honest and a forged
// announcement for it. The game JSON is stored without its name so that
// any number of distinct announcements (distinct digests, so distinct
// cache keys) can be cut from one template by naming the game; the
// procedures never read the name, so the verification work is the same.
type template struct {
	kind     string // "p1" or "enum"
	format   string
	gameRest []byte // game JSON after `{"name":"<name>"`
	honest   core.Announcement
	forged   core.Announcement
}

// shape is one game family the generator draws templates from.
type shape struct {
	kind   string
	counts []int // strategy counts per agent
}

// shapes are the two sizes each of the paper's P1 (§4, bimatrix support
// advice) and enumeration (§3, pure-equilibrium certificate) formats.
var shapes = []shape{
	{"p1", []int{3, 3}},
	{"p1", []int{4, 4}},
	{"enum", []int{3, 3}},
	{"enum", []int{2, 2, 2}},
}

// generator turns a seed into announcements. Item k of a namespace is a
// pure function of (seed, namespace, k), so concurrent clients can cut
// their own items without coordinating and a seed replays exactly.
type generator struct {
	seed      int64
	templates []template
}

// newGenerator builds perShape templates of every shape from the seed.
func newGenerator(seed int64, perShape int) (*generator, error) {
	rng := rand.New(rand.NewSource(seed))
	g := &generator{seed: seed}
	for _, s := range shapes {
		for i := 0; i < perShape; i++ {
			var t template
			var err error
			if s.kind == "p1" {
				t, err = p1Template(rng, s.counts[0])
			} else {
				t, err = enumTemplate(rng, s.counts)
			}
			if err != nil {
				return nil, err
			}
			g.templates = append(g.templates, t)
		}
	}
	return g, nil
}

// p1Template draws a random n×n bimatrix game. The honest announcement
// carries the supports of an equilibrium the prover found; the forgery
// advises a pure profile that is not a pure equilibrium, which the
// generator checks from the payoffs alone.
func p1Template(rng *rand.Rand, n int) (template, error) {
	for {
		a, b := make([][]int64, n), make([][]int64, n)
		for i := range a {
			a[i], b[i] = make([]int64, n), make([]int64, n)
			for j := 0; j < n; j++ {
				a[i][j], b[i][j] = rng.Int63n(10), rng.Int63n(10)
			}
		}
		g := bimatrix.FromInts(a, b)
		honest, err := core.AnnounceP1(inventorID, "", g)
		if err != nil {
			continue // no equilibrium found by support enumeration; redraw
		}
		var bad [][2]int
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !pureNash(a, b, i, j) {
					bad = append(bad, [2]int{i, j})
				}
			}
		}
		if len(bad) == 0 {
			continue
		}
		p := bad[rng.Intn(len(bad))]
		forged := core.AnnounceP1Forged(inventorID, "", g, []int{p[0]}, []int{p[1]})
		return newTemplate("p1", honest, forged)
	}
}

// pureNash reports whether (i, j) is a pure equilibrium of (a, b).
func pureNash(a, b [][]int64, i, j int) bool {
	for k := range a {
		if a[k][j] > a[i][j] {
			return false
		}
	}
	for l := range b[i] {
		if b[i][l] > b[i][j] {
			return false
		}
	}
	return true
}

// enumTemplate draws a random game with a pure equilibrium. The forgery
// keeps the honest certificate but advises a different profile, which
// the certificate does not cover.
func enumTemplate(rng *rand.Rand, counts []int) (template, error) {
	for {
		g := game.RandomGame("", counts, 8, rng.Int63n)
		pf, err := proof.BuildBestAdvice(g, proof.MaxNash)
		if err != nil {
			continue // no pure equilibrium; redraw
		}
		honest, err := core.AnnounceEnumeration(inventorID, g, proof.MaxNash)
		if err != nil {
			return template{}, err
		}
		other := append(game.Profile(nil), pf.Advised...)
		other[0] = (other[0] + 1) % counts[0]
		forged, err := core.AnnounceEnumerationForged(inventorID, g, other)
		if err != nil {
			return template{}, err
		}
		return newTemplate("enum", honest, forged)
	}
}

func newTemplate(kind string, honest, forged core.Announcement) (template, error) {
	const prefix = `{"name":""`
	if !bytes.HasPrefix(honest.Game, []byte(prefix)) || !bytes.Equal(honest.Game, forged.Game) {
		return template{}, fmt.Errorf("perfbench: unexpected game encoding %.40s", honest.Game)
	}
	return template{
		kind:     kind,
		format:   honest.Format,
		gameRest: honest.Game[len(prefix):],
		honest:   honest,
		forged:   forged,
	}, nil
}

// item is one generated announcement and the verdict it must get.
type item struct {
	ann    core.Announcement
	accept bool
	kind   string
}

// splitmix64 is the per-item hash: it spreads (seed, namespace, k) into
// independent template and forgery choices.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fill writes item k of namespace ns into it, reusing it.ann.Game's
// backing array so a steady-state client allocates nothing here.
func (g *generator) fill(it *item, ns string, k int) {
	h := splitmix64(uint64(g.seed)*0x100000001b3 ^ splitmix64(uint64(k)) ^ nsHash(ns))
	t := &g.templates[h%uint64(len(g.templates))]
	forged := (h>>32)%forgedOneIn == 0
	src := &t.honest
	if forged {
		src = &t.forged
	}
	buf := it.ann.Game[:0]
	buf = append(buf, `{"name":"`...)
	buf = append(buf, ns...)
	buf = append(buf, '-')
	buf = strconv.AppendInt(buf, g.seed, 10)
	buf = append(buf, '-')
	buf = strconv.AppendInt(buf, int64(k), 10)
	buf = append(buf, '"')
	buf = append(buf, t.gameRest...)
	it.ann = core.Announcement{
		InventorID: inventorID,
		Format:     t.format,
		Game:       json.RawMessage(buf),
		Advice:     src.Advice,
		Proof:      src.Proof,
	}
	it.accept = !forged
	it.kind = t.kind
}

// item returns a freshly allocated item k of namespace ns.
func (g *generator) item(ns string, k int) item {
	var it item
	g.fill(&it, ns, k)
	return it
}

// items returns items [0, n) of namespace ns.
func (g *generator) items(ns string, n int) []item {
	out := make([]item, n)
	for k := range out {
		g.fill(&out[k], ns, k)
	}
	return out
}

func nsHash(ns string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(ns); i++ {
		h = (h ^ uint64(ns[i])) * 1099511628211
	}
	return h
}

// request converts an item to the unary wire request.
func (it *item) request() core.VerifyRequest {
	return core.VerifyRequest{Format: it.ann.Format, Game: it.ann.Game, Advice: it.ann.Advice, Proof: it.ann.Proof}
}
