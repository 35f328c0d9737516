package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"fvcache/api"
)

// All load is drawn from math/rand sources seeded by --seed, whose
// sequences are fixed by the Go 1 compatibility promise: the same seed
// gives the same operations on every toolchain and host. Op counts
// depend only on --seconds, so every run sends the same multiset of
// operation classes and the seed only picks which keys fill them.

// figureArtifacts are the Section 4 artifacts one figures pass
// regenerates.
var figureArtifacts = []string{"fig4", "fig10", "fig12", "fig13", "fig14", "fig15"}

// figureOrders returns the artifact order of each pass. The artifacts'
// inputs are fixed by the paper, so the seed only permutes the order
// they run in.
func figureOrders(seed int64, passes int) [][]string {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]string, passes)
	for i := range out {
		o := append([]string(nil), figureArtifacts...)
		rng.Shuffle(len(o), func(a, b int) { o[a], o[b] = o[b], o[a] })
		out[i] = o
	}
	return out
}

// serveOp is one request of a serving workload: a /v1/measure of
// Configs, or a /v1/mrc when MRC is set.
type serveOp struct {
	Workload string
	Configs  []api.Config
	MRC      *api.MRCRequest
}

// key identifies the op's inputs; equal keys must get equal answers.
func (o serveOp) key() string {
	if o.MRC != nil {
		return fmt.Sprintf("mrc|%s|%d|%d|%v", o.Workload, o.MRC.LineBytes, o.MRC.MaxSizeBytes, o.MRC.SetCounts)
	}
	fps := make([]string, len(o.Configs))
	for i, c := range o.Configs {
		fps[i] = c.Normalized().Fingerprint()
	}
	return "measure|" + o.Workload + "|" + strings.Join(fps, ",")
}

// endpoint names the API the op calls.
func (o serveOp) endpoint() string {
	if o.MRC != nil {
		return "mrc"
	}
	return "measure"
}

// hotConfigs and hotMRC are the serve_hot key pool, crossed with every
// workload: 18×4 measure keys and 18×2 MRC keys, all at test scale.
var (
	hotConfigs = []api.Config{{}, {FVCEntries: 256}, {Assoc: 2}, {VictimEntries: 8}}
	hotMRC     = []api.MRCRequest{
		{LineBytes: 32, MaxSizeBytes: 64 << 10, SetCounts: []int{1}},
		{LineBytes: 32, MaxSizeBytes: 64 << 10, SetCounts: []int{1, 256}},
	}
)

// hotKeys returns every serve_hot key once: the ops setup warms.
func hotKeys(workloads []string) (measure, mrc []serveOp) {
	for _, w := range workloads {
		for _, c := range hotConfigs {
			measure = append(measure, serveOp{Workload: w, Configs: []api.Config{c}})
		}
		for i := range hotMRC {
			m := hotMRC[i]
			mrc = append(mrc, serveOp{Workload: w, MRC: &m})
		}
	}
	return measure, mrc
}

// hotOps returns n serve_hot requests: exactly n/6 MRC requests and
// the rest measure requests, each cycling through its key pool in
// seeded-shuffled rounds so every key is asked about equally often.
func hotOps(seed int64, n int, workloads []string) []serveOp {
	rng := rand.New(rand.NewSource(seed))
	measure, mrc := hotKeys(workloads)
	nMRC := n / 6
	isMRC := make([]bool, n)
	for i := 0; i < nMRC; i++ {
		isMRC[i] = true
	}
	rng.Shuffle(n, func(a, b int) { isMRC[a], isMRC[b] = isMRC[b], isMRC[a] })
	md, rd := newDeck(rng, len(measure)), newDeck(rng, len(mrc))
	ops := make([]serveOp, n)
	for i := range ops {
		if isMRC[i] {
			ops[i] = mrc[rd.next()]
		} else {
			ops[i] = measure[md.next()]
		}
	}
	return ops
}

// deck deals indices 0..n-1 in a fresh seeded permutation per round.
type deck struct {
	rng  *rand.Rand
	perm []int
	pos  int
}

func newDeck(rng *rand.Rand, n int) *deck { return &deck{rng: rng, pos: n, perm: make([]int, n)} }

func (d *deck) next() int {
	if d.pos == len(d.perm) {
		copy(d.perm, d.rng.Perm(len(d.perm)))
		d.pos = 0
	}
	d.pos++
	return d.perm[d.pos-1]
}

// coldKinds partitions the serve_cold config space by the hierarchy
// components a config adds, which set its replay cost: a plain
// main cache, main + FVC, main + victim cache, main + L2.
func coldKinds() [4][]api.Config {
	var k [4][]api.Config
	lines := []int{16, 32, 64}
	for _, main := range []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10} {
		for _, line := range lines {
			for _, assoc := range []int{1, 2, 4, 8} {
				k[0] = append(k[0], api.Config{MainBytes: main, LineBytes: line, Assoc: assoc})
			}
		}
	}
	for _, main := range []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10} {
		for _, line := range lines {
			for _, e := range []int{64, 128, 256, 512, 1024, 2048} {
				for _, bits := range []int{2, 3, 4} {
					k[1] = append(k[1], api.Config{MainBytes: main, LineBytes: line, FVCEntries: e, FVCBits: bits})
				}
			}
			for _, v := range []int{2, 4, 8, 16, 32} {
				k[2] = append(k[2], api.Config{MainBytes: main, LineBytes: line, VictimEntries: v})
			}
			for _, l2 := range []int{64 << 10, 128 << 10, 256 << 10} {
				for _, a := range []int{2, 4, 8} {
					k[3] = append(k[3], api.Config{MainBytes: main, LineBytes: line, L2Bytes: l2, L2Assoc: a})
				}
			}
		}
	}
	return k
}

// coldMaxConfigs is how many configs one serve_cold request asks for;
// a round holds one request of each size 1..coldMaxConfigs per
// workload.
const coldMaxConfigs = 4

// coldOps returns rounds×18×4 serve_cold requests in seeded order.
// Each request asks one workload for 1–4 configs never requested
// earlier in the run. Every workload takes config kinds round-robin
// and, within a kind, deals a seeded permutation of the same fixed
// subset of that kind's space (the subset depends only on rounds).
// So the seed sets the request order and which configs share a
// request, while every run asks about the same configs: the total
// replay work of a run does not depend on its seed.
func coldOps(seed int64, rounds int, workloads []string) ([]serveOp, error) {
	kinds := coldKinds()
	per := rounds * coldMaxConfigs * (coldMaxConfigs + 1) / 2 // configs per workload
	var subsets [4][]int
	for k := range kinds {
		n := (per + len(kinds) - 1 - k) / len(kinds) // turns that land on kind k
		if n > len(kinds[k]) {
			return nil, fmt.Errorf("serve_cold: %d rounds exhaust the config space of kind %d", rounds, k)
		}
		subsets[k] = rand.New(rand.NewSource(int64(k))).Perm(len(kinds[k]))[:n]
	}
	rng := rand.New(rand.NewSource(seed))
	type dealer struct {
		perms [4][]int
		used  [4]int
		turn  int
	}
	dealers := make(map[string]*dealer, len(workloads))
	for _, w := range workloads {
		d := &dealer{}
		for k, sub := range subsets {
			d.perms[k] = make([]int, len(sub))
			for i, j := range rng.Perm(len(sub)) {
				d.perms[k][i] = sub[j]
			}
		}
		dealers[w] = d
	}
	var ops []serveOp
	for r := 0; r < rounds; r++ {
		for _, w := range workloads {
			for n := 1; n <= coldMaxConfigs; n++ {
				ops = append(ops, serveOp{Workload: w, Configs: make([]api.Config, n)})
			}
		}
	}
	rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
	for i := range ops {
		d := dealers[ops[i].Workload]
		for j := range ops[i].Configs {
			k := d.turn % len(kinds)
			d.turn++
			ops[i].Configs[j] = kinds[k][d.perms[k][d.used[k]]]
			d.used[k]++
		}
	}
	return ops, nil
}

// sampleIndices returns k distinct indices of 0..n-1 in increasing
// order, chosen by seed.
func sampleIndices(seed int64, n, k int) []int {
	rng := rand.New(rand.NewSource(seed))
	k = min(k, n)
	idx := rng.Perm(n)[:k]
	out := append([]int(nil), idx...)
	sort.Ints(out)
	return out
}
