package mrc

import (
	"context"

	"fvcache/internal/obs"
	"fvcache/internal/trace"
)

// Direct-mapped fast path (MaxAssoc == 1).
//
// A direct-mapped cache holds exactly the last line accessed in each
// set, so the Mattson stack degenerates to a last-line-per-set table
// (Hill's forest simulation): an access hits iff the table entry for
// its set already equals its line. That replaces the map lookup and
// linked-list ripple of the general stack with plain array traffic —
// the per-access cost that lets one analytic pass beat the fused batch
// replay by the benchsweep gate's margin on assoc-1 size ladders
// (fig10/fig12 shapes).
//
// All models of one pass share a single fused loop built on the
// inclusion property of nested bit-selection indexing: SetCounts are
// ascending powers of two, so an access's set at a smaller level is a
// suffix of its set at every larger level, and the accesses mapping to
// a line's set at level k+1 are a subset of those mapping to its set
// at level k. A hit at level k therefore implies a hit at every level
// above it. The loop probes levels bottom-up and stops at the first
// hit: the common case (reuse within the smallest geometry) costs ONE
// load-compare, and only the levels that missed need their table entry
// stored. histMin[k] counts the accesses whose minimal hitting level
// is k; a level's total hits is the prefix sum histMin[0..k].
//
// Distinct-line counting still needs a seen-set, but it only needs
// consulting when every level misses (a hit anywhere proves the line
// was seen), so the map is touched on a small fraction of accesses and
// the steady state allocates nothing.
type dmPass struct {
	tables  [][]int64 // tables[k][set] = last line in set, -1 while empty
	masks   []uint32  // masks[k] = setCounts[k]-1, ascending
	histMin []uint64  // histMin[k] = accesses first hitting at level k
	seen    map[uint32]struct{}
	cold    uint64
}

// newDMPass builds the fused last-line tables for the pass's models
// (SetCounts ascending). int64 entries keep the -1 empty sentinel
// distinct from every 32-bit line value.
func newDMPass(models []model) *dmPass {
	p := &dmPass{
		tables:  make([][]int64, len(models)),
		masks:   make([]uint32, len(models)),
		histMin: make([]uint64, len(models)),
		seen:    make(map[uint32]struct{}),
	}
	for k, m := range models {
		t := make([]int64, m.sets)
		for i := range t {
			t[i] = -1
		}
		p.tables[k] = t
		p.masks[k] = uint32(m.sets - 1)
	}
	return p
}

// feed drives one address slice through the fused tables.
func (p *dmPass) feed(addrs []uint32, lineShift uint) {
	nlev := len(p.tables)
	for _, a := range addrs {
		line := a >> lineShift
		k := 0
		for ; k < nlev; k++ {
			e := &p.tables[k][line&p.masks[k]]
			if *e == int64(line) {
				break // inclusion: every level above hits too
			}
			*e = int64(line)
		}
		if k < nlev {
			p.histMin[k]++
			continue
		}
		// Missed everywhere: the only case that can be a first touch.
		if _, ok := p.seen[line]; !ok {
			p.seen[line] = struct{}{}
			p.cold++
		}
	}
}

// levelHits returns the total hit count of level k's geometry.
func (p *dmPass) levelHits(k int) uint64 {
	var h uint64
	for i := 0; i <= k; i++ {
		h += p.histMin[i]
	}
	return h
}

// dmView adapts one level of a fused pass to the per-model bucketed
// interface; a MaxAssoc==1 ladder has a single point, so every bucket
// index resolves to the level's hit count.
type dmView struct {
	p     *dmPass
	level int
}

func (v dmView) hits(int) uint64   { return v.p.levelHits(v.level) }
func (v dmView) coldCount() uint64 { return v.p.cold }
func (p *dmPass) views() []bucketed {
	out := make([]bucketed, len(p.tables))
	for k := range p.tables {
		out[k] = dmView{p: p, level: k}
	}
	return out
}

// runSerialDM feeds a chunked recording through a fused pass, one
// decoded chunk at a time. The fused loop subsumes per-model
// set-range sharding — its per-access cost is below the cost of the
// per-shard decode-and-filter scan — so DM passes always run serially
// and Options.Shards only governs the stack engine.
func runSerialDM(ctx context.Context, cr *trace.ChunkedRecording, models []model, lineShift uint) ([]bucketed, error) {
	p := newDMPass(models)
	var scratch trace.ChunkScratch
	for ci := 0; ci < cr.Chunks(); ci++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		addrs, err := cr.DecodeChunkAddrs(ci, &scratch)
		if err != nil {
			return nil, err
		}
		p.feed(addrs, lineShift)
		obs.MRCLines.Add(uint64(len(addrs)) * uint64(len(models)))
	}
	return p.views(), nil
}

// dmSegmentAccesses bounds how many raw-column accesses one feed call
// covers: the cancellation / telemetry granularity of runRawDM.
const dmSegmentAccesses = 1 << 16

// runRawDM is runSerialDM over a recording's resident access columns:
// when the caller holds the *trace.Recording itself there is nothing
// to decode, and the fused pass walks the raw address column directly.
func runRawDM(ctx context.Context, addrs []uint32, models []model, lineShift uint) ([]bucketed, error) {
	p := newDMPass(models)
	for lo := 0; lo < len(addrs); lo += dmSegmentAccesses {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hi := lo + dmSegmentAccesses
		if hi > len(addrs) {
			hi = len(addrs)
		}
		p.feed(addrs[lo:hi], lineShift)
		obs.MRCLines.Add(uint64(hi-lo) * uint64(len(models)))
	}
	return p.views(), nil
}
