package core

import (
	"slices"

	"fvcache/internal/fvc"
	"fvcache/internal/memsim"
)

// rankImage is a byte image kept beside an architectural memory image:
// for every word, the rank of its value in one frequent value list
// (its code in that list's table), or the table's escape code when the
// value is not in the list. The SystemSet that owns the memory image
// owns the rank image and writes both on every store, so a rank lookup
// per store replaces a table lookup per word of every line any of its
// lanes evicts.
//
// An FVC lane whose table is a prefix of the list encodes an evicted
// line's footprint by clamping the line's ranks (FVC.EncodeRanks):
// rank r < k is code r of a k-value table, anything else is the
// escape. The figures' FVC lanes all qualify, since every table is a
// prefix of one workload's profiled top values.
type rankImage struct {
	table *fvc.Table
	img   *memsim.ByteImage
}

func newRankImage(table *fvc.Table) *rankImage {
	zero, _ := table.Encode(0) // an unwritten word holds 0
	return &rankImage{table: table, img: memsim.NewByteImage(zero)}
}

// store records that the word at addr now holds v.
func (r *rankImage) store(addr, v uint32) {
	code, _ := r.table.Encode(v)
	r.img.Store(addr, code)
}

// line returns the ranks of the n words of the line at base; see
// memsim.ByteImage.Line.
func (r *rankImage) line(base uint32, n int) []uint8 { return r.img.Line(base, n) }

// rankable reports whether s may encode footprints from a rank image:
// it has a static table of at most 15 values (4-bit codes), no value
// verification (which must see the words themselves) and lines no
// larger than a page.
func (s *System) rankable() bool {
	return s.fv != nil && s.sketch == nil && !s.cfg.VerifyValues &&
		s.fv.Table().Len() <= 15 && s.wpl <= memsim.PageWords
}

// shareRanks gives the systems of a set one rank image over the
// longest table among those that can use one; systems whose table is
// not a prefix of it keep encoding words. It returns the image, or nil
// when fewer than two systems would use it: a store costs a rank
// lookup whoever reads the ranks, and one lane's evictions do not earn
// it back (a single FVC lane replayed about 1.5% slower with ranks,
// two and three lanes 2% and 3% faster). The caller owns the image and
// must store into it whatever it stores into the memory image the
// systems share.
func shareRanks(systems []*System) *rankImage {
	var longest []uint32
	var table *fvc.Table
	for _, s := range systems {
		if s.rankable() && s.fv.Table().Len() > len(longest) {
			table = s.fv.Table()
			longest = table.Values()
		}
	}
	var users []*System
	for _, s := range systems {
		if table != nil && s.rankable() && slices.Equal(s.fv.Table().Values(), longest[:s.fv.Table().Len()]) {
			users = append(users, s)
		}
	}
	if len(users) < 2 {
		return nil
	}
	r := newRankImage(table)
	for _, s := range users {
		s.ranks = r
	}
	return r
}
