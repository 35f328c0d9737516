package memsim

// ByteImage is a byte per word of the 32-bit address space, paged like
// Memory: it holds per-word metadata beside a Memory image (the
// simulator keeps each word's frequent-value rank in one). Words no
// store reached read as the image's fill byte. Pages are found through
// a two-level directory, two dependent loads and no hashing, since
// stores and line reads hit it on the replay hot path.
//
// A ByteImage is not safe for concurrent use.
type ByteImage struct {
	dir  [1 << dirBits]*[1 << dirBits]*bytePage
	fill *bytePage // every byte the fill value: unwritten pages read here
}

type bytePage [PageWords]uint8

// dirBits is half the width of a page id.
const dirBits = (32 - pageShift) / 2

// NewByteImage returns an image whose every byte reads as fill.
func NewByteImage(fill uint8) *ByteImage {
	b := &ByteImage{fill: new(bytePage)}
	for i := range b.fill {
		b.fill[i] = fill
	}
	return b
}

// Store sets the byte of the word at the word-aligned byte address
// addr.
func (b *ByteImage) Store(addr uint32, v uint8) {
	pid, idx := wordIndex(addr)
	blk := b.dir[pid>>dirBits]
	if blk == nil {
		blk = new([1 << dirBits]*bytePage)
		b.dir[pid>>dirBits] = blk
	}
	p := blk[pid&(1<<dirBits-1)]
	if p == nil {
		p = new(bytePage)
		*p = *b.fill
		blk[pid&(1<<dirBits-1)] = p
	}
	p[idx] = v
}

// Line returns the bytes of the n words starting at base, which must
// be aligned to n words (cache lines are), so the run never crosses a
// page. The slice aliases the image: it is valid until the next Store
// and must not be written.
func (b *ByteImage) Line(base uint32, n int) []uint8 {
	pid, idx := wordIndex(base)
	p := b.fill
	if blk := b.dir[pid>>dirBits]; blk != nil && blk[pid&(1<<dirBits-1)] != nil {
		p = blk[pid&(1<<dirBits-1)]
	}
	return p[idx : int(idx)+n]
}
