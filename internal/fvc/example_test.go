package fvc_test

import (
	"fmt"

	"fvcache/internal/fvc"
)

// The paper's Figure 7: seven frequent values encoded in 3-bit codes,
// with the all-ones code marking infrequent words.
func ExampleTable_Encode() {
	table := fvc.MustTable(3, []uint32{0, 0xffffffff, 1, 2, 4, 8, 10})
	line := []uint32{0, 1000, 0, 99999, 0xffffffff, 10, 1, 0xffffffff}
	for _, v := range line {
		code, frequent := table.Encode(v)
		if frequent {
			fmt.Printf("%03b ", code)
		} else {
			fmt.Printf("%03b(esc) ", code)
		}
	}
	fmt.Println()
	// Output: 000 111(esc) 000 111(esc) 001 110 010 001
}

func ExampleFVC_Lookup() {
	table := fvc.MustTable(3, []uint32{0, 1, 2})
	cache := fvc.MustNew(fvc.Params{Entries: 64, LineBytes: 16, Bits: 3}, table)

	// A line evicted from the main cache leaves its frequent-value
	// footprint: words holding 0/1/2 get codes, 999 is escaped.
	lineAddr := cache.LineAddr(0x1000)
	cache.InstallFootprint(lineAddr, []uint32{0, 999, 2, 1})

	p := cache.Lookup(0x1008) // word 2 of the line
	fmt.Println(p.TagMatch, p.WordFrequent, p.Value())
	p = cache.Lookup(0x1004) // word 1: infrequent
	fmt.Println(p.TagMatch, p.WordFrequent)
	// Output:
	// true true 2
	// true false
}
