package main

import (
	"fmt"
	"reflect"
	"testing"

	"fvcache/api"
)

// maxSeconds is the longest run the driver may ask for; every
// generator must stay valid up to it.
const maxSeconds = 60

func TestLoadIsDeterministic(t *testing.T) {
	names := workloadNames()
	if !reflect.DeepEqual(hotOps(5, 600, names), hotOps(5, 600, names)) {
		t.Error("hotOps differs for one seed")
	}
	if reflect.DeepEqual(hotOps(5, 600, names), hotOps(6, 600, names)) {
		t.Error("hotOps ignores its seed")
	}
	a, _ := coldOps(5, 2, names)
	b, _ := coldOps(5, 2, names)
	c, _ := coldOps(6, 2, names)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Error("coldOps is not a function of its seed alone")
	}
	if !reflect.DeepEqual(figureOrders(5, 4), figureOrders(5, 4)) {
		t.Error("figureOrders differs for one seed")
	}
	if !reflect.DeepEqual(sampleIndices(5, 100, 12), sampleIndices(5, 100, 12)) {
		t.Error("sampleIndices differs for one seed")
	}
}

func TestHotOpsFixedMix(t *testing.T) {
	names := workloadNames()
	measure, mrc := hotKeys(names)
	n := hotOpsPerSecond * 20
	for seed := int64(1); seed <= 5; seed++ {
		ops := hotOps(seed, n, names)
		count := map[string]int{}
		nMRC := 0
		for _, op := range ops {
			count[op.key()]++
			if op.MRC != nil {
				nMRC++
			}
		}
		if len(ops) != n || nMRC != n/6 {
			t.Fatalf("seed %d: %d ops, %d mrc; want %d, %d", seed, len(ops), nMRC, n, n/6)
		}
		// Every key is dealt in whole rounds, so counts differ by at
		// most one within each endpoint.
		for _, pool := range [][]serveOp{measure, mrc} {
			lo, hi := n, 0
			for _, op := range pool {
				lo, hi = min(lo, count[op.key()]), max(hi, count[op.key()])
			}
			if hi-lo > 1 {
				t.Errorf("seed %d: key counts range %d..%d", seed, lo, hi)
			}
		}
	}
}

func TestColdOpsNeverRepeatAConfig(t *testing.T) {
	names := workloadNames()
	rounds := maxSeconds / coldSecondsPerRound
	for seed := int64(1); seed <= 5; seed++ {
		ops, err := coldOps(seed, rounds, names)
		if err != nil {
			t.Fatal(err)
		}
		if len(ops) != rounds*len(names)*coldMaxConfigs {
			t.Fatalf("%d ops, want %d", len(ops), rounds*len(names)*coldMaxConfigs)
		}
		seen := map[string]bool{}
		classes := map[string]int{}
		kinds := map[string]map[int]int{}
		for _, op := range ops {
			classes[fmt.Sprintf("%s/%d", op.Workload, len(op.Configs))]++
			for _, c := range op.Configs {
				n := c.Normalized()
				if err := n.Validate(); err != nil {
					t.Fatalf("invalid config %+v: %v", c, err)
				}
				k := op.Workload + "|" + n.Fingerprint()
				if seen[k] {
					t.Fatalf("seed %d repeats %s", seed, k)
				}
				seen[k] = true
				if kinds[op.Workload] == nil {
					kinds[op.Workload] = map[int]int{}
				}
				kinds[op.Workload][kindOf(c)]++
			}
		}
		for class, n := range classes {
			if n != rounds {
				t.Errorf("class %s: %d requests, want %d", class, n, rounds)
			}
		}
		// Kinds are dealt round-robin: every workload gets each kind
		// the same number of times, to within one.
		for w, k := range kinds {
			lo, hi := 1<<30, 0
			for kind := 0; kind < 4; kind++ {
				lo, hi = min(lo, k[kind]), max(hi, k[kind])
			}
			if hi-lo > 1 {
				t.Errorf("%s: kind counts %v", w, k)
			}
		}
	}
}

// kindOf returns a config's index in coldKinds.
func kindOf(c api.Config) int {
	switch {
	case c.FVCEntries > 0:
		return 1
	case c.VictimEntries > 0:
		return 2
	case c.L2Bytes > 0:
		return 3
	}
	return 0
}

func TestColdOpsRejectExhaustion(t *testing.T) {
	if _, err := coldOps(1, 1000, workloadNames()); err == nil {
		t.Fatal("coldOps dealt more configs than the space holds")
	}
}

func TestSampleIndices(t *testing.T) {
	idx := sampleIndices(3, 50, 12)
	if len(idx) != 12 {
		t.Fatalf("len = %d", len(idx))
	}
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			t.Fatalf("not strictly increasing: %v", idx)
		}
	}
	if got := sampleIndices(3, 5, 12); len(got) != 5 {
		t.Errorf("sample of 5 = %v", got)
	}
}
