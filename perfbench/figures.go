package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"fvcache"
	"fvcache/internal/workload"
)

// figureDigests holds the SHA-256 of each artifact's text at test
// scale. A pass whose text hashes otherwise fails.
//
//go:embed expected/figures.json
var figureDigests []byte

// figuresPassSeconds is about how long one single-worker pass takes
// on a 2-vCPU host; the pass count is sized from it.
const figuresPassSeconds = 2

// figures is the researcher regenerating the Section 4 figures: one
// caller runs fvcache.Sweep over them with one worker, and one op is
// one full pass. One worker, because two doubled the run-to-run
// spread. Test scale, because train-scale passes (6–7s, so four a
// run) moved with the host's load by up to 40% between runs, and the
// slowest of four set p90; test-scale passes held within a few
// percent on the same host in the same minutes (see NOISE.md).
type figures struct {
	orders  [][]string
	digests map[string]string

	bytesPerAccess float64
	passes         []*fvcache.SweepResult
	errs           []error
}

func newFigures(seed int64, seconds int) (*figures, error) {
	f := &figures{orders: figureOrders(seed, max(3, seconds/figuresPassSeconds))}
	if err := json.Unmarshal(figureDigests, &f.digests); err != nil {
		return nil, fmt.Errorf("expected/figures.json: %w", err)
	}
	return f, nil
}

func (f *figures) setup(tr *tracer, tid uint64) (err error) {
	f.bytesPerAccess, err = engineSetup(tr, tid, workload.Test)
	return err
}

func (f *figures) run(tr *tracer) []sample {
	f.passes = make([]*fvcache.SweepResult, len(f.orders))
	f.errs = make([]error, len(f.orders))
	samples := make([]sample, len(f.orders))
	for i, order := range f.orders {
		// A traced run traces every other pass, so its untraced passes
		// give the base of the tracing overhead.
		var t *tracer
		if i%2 == 1 {
			t = tr
		}
		tid := t.newTrace()
		pass := t.begin("figures.pass", "", tid, -1)
		start := time.Now()
		last := start
		f.passes[i], f.errs[i] = fvcache.Sweep(context.Background(), fvcache.SweepRequest{
			Artifacts: order,
			Scale:     fvcache.Test,
			Workers:   1,
			OnArtifact: func(a fvcache.ArtifactResult) {
				now := time.Now()
				t.add("experiments."+a.ID, "", tid, pass, last, now)
				last = now
			},
		})
		samples[i] = sample{lat: time.Since(start), class: "pass", traced: t != nil}
		t.end(pass)
	}
	return samples
}

func (f *figures) verify(samples []sample) error {
	for i, res := range f.passes {
		if bad := checkPass(res, f.errs[i], f.digests); len(bad) > 0 {
			samples[i].failed = true
			fmt.Fprintf(os.Stderr, "perfbench: figures pass %d: %v\n", i, bad)
		}
	}
	return nil
}

// checkPass returns what is wrong with one pass: a sweep error, an
// artifact that did not complete, or one whose text does not hash to
// its digest (the got digest is printed, to update expected/ after an
// intended change of the figures).
func checkPass(res *fvcache.SweepResult, err error, digests map[string]string) []string {
	if err != nil {
		return []string{err.Error()}
	}
	var bad []string
	seen := 0
	for _, a := range res.Artifacts {
		sum := sha256.Sum256([]byte(a.Output))
		got := hex.EncodeToString(sum[:])
		switch want, ok := digests[a.ID]; {
		case a.Status != "done":
			bad = append(bad, fmt.Sprintf("%s %s: %s", a.ID, a.Status, a.Err))
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: digest %s, none expected", a.ID, got))
		case got != want:
			bad = append(bad, fmt.Sprintf("%s: digest %s, want %s", a.ID, got, want))
		default:
			seen++
		}
	}
	if seen != len(digests) && len(bad) == 0 {
		bad = append(bad, fmt.Sprintf("%d of %d artifacts checked", seen, len(digests)))
	}
	return bad
}

func (f *figures) layers(tr *tracer, _ []sample, m map[string]float64) error {
	m["trace.bytes_per_access"] = f.bytesPerAccess
	per := map[string][]float64{}
	for _, res := range f.passes {
		if res == nil {
			continue
		}
		for _, a := range res.Artifacts {
			per[a.ID] = append(per[a.ID], float64(a.DurationMS))
		}
	}
	for id, d := range per {
		m["experiments."+id+"_ms"] = median(d)
	}
	return probeEngine(tr, workload.Test, m)
}

func (f *figures) close() {}
