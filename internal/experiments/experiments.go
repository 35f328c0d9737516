// Package experiments reproduces every table and figure in the paper's
// evaluation. Each experiment is registered under the paper's artifact
// id (fig1..fig15, tab1..tab4), runs the synthetic workload suite
// through the simulator, and renders its results next to the paper's
// reference numbers so shape can be compared at a glance.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"fvcache/internal/core"
	"fvcache/internal/harness"
	"fvcache/internal/report"
	"fvcache/internal/sim"
	"fvcache/internal/trace"
	"fvcache/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Scale selects the workload input size (default Ref).
	Scale workload.Scale
	// Workers bounds simulation parallelism (<=0 means GOMAXPROCS).
	Workers int
	// Markdown renders tables as GitHub-flavored Markdown instead of
	// aligned text.
	Markdown bool
	// Ctx cancels in-flight simulation fan-out (nil means Background).
	// The cmd binaries wire their -timeout / SIGINT context here.
	Ctx context.Context
}

// DefaultOptions runs on reference inputs with full parallelism.
func DefaultOptions() Options { return Options{Scale: workload.Ref} }

// context returns the run's cancellation context.
func (o Options) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// pmap fans fn(0..n-1) across opt.Workers goroutines through the
// harness: a panicking task becomes an error with its stack, the first
// failure cancels the remaining tasks, and opt.Ctx cancellation is
// observed between tasks. Every experiment's fan-out goes through
// here or through measureCells's harness.Map, so no Run can take down
// a sweep.
func pmap[T any](opt Options, n int, fn func(i int) (T, error)) ([]T, error) {
	return harness.Map(opt.context(), n, opt.Workers,
		func(_ context.Context, i int) (T, error) { return fn(i) })
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the paper artifact id, e.g. "fig10" or "tab3".
	ID string
	// Title describes the artifact.
	Title string
	// Run executes the experiment and renders to out.
	Run func(opt Options, out io.Writer) error
}

var (
	regMu    sync.Mutex
	registry = map[string]Experiment{}
)

func register(e Experiment) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, error) {
	regMu.Lock()
	defer regMu.Unlock()
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return e, nil
}

// All returns every experiment in a stable order (figures then tables,
// numerically).
func All() []Experiment {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return orderKey(out[i].ID) < orderKey(out[j].ID) })
	return out
}

// orderKey sorts fig1 < fig2 < ... < fig15 < tab1 < ... < extensions,
// despite the mixed alphanumeric ids.
func orderKey(id string) string {
	var n int
	if _, err := fmt.Sscanf(id, "fig%d", &n); err == nil {
		return fmt.Sprintf("a%03d", n)
	}
	if _, err := fmt.Sscanf(id, "tab%d", &n); err == nil {
		return fmt.Sprintf("b%03d", n)
	}
	return "c" + id
}

// topAccessed returns the top-k frequently accessed values for w at
// scale, via the sim-level singleflight profile cache (the profile
// pass is pure, so every sweep shares one histogram scan per workload).
func topAccessed(w workload.Workload, scale workload.Scale, k int) []uint32 {
	return sim.Profiles.TopAccessed(w, scale, k)
}

// recording returns the shared recording of w at scale from the
// process-wide cache: every sweep records each (workload, scale) once
// and fans the replays across harness workers.
func recording(w workload.Workload, scale workload.Scale) (*trace.Recording, error) {
	rec, err := sim.Recordings.Get(w, scale)
	if err != nil {
		return nil, fmt.Errorf("recording %s: %w", w.Name(), err)
	}
	return rec, nil
}

// measureRec is sim.Measure driven from the shared recording of w.
func measureRec(w workload.Workload, scale workload.Scale, cfg core.Config, mo sim.MeasureOptions) (sim.MeasureResult, error) {
	rec, err := recording(w, scale)
	if err != nil {
		return sim.MeasureResult{}, err
	}
	res, err := sim.MeasureRecorded(rec, cfg, mo)
	if err != nil {
		return sim.MeasureResult{}, fmt.Errorf("measuring %s: %w", w.Name(), err)
	}
	return res, nil
}

// measureBatch replays w's shared recording once, driving every config
// in cfgs in lockstep through the fused batch engine. It serves the
// experiments that need more than a miss rate; those that need only
// that ask measureCells.
func measureBatch(w workload.Workload, scale workload.Scale, cfgs []core.Config, mo sim.MeasureOptions) ([]sim.MeasureResult, error) {
	rec, err := recording(w, scale)
	if err != nil {
		return nil, err
	}
	if mo.Label == "" {
		mo.Label = w.Name()
	}
	res, err := sim.MeasureRecordedBatch(rec, cfgs, mo)
	if err != nil {
		return nil, fmt.Errorf("measuring %s: %w", w.Name(), err)
	}
	return res, nil
}

// suite resolves a list of workload names, failing (not panicking) on
// an unknown name so the error reaches the sweep summary.
func suite(names ...string) ([]workload.Workload, error) {
	out := make([]workload.Workload, 0, len(names))
	for _, n := range names {
		w, err := workload.Get(n)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// fvlSuite lists the FVL six in a stable order mirroring the paper's
// benchmark order.
func fvlSuite() ([]workload.Workload, error) {
	return suite("goboard", "cpusim", "ccomp", "lispint", "strproc", "objdb")
}

// intSuite lists all eight integer workloads in paper order.
func intSuite() ([]workload.Workload, error) {
	return suite("goboard", "cpusim", "ccomp", "lispint", "strproc", "objdb", "lzcomp", "imgdct")
}

// render writes a table in the format the options request.
func render(opt Options, out io.Writer, t *report.Table) {
	if opt.Markdown {
		t.Markdown(out)
		return
	}
	t.Render(out)
}

// label renders "workload (analogue)" for table rows.
func label(w workload.Workload) string {
	return fmt.Sprintf("%s (%s)", w.Name(), w.Analogue())
}

// reduction returns the percentage reduction from base to aug.
func reduction(base, aug float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - aug) / base * 100
}
