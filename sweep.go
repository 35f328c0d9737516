package fvcache

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fvcache/internal/experiments"
	"fvcache/internal/harness"
	"fvcache/internal/obs"
)

// ArtifactInfo names one reproducible paper artifact (a table or
// figure of the evaluation, or a Section 2 study artifact).
type ArtifactInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// Artifacts lists every reproducible artifact in execution order.
func Artifacts() []ArtifactInfo {
	all := experiments.All()
	out := make([]ArtifactInfo, len(all))
	for i, e := range all {
		out[i] = ArtifactInfo{ID: e.ID, Title: e.Title}
	}
	return out
}

// SweepRequest selects artifacts to reproduce and how to run them.
type SweepRequest struct {
	// Artifacts are the artifact IDs to run, in order; empty runs the
	// full suite.
	Artifacts []string
	// Scale selects the workload input size (the paper's headline
	// numbers use Ref).
	Scale Scale
	// Workers bounds per-artifact simulation parallelism (<=0 means
	// GOMAXPROCS).
	Workers int
	// Markdown renders tables as GitHub-flavored Markdown.
	Markdown bool
	// OutDir, when non-empty, writes one <ID>.txt per artifact into
	// the directory and maintains a resumable checkpoint manifest.
	OutDir string
	// Resume skips artifacts the checkpoint manifest records as done
	// (meaningful only with OutDir).
	Resume bool
	// Stdout receives the artifact stream when OutDir is empty (nil
	// discards it; per-artifact output is still captured in the
	// result).
	Stdout io.Writer
	// Log receives progress lines (nil discards them).
	Log io.Writer
	// OnArtifact, when non-nil, streams each executed artifact's
	// result, done or FAILED, once its outcome is final: its file
	// renamed and the checkpoint saved. It receives the same value the
	// final SweepResult holds; skipped and canceled artifacts appear
	// only there. The fvcached service uses this to stream a sweep
	// over HTTP.
	OnArtifact func(ArtifactResult)
}

// ArtifactResult is one artifact's outcome.
type ArtifactResult struct {
	ID     string `json:"id"`
	Title  string `json:"title"`
	Status string `json:"status"` // done, FAILED, skipped or canceled
	// Output is the rendered artifact text; empty in OutDir mode
	// (the artifact lives in <OutDir>/<ID>.txt) and for artifacts
	// that did not execute.
	Output     string `json:"output,omitempty"`
	Err        string `json:"err,omitempty"`
	DurationMS int64  `json:"duration_ms"`

	err     error // the failure behind Err, with any recovered stack
	ckptErr error // a checkpoint write failure after a valid artifact
}

// Artifact statuses.
const (
	statusDone     = "done"
	statusFailed   = "FAILED"
	statusSkipped  = "skipped"
	statusCanceled = "canceled"
)

// SweepResult aggregates a sweep's outcomes.
type SweepResult struct {
	Artifacts []ArtifactResult `json:"artifacts"`
	Done      int              `json:"done"`
	Skipped   int              `json:"skipped"`
	Failed    int              `json:"failed"`
	Canceled  int              `json:"canceled"`
}

// OK reports whether every artifact completed (done or skipped).
func (r *SweepResult) OK() bool { return r.Failed == 0 && r.Canceled == 0 }

// PrintSummary writes the human-readable sweep summary — one line per
// artifact, then full failure details including recovered stack
// traces, then any checkpoint write failures (a sweep whose artifacts
// all completed still reports that its resume state is stale) — the
// cmd binaries print to stderr.
func (r *SweepResult) PrintSummary(w io.Writer) {
	var ckpt []ArtifactResult
	for _, a := range r.Artifacts {
		if a.ckptErr != nil {
			ckpt = append(ckpt, a)
		}
	}
	fmt.Fprintf(w, "\nsweep summary: %d done, %d skipped, %d failed, %d canceled",
		r.Done, r.Skipped, r.Failed, r.Canceled)
	if len(ckpt) > 0 {
		fmt.Fprintf(w, ", %d checkpoint write errors", len(ckpt))
	}
	fmt.Fprintln(w)
	for _, a := range r.Artifacts {
		if a.Status == statusFailed {
			fmt.Fprintf(w, "  %-8s %-10s %s\n", a.ID, a.Status, a.Err)
		} else {
			fmt.Fprintf(w, "  %-8s %-10s\n", a.ID, a.Status)
		}
	}
	for _, a := range r.Artifacts {
		if a.Status == statusFailed {
			fmt.Fprintf(w, "\n--- %s: %s ---\n%s\n", a.ID, a.Title, a.Err)
			if stack := harness.StackOf(a.err); stack != nil {
				fmt.Fprintf(w, "%s", stack)
			}
		}
	}
	if len(ckpt) > 0 {
		fmt.Fprintf(w, "\ncheckpoint manifest write failures (artifacts are valid; a -resume rerun will redo them):\n")
		for _, a := range ckpt {
			fmt.Fprintf(w, "  %-8s %v\n", a.ID, a.ckptErr)
		}
	}
}

// Sweep reproduces the requested artifacts with per-artifact fault
// isolation: a failing artifact (error or recovered panic) is reported
// in the result while the remaining artifacts still run. Context
// cancellation stops the sweep at the next artifact boundary. The
// returned error is non-nil only for unusable requests (an unknown
// artifact ID); execution failures are reported per artifact.
func Sweep(ctx context.Context, req SweepRequest) (*SweepResult, error) {
	var todo []experiments.Experiment
	if len(req.Artifacts) == 0 {
		todo = experiments.All()
	} else {
		for _, id := range req.Artifacts {
			e, err := experiments.Get(strings.TrimSpace(id))
			if err != nil {
				return nil, err
			}
			todo = append(todo, e)
		}
	}
	// One cell cache per call: artifacts of this sweep share each
	// cache cell's miss rate, and the next call measures afresh.
	return runSweep(experiments.WithCellCache(ctx), todo, req), nil
}

// runSweep executes todo in order. A failing artifact is recorded and
// the sweep moves on, so one corrupt artifact degrades the run instead
// of killing it. With OutDir set, a checkpoint manifest keyed on the
// engine version and the rendering parameters is saved after every
// completion, and Resume skips the artifacts it records. Cancellation
// marks the artifacts not yet started canceled; the result still
// covers every artifact.
func runSweep(ctx context.Context, todo []experiments.Experiment, req SweepRequest) *SweepResult {
	logW := req.Log
	if logW == nil {
		logW = io.Discard
	}
	var manifest *harness.Manifest
	if req.OutDir != "" {
		manifest = harness.LoadManifest(req.OutDir, checkpointKey(req))
	}
	sweepSpan := obs.Begin("sweep")
	defer sweepSpan.Done()

	total := len(todo)
	var ran int
	var ranMS int64 // total wall-clock of artifacts executed this run
	res := &SweepResult{Artifacts: make([]ArtifactResult, 0, total)}
	for i, e := range todo {
		ar := ArtifactResult{ID: e.ID, Title: e.Title}
		switch {
		case ctx.Err() != nil:
			ar.Status = statusCanceled
			res.Canceled++
		case manifest != nil && req.Resume && manifest.IsDone(req.OutDir, e.ID):
			fmt.Fprintf(logW, "[%d/%d] skipping %s (checkpointed in %s)\n", i+1, total, e.ID, harness.ManifestName)
			obs.SweepTasksSkipped.Inc()
			ar.Status = statusSkipped
			res.Skipped++
		default:
			fmt.Fprintf(logW, "[%d/%d] running %s (%s)...%s\n", i+1, total, e.ID, e.Title,
				etaNote(ran, ranMS, manifest, total-i))
			obs.Log.Info("sweep task start", "task", e.ID, "index", i+1, "total", total)
			span := sweepSpan.Begin(e.ID)
			start := time.Now()
			ar.Output, ar.err, ar.ckptErr = runArtifact(ctx, e, req, manifest)
			span.Done()
			d := time.Since(start)
			ar.DurationMS = d.Milliseconds()
			ran++
			ranMS += ar.DurationMS
			obs.SweepTaskMS.Observe(uint64(ar.DurationMS))
			if ar.err != nil {
				ar.Status, ar.Err = statusFailed, ar.err.Error()
				res.Failed++
				obs.SweepTasksFailed.Inc()
				fmt.Fprintf(logW, "  FAILED in %s: %v\n", d.Truncate(time.Millisecond), ar.err)
				obs.Log.Warn("sweep task failed", "task", e.ID, "ms", ar.DurationMS, "err", ar.Err)
			} else {
				ar.Status = statusDone
				res.Done++
				obs.SweepTasksDone.Inc()
				fmt.Fprintf(logW, "  done in %s\n", d.Truncate(time.Millisecond))
				obs.Log.Info("sweep task done", "task", e.ID, "ms", ar.DurationMS)
			}
			if ar.ckptErr != nil {
				obs.CheckpointErrors.Inc()
				fmt.Fprintf(logW, "  checkpoint write failed (artifact kept): %v\n", ar.ckptErr)
				obs.Log.Warn("checkpoint write failed", "task", e.ID, "err", ar.ckptErr.Error())
			}
			if req.OnArtifact != nil {
				req.OnArtifact(ar)
			}
		}
		res.Artifacts = append(res.Artifacts, ar)
	}
	return res
}

// checkpointKey fingerprints what an artifact file depends on beyond
// its ID: a checkpoint written under another engine version, scale or
// format is discarded, since its files are stale.
func checkpointKey(req SweepRequest) string {
	return fmt.Sprintf("engine=%s scale=%s md=%v", EngineVersion, req.Scale, req.Markdown)
}

// runArtifact runs one experiment behind the panic boundary. Without
// OutDir its text goes to Stdout and comes back as output. With
// OutDir it goes to <ID>.txt.partial, renamed to <ID>.txt on success
// (a failure keeps the partial file for post-mortems but never lets it
// masquerade as a finished artifact), and the manifest records it. A
// manifest that cannot be saved leaves the artifact valid, so that
// error comes back apart from the experiment's: it must surface in the
// summary rather than fail the artifact or vanish.
func runArtifact(ctx context.Context, e experiments.Experiment, req SweepRequest, manifest *harness.Manifest) (output string, err, ckptErr error) {
	start := time.Now()
	final := e.ID + ".txt"
	var buf bytes.Buffer
	var f *os.File
	var w io.Writer = &buf
	switch {
	case req.OutDir != "":
		if f, err = os.Create(filepath.Join(req.OutDir, final+".partial")); err != nil {
			return "", err, nil
		}
		w = f
	case req.Stdout != nil:
		w = io.MultiWriter(req.Stdout, &buf)
	}
	opt := experiments.Options{Ctx: ctx, Scale: req.Scale, Workers: req.Workers, Markdown: req.Markdown}
	err = harness.Recover(func() error {
		fmt.Fprintf(w, "== %s: %s == (scale=%s)\n\n", e.ID, e.Title, req.Scale)
		if err := e.Run(opt, w); err != nil {
			return err
		}
		_, err := fmt.Fprintln(w)
		return err
	})
	if f == nil {
		return buf.String(), err, nil
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(req.OutDir, final))
	}
	if err != nil {
		return "", err, nil
	}
	manifest.MarkDone(e.ID, final, time.Since(start))
	return "", nil, manifest.Save(req.OutDir)
}

// etaSeedWeight is how many virtual artifacts the checkpoint
// manifest's recorded average contributes to the blended ETA: live
// durations from this run dominate once more than two artifacts have
// finished, so the estimate tightens as the run progresses instead of
// trusting a stale manifest (or the first, often unrepresentative,
// artifact) forever.
const etaSeedWeight = 2

// etaNote estimates the remaining sweep time by blending the average
// duration of artifacts executed this run with the checkpoint
// manifest's recorded durations (a resumed sweep knows how long its
// finished siblings took before any new artifact completes). Empty
// when no estimate is available yet. The live estimate is also
// exported as the sweep_eta_ms gauge.
func etaNote(ran int, ranMS int64, manifest *harness.Manifest, remaining int) string {
	var seedMS int64
	if manifest != nil {
		seedMS = manifest.AvgDurationMS()
	}
	avgMS := blendedAvgMS(ran, ranMS, seedMS)
	if avgMS <= 0 || remaining <= 0 {
		return ""
	}
	eta := time.Duration(avgMS*int64(remaining)) * time.Millisecond
	obs.Default.Gauge("sweep_eta_ms").Set(float64(eta.Milliseconds()))
	return fmt.Sprintf(" (eta %s)", eta.Truncate(time.Second))
}

// blendedAvgMS folds live per-artifact durations into the
// manifest-seeded average, weighting the seed as etaSeedWeight virtual
// artifacts.
func blendedAvgMS(ran int, ranMS, seedMS int64) int64 {
	switch {
	case ran > 0 && seedMS > 0:
		return (ranMS + seedMS*etaSeedWeight) / int64(ran+etaSeedWeight)
	case ran > 0:
		return ranMS / int64(ran)
	default:
		return seedMS
	}
}
