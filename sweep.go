package fvcache

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"fvcache/internal/experiments"
	"fvcache/internal/harness"
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
	// result as it completes (skipped and canceled artifacts appear
	// only in the final SweepResult). The fvcached service uses this
	// to stream a sweep over HTTP.
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
}

// SweepResult aggregates a sweep's outcomes.
type SweepResult struct {
	Artifacts []ArtifactResult `json:"artifacts"`
	Done      int              `json:"done"`
	Skipped   int              `json:"skipped"`
	Failed    int              `json:"failed"`
	Canceled  int              `json:"canceled"`

	summary harness.Summary
}

// OK reports whether every artifact completed (done or skipped).
func (r *SweepResult) OK() bool { return r.Failed == 0 && r.Canceled == 0 }

// PrintSummary writes the human-readable sweep summary — one line per
// artifact, then full failure details including recovered stack
// traces — the cmd binaries print to stderr.
func (r *SweepResult) PrintSummary(w io.Writer) { r.summary.Print(w) }

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
	opt := experiments.Options{Scale: req.Scale, Workers: req.Workers, Markdown: req.Markdown}
	outputs := make([]string, len(todo)) // RunSweep executes sequentially
	tasks := make([]harness.Task, len(todo))
	for i, e := range todo {
		i, e := i, e
		tasks[i] = harness.Task{
			ID:    e.ID,
			Title: e.Title,
			Run: func(ctx context.Context, out io.Writer) error {
				var buf *bytes.Buffer
				w := out
				if req.OutDir == "" {
					// Capture the artifact text for the result (and the
					// streaming callback) while still feeding Stdout.
					buf = new(bytes.Buffer)
					if req.Stdout != nil {
						w = io.MultiWriter(req.Stdout, buf)
					} else {
						w = buf
					}
				}
				start := time.Now()
				o := opt
				o.Ctx = ctx
				fmt.Fprintf(w, "== %s: %s == (scale=%s)\n\n", e.ID, e.Title, req.Scale)
				err := e.Run(o, w)
				if err == nil {
					_, err = fmt.Fprintln(w)
				}
				if buf != nil {
					outputs[i] = buf.String()
				}
				if req.OnArtifact != nil {
					req.OnArtifact(artifactResult(
						harness.TaskResult{ID: e.ID, Title: e.Title, Status: statusOf(err), Err: err, Duration: time.Since(start)},
						outputs[i]))
				}
				return err
			},
		}
	}
	logW := req.Log
	if logW == nil {
		logW = io.Discard
	}
	// One cell cache per call: artifacts of this sweep share each
	// cache cell's miss rate, and the next call measures afresh.
	summary := harness.RunSweep(experiments.WithCellCache(ctx), tasks, harness.SweepOptions{
		OutDir: req.OutDir,
		Key:    fmt.Sprintf("scale=%s md=%v", req.Scale, req.Markdown),
		Resume: req.Resume,
		Stdout: io.Discard, // task wrappers route their own output
		Log:    logW,
	})
	res := &SweepResult{summary: summary}
	for i, tr := range summary.Results {
		res.Artifacts = append(res.Artifacts, artifactResult(tr, outputs[i]))
		switch tr.Status {
		case harness.TaskDone:
			res.Done++
		case harness.TaskSkipped:
			res.Skipped++
		case harness.TaskFailed:
			res.Failed++
		case harness.TaskCanceled:
			res.Canceled++
		}
	}
	return res, nil
}

// statusOf classifies a wrapped task run for the streaming callback.
func statusOf(err error) harness.TaskStatus {
	if err != nil {
		return harness.TaskFailed
	}
	return harness.TaskDone
}

// artifactResult converts a harness task result plus captured output
// into the public artifact result.
func artifactResult(tr harness.TaskResult, output string) ArtifactResult {
	ar := ArtifactResult{
		ID:         tr.ID,
		Title:      tr.Title,
		Status:     tr.Status.String(),
		Output:     output,
		DurationMS: tr.Duration.Milliseconds(),
	}
	if tr.Err != nil {
		ar.Err = tr.Err.Error()
	}
	return ar
}
