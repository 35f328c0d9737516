package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// ManifestName is the checkpoint file a sweep maintains inside its
// output directory.
const ManifestName = "manifest.json"

// ManifestEntry records one completed artifact.
type ManifestEntry struct {
	// Output is the artifact file, relative to the manifest directory.
	Output string `json:"output"`
	// CompletedAt stamps completion (UTC).
	CompletedAt time.Time `json:"completed_at"`
	// DurationMS is the wall-clock run time in milliseconds.
	DurationMS int64 `json:"duration_ms"`
}

// Manifest is the sweep checkpoint: which artifacts finished, under
// which sweep parameters. A sweep rerun with the same output directory
// and key skips every Done entry; a key change (different scale,
// format, ...) invalidates the checkpoint wholesale, since the old
// outputs were produced under different parameters.
type Manifest struct {
	Version int                      `json:"version"`
	Key     string                   `json:"key"`
	Done    map[string]ManifestEntry `json:"done"`
}

const manifestVersion = 1

// LoadManifest reads dir's checkpoint. A missing, unreadable, corrupt,
// version-mismatched or key-mismatched manifest yields a fresh one:
// resuming is an optimization, never a correctness requirement, so a
// bad checkpoint degrades to redoing work rather than failing the
// sweep.
func LoadManifest(dir, key string) *Manifest {
	fresh := &Manifest{Version: manifestVersion, Key: key, Done: map[string]ManifestEntry{}}
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return fresh
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fresh
	}
	if m.Version != manifestVersion || m.Key != key || m.Done == nil {
		return fresh
	}
	return &m
}

// Save writes the manifest atomically (temp file + rename), so an
// interrupt mid-save cannot leave a torn checkpoint.
func (m *Manifest) Save(dir string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("harness: encoding manifest: %w", err)
	}
	tmp := filepath.Join(dir, ManifestName+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("harness: writing manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestName)); err != nil {
		return fmt.Errorf("harness: committing manifest: %w", err)
	}
	return nil
}

// IsDone reports whether id completed in a previous run and its output
// file still exists under dir (a deleted output invalidates the entry).
func (m *Manifest) IsDone(dir, id string) bool {
	e, ok := m.Done[id]
	if !ok {
		return false
	}
	if _, err := os.Stat(filepath.Join(dir, e.Output)); err != nil {
		return false
	}
	return true
}

// MarkDone records id as completed.
func (m *Manifest) MarkDone(id, output string, d time.Duration) {
	m.Done[id] = ManifestEntry{Output: output, CompletedAt: time.Now().UTC(), DurationMS: d.Milliseconds()}
}

// AvgDurationMS returns the mean recorded task duration, or 0 when the
// manifest is empty. A resumed sweep seeds its progress ETA from this
// before any task of the new run completes.
func (m *Manifest) AvgDurationMS() int64 {
	if len(m.Done) == 0 {
		return 0
	}
	var sum int64
	for _, e := range m.Done {
		sum += e.DurationMS
	}
	return sum / int64(len(m.Done))
}
