package obs

import (
	"io"
	"log/slog"
	"math"
	"os"
)

// logLevel is Log's minimum level: warnings and up by default so
// binaries stay quiet; the shared -log-level flag lowers it.
var logLevel = new(slog.LevelVar)

// Log is the process-wide structured logger: one JSON object per line
// on stderr (time, level, msg and the caller's key/value fields).
// Lines below the level are dropped before any formatting work.
var Log = newLogger(os.Stderr)

func init() { setLogLevel(slog.LevelWarn) }

// newLogger returns a JSON-lines logger on w gated by logLevel.
func newLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: logLevel}))
}

// setLogLevel sets Log's minimum level. With telemetry compiled out
// (obsoff) the level sits above every level there is, so Log emits
// nothing.
func setLogLevel(l slog.Level) {
	if !Enabled {
		l = math.MaxInt
	}
	logLevel.Set(l)
}
