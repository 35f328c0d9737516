package obs

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	runtimepprof "runtime/pprof"
	"runtime/trace"
	"time"
)

// Flags is the shared observability flag set every cmd binary wires
// in: profiling hooks (-cpuprofile, -memprofile, -trace), a pprof
// debug listener (-pprof-addr), the structured log level (-log-level)
// and the telemetry snapshot path (-telemetry-out).
//
// Usage in a main:
//
//	of := obs.AddFlags(flag.CommandLine)
//	flag.Parse()
//	if err := of.Start(); err != nil { ... usage ... }
//	defer of.Stop()
type Flags struct {
	CPUProfile   string
	MemProfile   string
	Trace        string
	PprofAddr    string
	LogLevel     string
	TelemetryOut string

	cpuFile   *os.File
	traceFile *os.File
	srv       *http.Server
}

// AddFlags registers the observability flags on fs and returns the
// struct they populate after fs is parsed.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
	fs.StringVar(&f.Trace, "trace", "", "write a runtime execution trace to this file")
	fs.StringVar(&f.PprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&f.LogLevel, "log-level", "warn", "structured log level: debug, info, warn or error")
	fs.StringVar(&f.TelemetryOut, "telemetry-out", "telemetry.json", "write the telemetry snapshot to this file at exit (empty disables)")
	return f
}

// Start applies the parsed flags: sets the log level, starts CPU
// profiling and execution tracing, and launches the pprof listener.
// Call after flag parsing; pair with Stop. A bad flag value returns an
// error without starting anything.
func (f *Flags) Start() error {
	var level slog.Level
	if err := level.UnmarshalText([]byte(f.LogLevel)); err != nil {
		return fmt.Errorf("obs: -log-level: %w", err)
	}
	setLogLevel(level)
	if f.CPUProfile != "" {
		cf, err := os.Create(f.CPUProfile)
		if err != nil {
			return err
		}
		if err := runtimepprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			return fmt.Errorf("obs: starting CPU profile: %w", err)
		}
		f.cpuFile = cf
	}
	if f.Trace != "" {
		tf, err := os.Create(f.Trace)
		if err != nil {
			f.stopCPU()
			return err
		}
		if err := trace.Start(tf); err != nil {
			tf.Close()
			f.stopCPU()
			return fmt.Errorf("obs: starting execution trace: %w", err)
		}
		f.traceFile = tf
	}
	if f.PprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			Default.WritePrometheus(w)
		})
		ln, err := net.Listen("tcp", f.PprofAddr)
		if err != nil {
			f.stopTrace()
			f.stopCPU()
			return fmt.Errorf("obs: pprof listener: %w", err)
		}
		f.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go f.srv.Serve(ln)
		Log.Info("pprof listener up", "addr", ln.Addr().String())
	}
	return nil
}

// Stop finishes what Start began: stops the CPU profile and execution
// trace, writes the heap profile, shuts the pprof listener down, and
// exports the telemetry snapshot. It returns the first error, after
// attempting every step — a failed heap profile must not lose the
// telemetry artifact.
func (f *Flags) Stop() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	f.stopCPU()
	f.stopTrace()
	if f.MemProfile != "" {
		mf, err := os.Create(f.MemProfile)
		keep(err)
		if err == nil {
			runtime.GC() // materialize up-to-date heap statistics
			keep(runtimepprof.WriteHeapProfile(mf))
			keep(mf.Close())
		}
	}
	if f.srv != nil {
		keep(f.srv.Close())
		f.srv = nil
	}
	if f.TelemetryOut != "" {
		keep(WriteSnapshotFile(f.TelemetryOut, Default))
	}
	return first
}

func (f *Flags) stopCPU() {
	if f.cpuFile != nil {
		runtimepprof.StopCPUProfile()
		f.cpuFile.Close()
		f.cpuFile = nil
	}
}

func (f *Flags) stopTrace() {
	if f.traceFile != nil {
		trace.Stop()
		f.traceFile.Close()
		f.traceFile = nil
	}
}
