package redislike

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"
)

// latencyBounds are the command-latency histogram bucket upper bounds
// in seconds: powers of four from 1µs to ~4s, so one set of buckets
// resolves both a 2µs g.query and a multi-second graph.pagerank.
var latencyBounds = [...]float64{
	1e-06, 4e-06, 1.6e-05, 6.4e-05, 2.56e-04, 1.024e-03,
	4.096e-03, 1.6384e-02, 6.5536e-02, 2.62144e-01, 1.048576, 4.194304,
}

// cmdMetrics meters one command: call/error counters and a cumulative
// latency histogram. All fields are atomics — dispatch records with two
// atomic adds and never takes a lock.
type cmdMetrics struct {
	calls   atomic.Uint64
	errs    atomic.Uint64
	sumNS   atomic.Uint64
	buckets [len(latencyBounds) + 1]atomic.Uint64 // +1: the +Inf bucket
}

func (m *cmdMetrics) observe(d time.Duration, failed bool) {
	m.calls.Add(1)
	if failed {
		m.errs.Add(1)
	}
	m.sumNS.Add(uint64(d.Nanoseconds()))
	secs := d.Seconds()
	i := 0
	for i < len(latencyBounds) && secs > latencyBounds[i] {
		i++
	}
	m.buckets[i].Add(1)
}

// Metrics is the server's observability state: connection-lifecycle
// counters and the meter of unknown commands, exported in Prometheus
// text format beside the per-command meters. A registered command's
// meter lives on its Command, so the serve loop meters with a few atomic
// adds and never looks a name up.
type Metrics struct {
	start time.Time

	// unknown pools the dispatches of unregistered names, so a client
	// sending made-up names cannot grow the meter set.
	unknown cmdMetrics

	connsAccepted atomic.Uint64
	connsRejected atomic.Uint64
	connsActive   atomic.Int64
}

// MetricsWriter emits Prometheus text-format samples, writing each
// metric's HELP/TYPE header exactly once however many labeled samples
// it gets.
type MetricsWriter struct {
	w    *bufio.Writer
	seen map[string]bool
	err  error
}

func newMetricsWriter(w io.Writer) *MetricsWriter {
	return &MetricsWriter{w: bufio.NewWriter(w), seen: make(map[string]bool)}
}

func (mw *MetricsWriter) header(name, typ, help string) {
	if mw.seen[name] || mw.err != nil {
		return
	}
	mw.seen[name] = true
	_, err := fmt.Fprintf(mw.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	if mw.err == nil {
		mw.err = err
	}
}

func (mw *MetricsWriter) sample(name, labels string, v float64) {
	if mw.err != nil {
		return
	}
	var err error
	if labels == "" {
		_, err = fmt.Fprintf(mw.w, "%s %s\n", name, formatValue(v))
	} else {
		_, err = fmt.Fprintf(mw.w, "%s{%s} %s\n", name, labels, formatValue(v))
	}
	mw.err = err
}

func formatValue(v float64) string {
	if v == float64(uint64(v)) {
		return strconv.FormatUint(uint64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter emits one counter sample.
func (mw *MetricsWriter) Counter(name, help string, v float64) {
	mw.header(name, "counter", help)
	mw.sample(name, "", v)
}

// Gauge emits one gauge sample.
func (mw *MetricsWriter) Gauge(name, help string, v float64) {
	mw.header(name, "gauge", help)
	mw.sample(name, "", v)
}

// Flush drains the buffered output, reporting the first write error.
func (mw *MetricsWriter) Flush() error {
	if err := mw.w.Flush(); mw.err == nil {
		mw.err = err
	}
	return mw.err
}

// writeCommandMetrics emits the per-command counters and histograms.
func (m *Metrics) writeCommandMetrics(mw *MetricsWriter, cmds []*Command) {
	mw.header("cg_commands_total", "counter", "Commands dispatched, by command name.")
	mw.header("cg_command_errors_total", "counter", "Commands that returned an error reply, by command name.")
	mw.header("cg_command_seconds", "histogram", "Command service time in seconds, by command name.")
	// The table in name order, then the pooled "unknown" meter, so
	// scrapes are deterministic.
	for _, c := range cmds {
		writeCommandMeter(mw, c.Name, c.metrics)
	}
	writeCommandMeter(mw, "unknown", &m.unknown)
}

func writeCommandMeter(mw *MetricsWriter, name string, cm *cmdMetrics) {
	label := `cmd="` + name + `"`
	mw.sample("cg_commands_total", label, float64(cm.calls.Load()))
	mw.sample("cg_command_errors_total", label, float64(cm.errs.Load()))
	cum := uint64(0)
	for i, b := range latencyBounds {
		cum += cm.buckets[i].Load()
		mw.sample("cg_command_seconds_bucket",
			label+`,le="`+strconv.FormatFloat(b, 'g', -1, 64)+`"`, float64(cum))
	}
	cum += cm.buckets[len(latencyBounds)].Load()
	mw.sample("cg_command_seconds_bucket", label+`,le="+Inf"`, float64(cum))
	mw.sample("cg_command_seconds_sum", label, float64(cm.sumNS.Load())/1e9)
	mw.sample("cg_command_seconds_count", label, float64(cum))
}

// WriteMetrics renders the full scrape: server gauges, per-command
// meters, then the graph module's series.
func (s *Server) WriteMetrics(w io.Writer) error {
	mw := newMetricsWriter(w)
	mw.Gauge("cg_uptime_seconds", "Seconds since the server started.", time.Since(s.metrics.start).Seconds())
	writeMetrics(mw, "cg_", s.serverRows())
	mw.Gauge("cg_commands_registered", "Commands in the registry.", float64(len(s.sorted)))
	s.metrics.writeCommandMetrics(mw, s.sorted)
	if s.gm != nil {
		s.gm.collectMetrics(mw)
	}
	return mw.Flush()
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// MetricsHandler serves the Prometheus text exposition of WriteMetrics.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.WriteMetrics(w); err != nil {
			s.log.Warn("metrics scrape failed", "err", err)
		}
	})
}

// EnablePprof mounts the net/http/pprof profiling handlers under
// /debug/pprof/ on the metrics listener. Call it before ListenMetrics;
// the handlers expose heap, CPU and goroutine profiles of the serving
// plane, so keep the listener on a private interface.
func (s *Server) EnablePprof() { s.pprofOn.Store(true) }

// ListenMetrics starts the observability HTTP listener on addr, serving
// GET /metrics (Prometheus text format), GET /healthz (liveness: 200
// while the process serves, 503 once draining — a degraded server is
// alive and says so in the body), GET /readyz (readiness: 503 while
// draining, degraded, or a replica is still bootstrapping — the signal a
// load balancer should route on) and — after EnablePprof — the
// /debug/pprof/ profile endpoints. It returns the bound address; the
// listener is closed during Shutdown.
func (s *Server) ListenMetrics(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.MetricsHandler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining() {
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
			return
		}
		if reason := s.degraded.Load(); reason != nil {
			fmt.Fprintln(w, "ok (degraded: "+*reason+")")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Ready(); err != nil {
			http.Error(w, "not ready: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	if s.pprofOn.Load() {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{Handler: mux}
	s.connMu.Lock()
	s.metricsSrv = srv
	s.connMu.Unlock()
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.log.Warn("metrics listener failed", "err", err)
		}
	}()
	return ln.Addr().String(), nil
}
