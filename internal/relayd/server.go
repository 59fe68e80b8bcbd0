package relayd

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
)

// The HTTP plane. Three operational endpoints plus read-only report
// serving:
//
//	/healthz  — liveness: 200 as long as the process serves HTTP.
//	/readyz   — readiness: 200 once the first cycle completed, 503
//	            before that and from BeginDrain onward (load balancers
//	            stop routing, the process finishes its work).
//	/metrics  — Prometheus text; every scrape refreshes the pool and
//	            readiness series before rendering.
//	/reports/ — the pipeline's rendered reports (e.g. table1.txt).

// Handler builds the service's HTTP mux.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		switch {
		case s.Draining():
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
		case !s.Ready():
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "warming up: no completed cycle yet")
		default:
			fmt.Fprintln(w, "ready")
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s.Collect()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.reg.WriteText(w); err != nil {
			// The response is already streaming; nothing to repair.
			return
		}
	})
	mux.HandleFunc("/reports/", func(w http.ResponseWriter, r *http.Request) {
		s.serveReport(w, r)
	})
	return mux
}

// serveReport serves files from <state>/reports read-only, refusing
// any path that escapes the directory.
func (s *Service) serveReport(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/reports/")
	if name == "" {
		s.listReports(w)
		return
	}
	clean := filepath.Clean(name)
	if clean != name || strings.Contains(clean, "..") || filepath.IsAbs(clean) {
		http.Error(w, "bad report path", http.StatusBadRequest)
		return
	}
	path := filepath.Join(s.cfg.Pipeline.StateDir, "reports", clean)
	b, err := os.ReadFile(path)
	if err != nil {
		http.Error(w, "no such report", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(b)
}

// listReports renders the available report names, sorted (ReadDir
// returns sorted entries).
func (s *Service) listReports(w http.ResponseWriter) {
	entries, err := os.ReadDir(filepath.Join(s.cfg.Pipeline.StateDir, "reports"))
	if err != nil {
		fmt.Fprintln(w, "no reports yet")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, e := range entries {
		if !e.IsDir() {
			fmt.Fprintln(w, e.Name())
		}
	}
}
