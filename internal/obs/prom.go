package obs

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// MetricsFormat picks the /metrics response format for a request:
// an explicit ?format= wins, then an Accept header asking for plain
// text (what Prometheus scrapers send) selects the exposition format,
// and everything else keeps the original JSON form.
func MetricsFormat(r *http.Request) string {
	switch r.URL.Query().Get("format") {
	case "prometheus", "prom", "text":
		return "prometheus"
	case "json":
		return "json"
	}
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics") {
		return "prometheus"
	}
	return "json"
}

// Bool renders a boolean as a 0/1 gauge value.
func Bool(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// PromWriter renders metric families in the Prometheus text exposition
// format v0.0.4. Samples of one family must be written consecutively;
// the HELP/TYPE header is emitted once per family.
type PromWriter struct {
	buf     bytes.Buffer
	lastFam string
}

func (w *PromWriter) header(name, typ, help string) {
	if w.lastFam == name {
		return
	}
	w.lastFam = name
	fmt.Fprintf(&w.buf, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// Counter writes one counter sample. labels alternates key, value.
func (w *PromWriter) Counter(name, help string, labels []string, v float64) {
	w.header(name, "counter", help)
	w.sample(name, "", labels, v)
}

// Gauge writes one gauge sample.
func (w *PromWriter) Gauge(name, help string, labels []string, v float64) {
	w.header(name, "gauge", help)
	w.sample(name, "", labels, v)
}

// Histogram writes a snapshot as a full histogram family: cumulative
// _bucket series (with a closing le="+Inf"), _sum, and _count. scale
// converts recorded values to the exposed unit (1e-9 for ns → s).
func (w *PromWriter) Histogram(name, help string, labels []string, s Snapshot, scale float64) {
	w.header(name, "histogram", help)
	var cum int64
	for _, b := range s.Buckets {
		cum += b.Count
		le := strconv.FormatFloat(float64(b.Upper)*scale, 'g', 10, 64)
		w.sample(name+"_bucket", "", append(append([]string(nil), labels...), "le", le), float64(cum))
	}
	w.sample(name+"_bucket", "", append(append([]string(nil), labels...), "le", "+Inf"), float64(s.Count))
	w.sample(name+"_sum", "", labels, float64(s.Sum)*scale)
	w.sample(name+"_count", "", labels, float64(s.Count))
}

// SummaryQuantiles writes an already-digested Summary as a summary
// family with quantile labels — used for figures scraped from workers,
// where only the digest (not the buckets) crossed the wire. scale
// converts the digest's unit to the exposed one (1e-3 for ms → s).
func (w *PromWriter) SummaryQuantiles(name, help string, labels []string, s Summary, scale float64) {
	w.header(name, "summary", help)
	for _, q := range [...]struct {
		label string
		v     float64
	}{{"0.5", s.P50}, {"0.9", s.P90}, {"0.99", s.P99}, {"0.999", s.P999}} {
		w.sample(name, "", append(append([]string(nil), labels...), "quantile", q.label), q.v*scale)
	}
	w.sample(name+"_sum", "", labels, s.Sum*scale)
	w.sample(name+"_count", "", labels, float64(s.Count))
}

func (w *PromWriter) sample(name, suffix string, labels []string, v float64) {
	w.buf.WriteString(name + suffix)
	if len(labels) > 0 {
		w.buf.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				w.buf.WriteByte(',')
			}
			fmt.Fprintf(&w.buf, `%s="%s"`, labels[i], escapeLabel(labels[i+1]))
		}
		w.buf.WriteByte('}')
	}
	w.buf.WriteByte(' ')
	w.buf.WriteString(formatFloat(v))
	w.buf.WriteByte('\n')
}

// Bytes returns the rendered exposition.
func (w *PromWriter) Bytes() []byte { return w.buf.Bytes() }

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
