package cluster

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/sharon-project/sharon/internal/obs"
)

var updateSurface = flag.Bool("update-surface", false, "rewrite testdata/edge_surface.golden")

// surfaceProbes are the requests the route table is probed with: every
// route either tier serves, plus near misses. A probe records the
// pattern the mux resolves it to ("" = 404 or 405).
var surfaceProbes = [][2]string{
	{"GET", "/"}, {"GET", "/nope"},
	{"POST", "/ingest"}, {"GET", "/ingest"}, {"POST", "/ingest/stream"},
	{"POST", "/watermark"},
	{"GET", "/subscribe"}, {"GET", "/subscribe/ws"},
	{"GET", "/metrics"}, {"GET", "/debug/traces"}, {"GET", "/healthz"},
	{"GET", "/queries"}, {"POST", "/queries"}, {"DELETE", "/queries/1"},
	{"POST", "/cluster/extract"}, {"POST", "/cluster/adopt"},
	{"GET", "/cluster/workers"}, {"POST", "/cluster/workers"}, {"DELETE", "/cluster/workers"},
}

// TestEdgeSurfaceGolden pins the observable surface of both tiers — the
// route table, the JSON key paths of /metrics, and every Prometheus
// family with its type and label names (not HELP text, not values) —
// against testdata/edge_surface.golden. Regenerate deliberately with
// go test ./internal/cluster -run TestEdgeSurfaceGolden -update-surface.
func TestEdgeSurfaceGolden(t *testing.T) {
	node := startNode(t, 1, t.TempDir())
	rt, rthttp := startRouter(t, []*testNode{node})
	sub := subscribe(t, rthttp.URL)
	for _, b := range genBatches(2000, 256, 8) {
		post(t, rthttp.URL, b)
	}
	postWatermark(t, rthttp.URL, 6000)
	quiesce(t, sub, 1)

	var out []string
	for _, tier := range []struct {
		name string
		h    http.Handler
		url  string
	}{
		{"server", node.srv.Handler(), node.hs.URL},
		{"router", rt.Handler(), rthttp.URL},
	} {
		var lines []string
		mux := tier.h.(*http.ServeMux)
		for _, p := range surfaceProbes {
			_, pattern := mux.Handler(httptest.NewRequest(p[0], p[1], nil))
			lines = append(lines, fmt.Sprintf("route %s %s -> %q", p[0], p[1], pattern))
		}
		var doc any
		if err := json.Unmarshal(fetch(t, tier.url+"/metrics"), &doc); err != nil {
			t.Fatal(err)
		}
		for _, path := range jsonKeyPaths("", doc) {
			lines = append(lines, "json "+path)
		}
		lines = append(lines, promFamilies(t, fetch(t, tier.url+"/metrics?format=prometheus"))...)
		sort.Strings(lines)
		for _, l := range lines {
			out = append(out, tier.name+" "+l)
		}
	}
	got := strings.Join(out, "\n") + "\n"

	golden := filepath.Join("testdata", "edge_surface.golden")
	if *updateSurface {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("observable surface drifted from %s:\n%s", golden, lineDiff(string(want), got))
	}
}

func fetch(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return data
}

// jsonKeyPaths lists the dotted key paths of a decoded JSON document,
// with "[]" standing for every element of an array.
func jsonKeyPaths(prefix string, v any) []string {
	var out []string
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			if sub := jsonKeyPaths(p, e); len(sub) > 0 {
				out = append(out, sub...)
			} else {
				out = append(out, p)
			}
		}
	case []any:
		seen := map[string]bool{}
		for _, e := range v {
			for _, p := range jsonKeyPaths(prefix+"[]", e) {
				if !seen[p] {
					seen[p] = true
					out = append(out, p)
				}
			}
		}
	}
	return out
}

// promFamilies renders one "prom <family> <type> <label names>" line
// per exposed family. Histogram and summary samples (_bucket, _sum,
// _count) fold into their family.
func promFamilies(t *testing.T, data []byte) []string {
	t.Helper()
	types := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
		}
	}
	samples, err := obs.ParseProm(data)
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]map[string]bool{}
	for _, s := range samples {
		fam := s.Name
		if _, ok := types[fam]; !ok {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(fam, suf); base != fam && types[base] != "" {
					fam = base
				}
			}
		}
		if types[fam] == "" {
			t.Fatalf("sample %s has no TYPE line", s.Name)
		}
		if labels[fam] == nil {
			labels[fam] = map[string]bool{}
		}
		for k := range s.Labels {
			labels[fam][k] = true
		}
	}
	var out []string
	for fam, set := range labels {
		names := make([]string, 0, len(set))
		for k := range set {
			names = append(names, k)
		}
		sort.Strings(names)
		out = append(out, strings.TrimSpace(fmt.Sprintf("prom %s %s %s", fam, types[fam], strings.Join(names, ","))))
	}
	return out
}

// lineDiff lists the lines only one side has.
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}
