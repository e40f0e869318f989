package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// manifestPath is the benchmark's manifest, relative to the repository
// root the benchmark runs from. It names the metrics every run must
// report: every end-to-end metric untraced, every per-layer metric
// traced, on every workload.
const manifestPath = "BENCHMARK.json"

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("manifest: %w (run from the repository root)", err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", path, err)
	}
	if len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		return nil, fmt.Errorf("manifest %s lists no metrics", path)
	}
	return &m, nil
}

// selectMetrics returns the measured metrics the manifest wants, and
// the names of the measured ones it does not want (sorted; the report
// prints them as notes). A wanted metric that was not measured, or was
// measured in another unit, is an error: the result line must hold
// every metric of the manifest.
func selectMetrics(want []manifestMetric, measured map[string]metric) (map[string]metric, []string, error) {
	out := make(map[string]metric, len(want))
	var missing []string
	for _, w := range want {
		m, ok := measured[w.Name]
		switch {
		case !ok:
			missing = append(missing, w.Name)
		case m.Unit != w.Unit:
			return nil, nil, fmt.Errorf("metric %s measured in %s, manifest says %s", w.Name, m.Unit, w.Unit)
		default:
			out[w.Name] = m
		}
	}
	var extra []string
	for n := range measured {
		if _, ok := out[n]; !ok {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	if len(missing) > 0 {
		return nil, extra, fmt.Errorf("metrics not measured on this workload: %v", missing)
	}
	return out, extra, nil
}
