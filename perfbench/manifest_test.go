package main

import (
	"slices"
	"strings"
	"testing"
)

func TestRepositoryManifestReads(t *testing.T) {
	m, err := readManifest("../" + manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(m.EndToEnd, func(x manifestMetric) bool { return x.Name == "setup_s" && x.Unit == "s" }) {
		t.Fatal("manifest has no setup_s in s")
	}
}

func TestSelectMetrics(t *testing.T) {
	want := []manifestMetric{{"a", "s"}, {"b", "1/s"}}
	got, extra, err := selectMetrics(want, map[string]metric{"a": {1, "s"}, "b": {2, "1/s"}, "c": {3, "ms"}})
	if err != nil || len(got) != 2 || got["b"].Value != 2 || !slices.Equal(extra, []string{"c"}) {
		t.Fatalf("got %v extra %v err %v", got, extra, err)
	}
	if _, _, err := selectMetrics(want, map[string]metric{"a": {1, "s"}}); err == nil || !strings.Contains(err.Error(), "b") {
		t.Fatalf("missing metric b not reported: %v", err)
	}
	if _, _, err := selectMetrics(want, map[string]metric{"a": {1, "ms"}, "b": {2, "1/s"}}); err == nil {
		t.Fatal("wrong unit accepted")
	}
}
