package netsim

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

const specJSON = `{
  "seed": 42,
  "controller": "ctl",
  "nodes": ["ctl", "core"],
  "links": [
    {"a": "ctl", "b": "core", "latency": "200us", "loss": 0.01},
    {"a": "core", "b": "gw0", "latency_min": "50us", "latency_max": "150us", "bandwidth_bps": 1048576},
    {"a": "core", "b": "gw1", "latency": "1ms"}
  ],
  "binds": {"gw0": "127.0.0.1:9559", "gw1": "127.0.0.1:9560"}
}`

func TestSpecBuild(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.json")
	if err := os.WriteFile(path, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, topo, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Controller != "ctl" || spec.Seed != 42 {
		t.Fatalf("spec = %+v", spec)
	}
	// Link endpoints are registered implicitly (gw0/gw1 not in nodes).
	p, err := routeProfile(topo, "ctl", "gw0")
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops != 2 || p.LatencyMin != 250*time.Microsecond || p.LatencyMax != 350*time.Microsecond {
		t.Fatalf("profile = %+v", p)
	}
	if p.Bandwidth != 1048576 {
		t.Fatalf("bandwidth = %d", p.Bandwidth)
	}
	if node := topo.binds["127.0.0.1:9559"]; node != "gw0" {
		t.Fatalf("bind node = %q", node)
	}
	if got := len(topo.binds); got != 2 {
		t.Fatalf("binds = %d", got)
	}
}

func TestSpecRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"no controller", Spec{Links: []LinkSpec{{A: "a", B: "b"}}}},
		{"bad duration", Spec{Controller: "c", Links: []LinkSpec{{A: "a", B: "b", Latency: "fast"}}}},
		{"inverted jitter", Spec{Controller: "c", Links: []LinkSpec{{A: "a", B: "b", LatencyMin: "2ms", LatencyMax: "1ms"}}}},
		{"loss out of range", Spec{Controller: "c", Links: []LinkSpec{{A: "a", B: "b", Loss: 1.5}}}},
		{"missing endpoint", Spec{Controller: "c", Links: []LinkSpec{{A: "a"}}}},
		{"bind to unknown node", Spec{Controller: "c", Binds: map[string]string{"ghost": "127.0.0.1:1"}}},
		{"self link", Spec{Controller: "c", Links: []LinkSpec{{A: "a", B: "a"}}}},
	}
	for _, tc := range cases {
		if _, err := tc.spec.Build(); err == nil {
			t.Errorf("%s: Build accepted invalid spec", tc.name)
		}
	}
}

func TestLoadSpecMissingFile(t *testing.T) {
	if _, _, err := LoadSpec(filepath.Join(t.TempDir(), "nope.json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}
