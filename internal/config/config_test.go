package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "raincored.json")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadOverlaysDefaults(t *testing.T) {
	p := write(t, `{
	  "mode": "gateway",
	  "node": {"id": 7, "listen": ["127.0.0.1:7007"], "rings": 4,
	           "peers": {"2": ["127.0.0.1:7002", "10.0.0.2:7002"]}},
	  "gateway": {"listen": "127.0.0.1:9007", "read_mode": "bounded",
	              "cache_ttl_ms": 5}
	}`)
	cfg, err := Load(p)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != ModeGateway || cfg.Node.ID != 7 || cfg.Node.Rings != 4 {
		t.Fatalf("file fields lost: %+v", cfg)
	}
	if cfg.Gateway.ReadMode != "bounded" {
		t.Fatalf("explicit read_mode was overridden: %q", cfg.Gateway.ReadMode)
	}
	if got := cfg.Gateway.CacheTTL(); got.Milliseconds() != 5 {
		t.Fatalf("cache ttl = %v", got)
	}
	// Fields the file does not mention keep their defaults.
	if cfg.Node.TokenHoldMS != 100 || cfg.Node.HungryMS != 500 {
		t.Fatalf("defaults lost: %+v", cfg.Node)
	}
	if cfg.Gateway.DefaultTimeoutMS != 2000 || cfg.Gateway.MaxStalenessMS != 50 {
		t.Fatalf("gateway defaults lost: %+v", cfg.Gateway)
	}
	if len(cfg.Node.Peers["2"]) != 2 {
		t.Fatalf("peers lost: %+v", cfg.Node.Peers)
	}
}

func TestLoadRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":       `{"node": {"id": 1}, "typo_knob": true}`,
		"bad mode":            `{"mode": "proxy"}`,
		"gateway sans listen": `{"mode": "gateway"}`,
		"bad read mode":       `{"gateway": {"read_mode": "strong"}}`,
		"bad peer key":        `{"node": {"peers": {"zero": ["a:1"]}}}`,
		"zero peer id":        `{"node": {"peers": {"0": ["a:1"]}}}`,
		"empty listen":        `{"node": {"listen": []}}`,
		"not json":            `token_hold = 100`,
	}
	for name, body := range cases {
		if _, err := Load(write(t, body)); err == nil {
			t.Errorf("%s: Load accepted %q", name, body)
		}
	}
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("Load accepted a missing file")
	}
}

// TestLoadRejectsRemovedKeys pins that a file written for an older
// daemon fails loudly, naming the knob, instead of silently running with
// a setting that no longer exists.
func TestLoadRejectsRemovedKeys(t *testing.T) {
	cases := map[string]string{
		"write_batch_disabled":  `{"node": {"write_batch_disabled": true}}`,
		"write_batch_max_ops":   `{"node": {"write_batch_max_ops": 64}}`,
		"write_batch_max_bytes": `{"node": {"write_batch_max_bytes": 4096}}`,
		"write_batch_linger_ms": `{"node": {"write_batch_linger_ms": 1}}`,
		"coalesce":              `{"gateway": {"coalesce": false}}`,
	}
	for key, body := range cases {
		_, err := Load(write(t, body))
		if err == nil {
			t.Errorf("Load accepted removed key %q", key)
			continue
		}
		if !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("error for removed key %q does not name it: %v", key, err)
		}
	}
}

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
}
