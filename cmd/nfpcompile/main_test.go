package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nfp/internal/nfa"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

func TestLoadPolicyChain(t *testing.T) {
	pol, err := loadPolicy("", "ids, monitor ,lb")
	if err != nil {
		t.Fatal(err)
	}
	if len(pol.Rules) != 2 {
		t.Errorf("rules = %v", pol.Rules)
	}
}

func TestLoadPolicyErrors(t *testing.T) {
	if _, err := loadPolicy("", ""); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := loadPolicy("x", "y"); err == nil {
		t.Error("both inputs accepted")
	}
	if _, err := loadPolicy("", "no-such-nf"); err == nil {
		t.Error("unknown NF accepted")
	} else if want := strings.Join(nfa.Names(), ", "); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not list the known NFs %q", err, want)
	}
	if _, err := loadPolicy("/does/not/exist.pol", ""); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadPolicyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.pol")
	if err := os.WriteFile(path, []byte("Order(monitor, before, lb)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pol, err := loadPolicy(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(pol.Rules) != 1 {
		t.Errorf("rules = %v", pol.Rules)
	}
}

// TestGoldenReport pins the report, stages block included, for the
// stateful workloads' chain, the Fig 13 north-south chain and the
// two-join Priority policy `./ci.sh twostage` runs (go test -update
// rewrites the files).
func TestGoldenReport(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"stateful", []string{"-chain", "firewall,monitor,lb"}},
		{"northsouth", []string{"-chain", "vpn,monitor,firewall,lb"}},
		{"twostage", []string{"-policy", filepath.Join("testdata", "twostage.pol")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if out.String() != string(want) {
				t.Errorf("nfpcompile %s:\n%s\nwant (%s):\n%s", strings.Join(tc.args, " "), out.String(), path, want)
			}
		})
	}
}
