package experiment

import (
	"strings"
	"testing"

	"redreq/internal/core"
)

func TestRegistryWellFormed(t *testing.T) {
	seen := make(map[string]string) // key -> owning spec
	for _, s := range All() {
		if s.Name == "" || s.Title == "" || s.Desc == "" {
			t.Errorf("%q: missing name/title/desc", s.Name)
		}
		if s.Name != strings.ToLower(s.Name) {
			t.Errorf("%q: registry names are lowercase", s.Name)
		}
		keys := append([]string{s.Name}, s.Aliases...)
		for _, k := range keys {
			if owner, dup := seen[k]; dup {
				t.Errorf("key %q registered by both %q and %q", k, owner, s.Name)
			}
			seen[k] = s.Name
		}
		// Exactly one execution path: Tables, or Variants+Reduce.
		bespoke := s.Tables != nil
		matrix := s.Variants != nil && s.Reduce != nil
		if bespoke == matrix {
			t.Errorf("%q: want exactly one of Tables or Variants+Reduce", s.Name)
		}
	}
}

func TestLookup(t *testing.T) {
	for _, s := range All() {
		for _, k := range append([]string{s.Name}, s.Aliases...) {
			got, ok := Lookup(k)
			if !ok || got != s {
				t.Errorf("Lookup(%q) = %v, %v; want %q", k, got, ok, s.Name)
			}
			// Case-insensitive.
			got, ok = Lookup(strings.ToUpper(k))
			if !ok || got != s {
				t.Errorf("Lookup(%q) failed case-insensitively", strings.ToUpper(k))
			}
		}
	}
	if _, ok := Lookup("no-such-experiment"); ok {
		t.Error("Lookup accepted an unknown name")
	}
}

// TestSpecRunSmoke runs every matrix experiment at tiny scale through
// the registry path and checks each produces at least one table with
// rows. sec4 (wall-clock) and the single-cluster extensions are
// covered by their own tests and the CLI smoke.
func TestSpecRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	// Shrunk sweep axes, in each experiment's own units.
	sweeps := map[string][]float64{
		"fig12":     {2, 3},
		"fig3":      {3.43, 5.01},
		"fig4":      {0, 0.5, 1},
		"loadsweep": {0.45, 0.9},
	}
	for _, s := range All() {
		if s.Tables != nil {
			continue // bespoke: wall-clock or the extension runner
		}
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			o := tinyOpts()
			o.Sweep = sweeps[s.Name]
			if s.Name == "qgrowth" {
				// qgrowth pins a 24h horizon; tiny scale elsewhere
				// keeps the suite fast, this one test pays for it.
				o.Reps = 1
			}
			tables, err := s.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if tb.Len() == 0 {
					t.Errorf("table %q has no rows", tb.Title)
				}
				if len(tb.Columns()) == 0 {
					t.Errorf("table %q has no columns", tb.Title)
				}
			}
		})
	}
}

// TestSweepOverride pins Options.Sweep steering the sweep experiments'
// x-axes (fig12 platform sizes here).
func TestSweepOverride(t *testing.T) {
	opts := tinyOpts()
	opts.Sweep = []float64{2}
	vs := fig12Spec.Variants(opts)
	// One N position: baseline + every scheme.
	if want := 1 + len(core.Schemes); len(vs) != want {
		t.Errorf("fig12 variants = %d, want %d", len(vs), want)
	}
	for _, v := range vs {
		if !strings.HasSuffix(v.Name, "/N=2") {
			t.Errorf("variant %q ignores the sweep override", v.Name)
		}
	}
	// A zero position means "no platform", not the default one.
	opts.Sweep = []float64{2, 0}
	if _, err := fig12Spec.Run(opts); err == nil || !strings.Contains(err.Error(), "fig12 sweep position 0") {
		t.Errorf("fig12 with a zero sweep position: err = %v", err)
	}
}
