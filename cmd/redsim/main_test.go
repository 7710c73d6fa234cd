package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"redreq/internal/experiment"
)

// Regenerate the golden fixtures after an intentional numeric change:
//
//	go test ./cmd/redsim -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden fixtures in testdata/")

// goldenExperiments are the fixed-seed experiments whose quick-scale
// JSON output is pinned byte-for-byte, each with the extra flags its
// fixture was generated with: sweep experiments run at one or two
// positions of their axis to keep the test fast. sec4 and the
// wall-clock layers are excluded (nondeterministic).
var goldenExperiments = []struct {
	name  string
	extra []string
}{
	{"table1", nil},
	{"table4", nil},
	{"fig4", nil},
	{"qgrowth", nil},
	{"inflate", nil},
	{"faults", nil},
	{"validate", nil},
	{"trace", nil},
	{"routing", nil},
	{"fig12", []string{"-sweep", "2,3"}},
	{"fig3", []string{"-sweep", "4.9"}},
	{"loadsweep", []string{"-sweep", "0.9"}},
	{"table2", nil},
	{"table3", nil},
	{"ablations", nil},
	{"multiq", nil},
	{"moldable", nil},
}

// quickArgs is the reduced-scale configuration the fixtures were
// generated with (matches experiment.Quick()).
func quickArgs(name string) []string {
	return []string{"-run", name, "-format", "json", "-reps", "3", "-horizon", "3600", "-q"}
}

func TestGoldenJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full experiments")
	}
	for _, g := range goldenExperiments {
		name := g.name
		args := append(quickArgs(name), g.extra...)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var out, errb bytes.Buffer
			if code := run(args, &out, &errb); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
			}
			golden := filepath.Join("testdata", name+"_quick.json")
			if *update {
				if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output differs from %s\n--- got ---\n%s\n--- want ---\n%s",
					golden, out.Bytes(), want)
			}
			// The fixture itself must be valid JSON.
			var doc []map[string]any
			if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
				t.Fatalf("output is not a JSON array: %v", err)
			}
			if len(doc) != 1 || doc[0]["name"] != name {
				t.Errorf("array = %d reports, first name = %v", len(doc), doc[0]["name"])
			}
		})
	}
}

func TestList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	for _, s := range experiment.All() {
		if !strings.Contains(out.String(), s.Name) {
			t.Errorf("-list missing %q:\n%s", s.Name, out.String())
		}
	}
}

func TestUnknownExperimentExitsUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-run", "nope"}, &out, &errb); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), `unknown experiment "nope"`) {
		t.Errorf("stderr missing diagnosis:\n%s", errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("usage error wrote to stdout:\n%s", out.String())
	}
}

func TestBadFormatExitsUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-run", "table1", "-format", "xml"}, &out, &errb); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown format") {
		t.Errorf("stderr missing diagnosis:\n%s", errb.String())
	}
}

// TestBadFlagExitsUsage covers removed flags too: they are unknown
// flags, not silently ignored ones.
func TestBadFlagExitsUsage(t *testing.T) {
	for _, argv := range [][]string{{"-no-such-flag"}, {"-shards", "1", "-run", "table1"}} {
		var out, errb bytes.Buffer
		if code := run(argv, &out, &errb); code != 2 {
			t.Errorf("%v: exit = %d, want 2", argv, code)
		}
		if !strings.Contains(errb.String(), "flag provided but not defined") {
			t.Errorf("%v: stderr missing diagnosis:\n%s", argv, errb.String())
		}
	}
}

// TestParseSweep pins the -sweep syntax: non-negative finite numbers,
// zero included (sec4's empty queue, faults' loss-free row); each
// experiment rejects positions its own axis has no meaning for.
func TestParseSweep(t *testing.T) {
	if got, err := parseSweep("0, 10000,2.5"); err != nil || len(got) != 3 || got[0] != 0 || got[1] != 10000 || got[2] != 2.5 {
		t.Errorf("parseSweep(0,10000,2.5) = %v, %v", got, err)
	}
	for _, bad := range []string{"-1", "inf", "NaN", "x", ""} {
		if _, err := parseSweep("10," + bad); err == nil {
			t.Errorf("parseSweep(10,%s) accepted", bad)
		}
	}
}

func TestPositionalArgsExitUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"table1"}, &out, &errb); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}

// TestRuntimeErrorExitsOne drives a registry experiment into a runtime
// failure (zero replications) and checks the non-zero exit and stderr
// diagnosis — the exit-code contract the old per-experiment wrappers
// enforced inconsistently.
func TestRuntimeErrorExitsOne(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-run", "table1", "-reps", "0", "-q"}, &out, &errb); code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "Reps must be >= 1") {
		t.Errorf("stderr missing cause:\n%s", errb.String())
	}
}

// TestMultiRunJSON checks comma-separated selection and that the JSON
// stream is one array with the experiments in the requested order.
func TestMultiRunJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	var out, errb bytes.Buffer
	args := []string{"-run", "inflate,table1", "-format", "json",
		"-reps", "2", "-horizon", "900", "-nodes", "32", "-q"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	var doc []struct {
		Name   string `json:"name"`
		Tables []struct {
			Columns []string         `json:"columns"`
			Rows    []map[string]any `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if len(doc) != 2 || doc[0].Name != "inflate" || doc[1].Name != "table1" {
		t.Fatalf("wrong reports: %+v", doc)
	}
	for _, rep := range doc {
		if len(rep.Tables) == 0 || len(rep.Tables[0].Rows) == 0 {
			t.Errorf("%s: empty tables", rep.Name)
		}
	}
}

// TestOutDirWritesFiles checks -out writes one file per experiment in
// the chosen format.
func TestOutDirWritesFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	dir := t.TempDir()
	var out, errb bytes.Buffer
	args := []string{"-run", "inflate", "-format", "csv", "-out", dir,
		"-reps", "2", "-horizon", "900", "-nodes", "32", "-q"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("-out still wrote to stdout:\n%s", out.String())
	}
	raw, err := os.ReadFile(filepath.Join(dir, "inflate.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), "# experiment: inflate\n") {
		t.Errorf("csv file content:\n%s", raw)
	}
}

// TestCSVStdout checks the csv format on stdout parses and leads with
// the experiment comment.
func TestCSVStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	var out, errb bytes.Buffer
	args := []string{"-run", "table1", "-format", "csv",
		"-reps", "2", "-horizon", "900", "-nodes", "32", "-q"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	lines := strings.Split(out.String(), "\n")
	if lines[0] != "# experiment: table1" {
		t.Errorf("first line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "algorithm,") {
		t.Errorf("header line = %q", lines[2])
	}
}

// TestDeterministicAcrossWorkersAndCache pins the memoization and
// shared-pool scheduling as pure wall-clock optimizations: a fixed-seed
// multi-experiment run must produce byte-identical JSON whether
// simulations run on one worker or eight, with the cache on or off.
// The set spans matrix experiments, a scheme sweep, the multi-queue
// extension (which runs outside the matrix), and fault injection; qgrowth is left out only because its
// pinned 24h horizon would dominate the suite (TestGoldenJSON covers
// it cache-on).
func TestDeterministicAcrossWorkersAndCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments several times")
	}
	base := []string{"-run", "table1,fig4,inflate,multiq,faults", "-format", "json",
		"-reps", "2", "-horizon", "900", "-nodes", "32", "-q"}
	configs := map[string][]string{
		"workers=1":           append([]string(nil), append(base, "-workers", "1")...),
		"workers=8":           append([]string(nil), append(base, "-workers", "8")...),
		"workers=8,cache=off": append([]string(nil), append(base, "-workers", "8", "-cache", "off")...),
	}
	outputs := map[string]string{}
	for name, args := range configs {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%s: exit %d, stderr:\n%s", name, code, errb.String())
		}
		outputs[name] = out.String()
	}
	want := outputs["workers=1"]
	if want == "" {
		t.Fatal("workers=1 produced no output")
	}
	for name, got := range outputs {
		if got != want {
			t.Errorf("%s output differs from workers=1 (%d vs %d bytes)", name, len(got), len(want))
		}
	}
}

// TestTraceDeterministicAcrossWorkers pins -trace output to the
// (variant, rep) order of the runs: the routing study's queue-depth
// series and gauges must read the same at one worker and at two, and
// in two runs at two workers, however the workers' runs interleave.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the routing study three times")
	}
	// The report and, behind it, the trace tables, both on run's stdout.
	trace := func(workers string) string {
		t.Helper()
		var out, errb bytes.Buffer
		args := []string{"-run", "routing", "-reps", "2", "-horizon", "900", "-q", "-workers", workers, "-trace", "-"}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("-workers %s: exit %d, stderr:\n%s", workers, code, errb.String())
		}
		return out.String()
	}
	want := trace("1")
	if !strings.Contains(want, "queue_depth") {
		t.Fatal("-trace printed no queue-depth series")
	}
	for i := 0; i < 2; i++ {
		if got := trace("2"); got != want {
			t.Fatalf("-workers 2 run %d: trace differs from -workers 1:\n%s", i+1, firstDiff(want, got))
		}
	}
}

// firstDiff returns the first line where two outputs differ.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return "want " + w[i] + "\ngot  " + g[i]
		}
	}
	return "outputs differ in length"
}

// TestCacheFlagValidation rejects cache modes other than on/off.
func TestCacheFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-run", "table1", "-cache", "maybe"}, &out, &errb); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown cache mode") {
		t.Errorf("stderr missing diagnosis:\n%s", errb.String())
	}
}

// TestBadRoutingExitsUsage rejects unknown routing policies.
func TestBadRoutingExitsUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-run", "table1", "-routing", "psychic"}, &out, &errb); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown routing policy") {
		t.Errorf("stderr missing diagnosis:\n%s", errb.String())
	}
}

// TestNonFiniteFlagExitsUsage rejects NaN and infinite float flags
// before any simulation starts: -load NaN used to hang calibration and
// -horizon +Inf to run without end.
func TestNonFiniteFlagExitsUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-load", "NaN"},
		{"-horizon", "+Inf"},
		{"-horizon", "NaN"},
		{"-staleness", "NaN"},
		{"-minrt", "-Inf"},
		{"-maxrt", "Inf"},
	} {
		var out, errb bytes.Buffer
		argv := append([]string{"-run", "routing", "-reps", "1", "-nodes", "16", "-q"}, args...)
		if code := run(argv, &out, &errb); code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
		if !strings.Contains(errb.String(), "want a finite number") {
			t.Errorf("%v: stderr missing diagnosis:\n%s", args, errb.String())
		}
	}
}

// TestExtensionProgress checks that the multiq and moldable
// comparisons, which run outside the matrix harness, report each of
// their Reps x 2 simulations: the progress line counts up to 12/12.
func TestExtensionProgress(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-run", "multiq,moldable", "-reps", "3"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	ticks := regexp.MustCompile(`(\d+)/(\d+) simulations`).FindAllStringSubmatch(errb.String(), -1)
	if len(ticks) == 0 {
		t.Fatalf("no progress line; stderr:\n%s", errb.String())
	}
	last := 0
	for _, m := range ticks {
		done, _ := strconv.Atoi(m[1])
		if done <= last || m[2] != "12" {
			t.Fatalf("progress update %q after %d/12; stderr:\n%s", m[0], last, errb.String())
		}
		last = done
	}
	if !strings.Contains(errb.String(), "\r12/12 simulations\n") {
		t.Errorf("progress line does not end at 12/12; stderr:\n%s", errb.String())
	}
}

// TestBadOrderingExitsUsage rejects unknown queue orderings.
func TestBadOrderingExitsUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-run", "table1", "-ordering", "lifo"}, &out, &errb); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown ordering") {
		t.Errorf("stderr missing diagnosis:\n%s", errb.String())
	}
}
