// Spec and the experiment registry: every table and figure of the
// paper (and every extension) is declared as data — how to build its
// simulation variants and how to reduce the completed matrix to
// report tables — and registered under a stable name. Adding an
// experiment costs one Spec, not a new driver/result-struct/CLI
// wrapper triple; cmd/redsim dispatches purely over the registry.

package experiment

import (
	"fmt"
	"strings"

	"redreq/internal/report"
)

// Spec declares one experiment.
//
// Matrix experiments set Variants and Reduce: Run executes every
// (variant, replication) pair through the shared runMatrix harness and
// hands the matrix of per-run summaries — indexed [variant][rep] in
// Variants order — to Reduce. Experiments that cannot run through the matrix
// (wall-clock measurements, the single-cluster extensions) set Tables
// instead, which takes full control.
type Spec struct {
	// Name is the registry key (`redsim -run <name>`).
	Name string
	// Aliases are alternative registry keys (e.g. "fig1" and "fig2"
	// both resolve to the combined fig12 experiment).
	Aliases []string
	// Title is the human-readable heading printed above the output.
	Title string
	// Desc is a one-line description for `redsim -list`.
	Desc string
	// Params summarizes the experiment-specific knobs baked into the
	// spec (sweep positions, platform sizes) for `redsim -list`.
	// Sweep-style experiments read overrides from Options.Sweep.
	Params string
	// PositiveSweep marks a sweep axis with no zero point (platform
	// sizes, interarrival times, loads, offered rates): Run rejects a
	// zero position in Options.Sweep instead of reading it as the
	// configuration's default.
	PositiveSweep bool

	// Variants builds the simulation configurations (matrix
	// experiments only).
	Variants func(opts Options) []variant
	// Reduce turns the completed matrix of run summaries into report
	// tables (matrix experiments only).
	Reduce func(opts Options, res [][]runSummary) ([]*report.Table, error)
	// Tables bypasses the matrix harness entirely (bespoke
	// experiments only). Exactly one of Tables or Variants+Reduce
	// must be set.
	Tables func(opts Options) ([]*report.Table, error)
	// tableSims, set on a Tables spec that reports its simulations to
	// Options.Progress, gives their number under opts.
	tableSims func(opts Options) int
}

// Run executes the experiment and returns its tables.
func (s *Spec) Run(opts Options) ([]*report.Table, error) {
	for _, v := range opts.Sweep {
		if s.PositiveSweep && v <= 0 {
			return nil, fmt.Errorf("experiment: %s sweep position %g is not positive", s.Name, v)
		}
	}
	if s.Tables != nil {
		return s.Tables(opts)
	}
	res, err := runMatrix(opts, s.Variants(opts))
	if err != nil {
		return nil, err
	}
	return s.Reduce(opts, res)
}

// Report runs the experiment and wraps its tables with the registry
// name and title.
func (s *Spec) Report(opts Options) (*report.Report, error) {
	tables, err := s.Run(opts)
	if err != nil {
		return nil, err
	}
	return &report.Report{Name: s.Name, Title: s.Title, Tables: tables}, nil
}

// specs is the registry, in the order `redsim -run all` executes.
var specs = []*Spec{
	fig12Spec,
	table1Spec,
	table2Spec,
	fig3Spec,
	table3Spec,
	fig4Spec,
	table4Spec,
	sec4Spec,
	qgrowthSpec,
	inflateSpec,
	loadsweepSpec,
	ablationsSpec,
	multiqSpec,
	moldableSpec,
	faultsSpec,
	validateSpec,
	traceSpec,
	routingSpec,
	overloadSpec,
}

// All returns every registered experiment in execution order.
func All() []*Spec { return append([]*Spec(nil), specs...) }

// Lookup resolves a registry name or alias, case-insensitively.
func Lookup(name string) (*Spec, bool) {
	n := strings.ToLower(name)
	for _, s := range specs {
		if s.Name == n {
			return s, true
		}
		for _, a := range s.Aliases {
			if a == n {
				return s, true
			}
		}
	}
	return nil, false
}

// sweepOr returns the user-supplied sweep override when set, else the
// experiment's default positions.
func sweepOr(opts Options, def []float64) []float64 {
	if len(opts.Sweep) > 0 {
		return opts.Sweep
	}
	return def
}
