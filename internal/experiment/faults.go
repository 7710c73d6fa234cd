// Spec for the fault-injection experiment: how the paper's verdict on
// redundant requests shifts when the control plane is unreliable. The
// paper assumes loser cancels always succeed; here a fraction of them
// is lost, each lost cancel orphans a copy that keeps its queue slot
// and, once started, burns real capacity. The experiment sweeps the
// cancel-loss rate against every scheme and reports stretch and CV
// relative to the fault-free no-redundancy baseline, plus the wasted
// capacity orphans consume.

package experiment

import (
	"fmt"

	"redreq/internal/core"
	"redreq/internal/fault"
	"redreq/internal/report"
)

// defaultCancelLoss is the swept cancel-loss probability; the zero
// point anchors each scheme to its reliable-control-plane behavior.
var defaultCancelLoss = []float64{0, 0.10, 0.25, 0.50}

const faultsClusters = 10

// faultsGroups builds the matrix: every scheme x loss against one
// fault-free NONE baseline, loss by loss. Baseline jobs are never
// redundant, so cancel loss cannot touch them — one baseline serves
// every row.
func faultsGroups(opts Options) []compared {
	g := compared{base: variant{Name: "NONE", Config: opts.base(faultsClusters)}}
	for _, loss := range sweepOr(opts, defaultCancelLoss) {
		for _, s := range core.Schemes {
			cfg := opts.base(faultsClusters)
			cfg.Scheme = s
			if loss > 0 {
				cfg.Faults = &fault.Plan{CancelLoss: loss}
			}
			g.cells = append(g.cells, variant{Name: fmt.Sprintf("%s/loss=%g", s, loss), Config: cfg})
		}
	}
	return []compared{g}
}

// wastedFraction is the share of consumed CPU-seconds burned by
// orphans in one run: orphan CPU over orphan-plus-useful CPU.
func wastedFraction(r *core.Result) float64 {
	useful := 0.0
	for i := range r.Jobs {
		j := &r.Jobs[i]
		useful += j.Runtime * float64(j.Nodes)
	}
	total := useful + r.Faults.OrphanCPUSeconds
	if total == 0 {
		return 0
	}
	return r.Faults.OrphanCPUSeconds / total
}

var faultsSpec = &Spec{
	Name:     "faults",
	Title:    "Faults: redundant requests under an unreliable control plane (lost cancels orphan copies)",
	Desc:     "cancel-loss rate x scheme: relative stretch/CV plus orphaned work",
	Params:   fmt.Sprintf("N=%d, cancel loss=0,0.10,0.25,0.50 (Sweep overrides)", faultsClusters),
	Variants: func(opts Options) []variant { return groupVariants(faultsGroups(opts)) },
	Reduce: func(opts Options, res [][]runSummary) ([]*report.Table, error) {
		gs, err := relativize(faultsGroups(opts), res)
		if err != nil {
			return nil, err
		}
		header := []string{"cancel loss"}
		for _, s := range core.Schemes {
			header = append(header, s.String())
		}
		stretch := report.NewTable("Average stretch relative to no redundancy (fault-free baseline)", header...)
		cv := report.NewTable("CV of stretches relative to no redundancy (fault-free baseline)", header...)
		wasted := report.NewTable("Wasted-work fraction (orphan CPU-seconds / total consumed)", header...)
		orphans := report.NewTable("Orphan starts per run (mean over replications)", header...)
		losses := sweepOr(opts, defaultCancelLoss)
		runs := rows(gs[0].cells, len(core.Schemes))
		for li, rels := range rows(gs[0].rel, len(core.Schemes)) {
			rowS := []any{report.F(losses[li], 2)}
			rowC := []any{report.F(losses[li], 2)}
			rowW := []any{report.F(losses[li], 2)}
			rowO := []any{report.F(losses[li], 2)}
			for si, rel := range rels {
				grp := runs[li][si]
				rowS = append(rowS, report.F(rel.AvgStretch, 3))
				rowC = append(rowC, report.F(rel.CVStretch, 3))
				rowW = append(rowW, report.F(meanOver(grp, func(r *runSummary) float64 { return r.Wasted }), 4))
				rowO = append(rowO, report.F(meanOver(grp, func(r *runSummary) float64 {
					return float64(r.OrphanStarts)
				}), 1))
			}
			stretch.AddRow(rowS...)
			cv.AddRow(rowC...)
			wasted.AddRow(rowW...)
			orphans.AddRow(rowO...)
		}
		return []*report.Table{stretch, cv, wasted, orphans}, nil
	},
}
