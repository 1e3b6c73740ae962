package experiments

import (
	"repro/internal/gpusim"
	"repro/internal/smmask"
	"repro/internal/units"
)

// Figure2Row is one operator's share of an isolated prefill pass plus its
// achieved utilization (Fig. 2 of the paper).
type Figure2Row struct {
	SeqLen      int
	Op          string
	TimeFrac    float64 // fraction of the layer's execution time
	ComputeUtil float64 // achieved FLOPs / peak
	BWUtil      float64 // achieved bytes / peak
}

// Figure2Summary aggregates one sequence length's whole layer.
type Figure2Summary struct {
	SeqLen      int
	LayerTime   units.Seconds
	ComputeUtil float64
	BWUtil      float64
}

// Figure2 measures the per-operator execution-time breakdown and hardware
// utilization of isolated prefill on the simulated A100 (CPU overhead
// excluded, as in the paper's methodology).
func Figure2() ([]Figure2Row, []Figure2Summary) {
	spec, cfg := Platform()
	spec.LaunchOverhead = 0 // CPU overhead excluded
	var rows []Figure2Row
	var sums []Figure2Summary
	for _, seq := range []int{1024, 2048, 4096, 16384} {
		type agg struct {
			time  units.Seconds
			flops units.FLOPs
			bytes units.Bytes
		}
		perOp := map[string]agg{}
		var order []string
		record := func(r gpusim.KernelRecord) {
			op := opGroup(r.Name)
			a, seen := perOp[op]
			if !seen {
				order = append(order, op)
			}
			a.time += r.Duration()
			a.flops += r.FLOPs
			a.bytes += r.Bytes
			perOp[op] = a
		}
		layerTime := gpusim.RunIsolated(spec, smmask.Full(spec.NumSMs), cfg.PrefillLayerKernels(seq, 0, "prefill"), record)

		var totalFlops units.FLOPs
		var totalBytes units.Bytes
		for _, op := range order {
			a := perOp[op]
			rows = append(rows, Figure2Row{
				SeqLen:      seq,
				Op:          op,
				TimeFrac:    units.Ratio(a.time, layerTime),
				ComputeUtil: units.Ratio(a.flops, spec.PeakFLOPS.Times(a.time)),
				BWUtil:      units.Ratio(a.bytes, spec.PeakBW.Times(a.time)),
			})
			totalFlops += a.flops
			totalBytes += a.bytes
		}
		sums = append(sums, Figure2Summary{
			SeqLen:      seq,
			LayerTime:   layerTime,
			ComputeUtil: units.Ratio(totalFlops, spec.PeakFLOPS.Times(layerTime)),
			BWUtil:      units.Ratio(totalBytes, spec.PeakBW.Times(layerTime)),
		})
	}
	return rows, sums
}

// RenderFigure2 prints the breakdown.
func RenderFigure2(rows []Figure2Row, sums []Figure2Summary) string {
	header := []string{"SeqLen", "Op", "Time%", "ComputeUtil", "BWUtil"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			itoa(r.SeqLen), r.Op, f1(100 * r.TimeFrac), f2(r.ComputeUtil), f2(r.BWUtil),
		})
	}
	out := "Figure 2: prefill execution-time breakdown and utilization (isolated, CPU overhead excluded)\n" +
		table(header, cells)
	header = []string{"SeqLen", "LayerTime(ms)", "ComputeUtil", "BWUtil"}
	cells = nil
	for _, s := range sums {
		cells = append(cells, []string{itoa(s.SeqLen), f3(s.LayerTime.Ms()), f2(s.ComputeUtil), f2(s.BWUtil)})
	}
	return out + "\nWhole-layer aggregate (red-line comparison):\n" + table(header, cells)
}
