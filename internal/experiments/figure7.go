package experiments

import (
	"repro/internal/gpusim"
	"repro/internal/smmask"
	"repro/internal/units"
)

// Figure7Row is the speedup of running a phase on a partial SM allocation
// normalized to the full GPU (Fig. 7): compute-bound prefill scales
// roughly linearly (at or below the proportional line), memory-bound
// decode super-linearly (above it).
type Figure7Row struct {
	Phase   string // "prefill" or "decode"
	Param   int    // sequence length (prefill) or batch size (decode)
	SMs     int
	SMFrac  float64
	Speedup float64 // duration(full) / duration(partial), ≤ 1
}

// Figure7 measures partial-SM scaling for prefill layers across sequence
// lengths and decode steps across batch sizes (context length 2048, as in
// the paper).
func Figure7() []Figure7Row {
	spec, cfg := Platform()
	spec.LaunchOverhead = 0
	sms := []int{12, 24, 36, 48, 60, 72, 84, 96, 108}

	measure := func(ks []gpusim.Kernel, m int) units.Seconds {
		return gpusim.RunIsolated(spec, smmask.Range(0, m), ks, nil)
	}

	var rows []Figure7Row
	for _, seq := range []int{1024, 4096, 16384} {
		ks := cfg.PrefillLayerKernels(seq, 0, "p")
		full := measure(ks, spec.NumSMs)
		for _, m := range sms {
			rows = append(rows, Figure7Row{
				Phase: "prefill", Param: seq, SMs: m,
				SMFrac:  float64(m) / float64(spec.NumSMs),
				Speedup: units.Ratio(full, measure(ks, m)),
			})
		}
	}
	for _, bs := range []int{16, 64, 256} {
		ks := []gpusim.Kernel{cfg.DecodeStepKernel(bs, units.Tokens(2048), "d")}
		full := measure(ks, spec.NumSMs)
		for _, m := range sms {
			rows = append(rows, Figure7Row{
				Phase: "decode", Param: bs, SMs: m,
				SMFrac:  float64(m) / float64(spec.NumSMs),
				Speedup: units.Ratio(full, measure(ks, m)),
			})
		}
	}
	return rows
}

// RenderFigure7 prints the scaling table with the proportional reference.
func RenderFigure7(rows []Figure7Row) string {
	header := []string{"Phase", "Param", "SMs", "SMFrac", "Speedup", "Linear", "Ratio"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Phase, itoa(r.Param), itoa(r.SMs), f2(r.SMFrac), f2(r.Speedup),
			f2(r.SMFrac), f2(r.Speedup / r.SMFrac),
		})
	}
	return "Figure 7: speedup on partial SMs normalized to full GPU\n" +
		"(Ratio > 1 means super-linear scaling: typical for memory-bound decode)\n" +
		table(header, cells)
}
