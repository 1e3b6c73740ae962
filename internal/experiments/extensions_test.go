package experiments

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestAblationLayerGroup(t *testing.T) {
	rows := AblationLayerGroup(workload.AzureCode, 4, 60, 1)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Throughput <= 0 || r.SLOAttainment < 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
	// All layer groups should serve this moderate load acceptably.
	for _, r := range rows {
		if r.SLOAttainment < 0.7 {
			t.Errorf("layer group %s collapsed: %+v", r.Value, r)
		}
	}
	out := RenderKnobRows("layer group sweep", rows)
	if !strings.Contains(out, "layer-group") {
		t.Fatal("render missing rows")
	}
}

func TestAblationSMStep(t *testing.T) {
	rows := AblationSMStep(workload.AzureCode, 4, 50, 2)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Coarse 36-SM granularity must not beat fine 6-SM granularity on
	// SLO attainment by a wide margin (sanity: granularity helps or is
	// neutral).
	byVal := map[string]KnobRow{}
	for _, r := range rows {
		byVal[r.Value] = r
	}
	if byVal["6"].SLOAttainment < byVal["36"].SLOAttainment-0.1 {
		t.Errorf("6-SM granularity much worse than 36: %+v vs %+v", byVal["6"], byVal["36"])
	}
}

func TestAblationMetadataLatency(t *testing.T) {
	rows := AblationMetadataLatency(workload.AzureCode, 4, 50, 3)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// A 5ms control plane should still serve, degrading gracefully.
	last := rows[len(rows)-1]
	if last.SLOAttainment < rows[0].SLOAttainment-0.3 {
		t.Errorf("metadata latency collapse: %+v vs %+v", last, rows[0])
	}
}

func TestAblationEstimator(t *testing.T) {
	rows := AblationEstimator(workload.AzureCode, 4, 50, 4)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	names := []string{"analytic", "fitted", "fitted-no-feedback"}
	for i, r := range rows {
		if r.Value != names[i] {
			t.Fatalf("row %d = %s", i, r.Value)
		}
		if r.Throughput <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
}

func TestAblationBurstiness(t *testing.T) {
	rows := AblationBurstiness(workload.AzureCode, 4, 60, 5)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Higher burstiness cannot improve the P90 normalized TTFT.
	if rows[3].P90NormTTFT < rows[0].P90NormTTFT*0.8 {
		t.Errorf("cv=4 tail (%v) implausibly better than cv=0.5 (%v)",
			rows[3].P90NormTTFT, rows[0].P90NormTTFT)
	}
}

func TestExtDisagg(t *testing.T) {
	rows := ExtDisagg(workload.AzureCode, []float64{3}, 50, 6)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]DisaggRow{}
	for _, r := range rows {
		byName[r.System] = r
	}
	// Per-GPU throughput: Bullet on one GPU must beat the 2-GPU pair's
	// per-GPU number (the orthogonality argument).
	if byName["bullet"].PerGPUThru <= byName["disagg-nvlink"].PerGPUThru {
		t.Errorf("bullet per-GPU %.2f not above disagg %.2f",
			byName["bullet"].PerGPUThru, byName["disagg-nvlink"].PerGPUThru)
	}
	// PCIe migration hurts TTFT-to-decode handoff relative to NVLink.
	if byName["disagg-pcie"].MeanTPOTMs < byName["disagg-nvlink"].MeanTPOTMs*0.99 {
		t.Errorf("pcie TPOT %.1f better than nvlink %.1f",
			byName["disagg-pcie"].MeanTPOTMs, byName["disagg-nvlink"].MeanTPOTMs)
	}
	_ = RenderExtDisagg(rows)
}

func TestExtCrossDevice(t *testing.T) {
	rows := ExtCrossDevice(workload.ShareGPT, 10, 50, 7)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var a100b, h100b CrossDeviceRow
	for _, r := range rows {
		if r.System == "bullet" {
			if r.Device == "a100" {
				a100b = r
			} else {
				h100b = r
			}
		}
	}
	// The H100 is strictly faster: latencies must improve.
	if h100b.MeanTTFT >= a100b.MeanTTFT || h100b.MeanTPOTMs >= a100b.MeanTPOTMs {
		t.Errorf("H100 not faster: %+v vs %+v", h100b, a100b)
	}
	_ = RenderExtCrossDevice(rows)
}

func TestExtPrefixCache(t *testing.T) {
	rows := ExtPrefixCache(workload.AzureCode, 4, 80, 8, []float64{0.8})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	off, on := rows[0], rows[1]
	if on.System != "bullet+prefix" || off.System != "bullet" {
		t.Fatalf("systems = %s / %s", off.System, on.System)
	}
	if on.HitTokens == 0 || on.HitRate == 0 {
		t.Fatalf("no cache hits: %+v", on)
	}
	// Skipping cached prefixes must not hurt TTFT; with 80%% sharing it
	// should help.
	if on.MeanTTFT > off.MeanTTFT*1.05 {
		t.Errorf("prefix cache worsened TTFT: %.3f vs %.3f", on.MeanTTFT, off.MeanTTFT)
	}
	_ = RenderExtPrefixCache(rows)
}

func TestPrefixCacheDeterminism(t *testing.T) {
	a := ExtPrefixCache(workload.ShareGPT, 8, 50, 9, []float64{0.5})
	b := ExtPrefixCache(workload.ShareGPT, 8, 50, 9, []float64{0.5})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestExtCluster(t *testing.T) {
	rows := ExtClusterN(workload.AzureCode, 9, 60, 10, 0)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More replicas: better TTFT, higher total throughput, lower
	// per-GPU throughput (diminishing utilization at fixed load).
	if !(rows[1].MeanTTFT < rows[0].MeanTTFT && rows[2].MeanTTFT < rows[1].MeanTTFT) {
		t.Errorf("TTFT not improving with replicas: %+v", rows)
	}
	if rows[1].Throughput < rows[0].Throughput {
		t.Errorf("2 replicas lost throughput: %+v", rows)
	}
	if rows[2].PerGPUThru > rows[0].PerGPUThru {
		t.Errorf("per-GPU throughput should fall at fixed load: %+v", rows)
	}
	_ = RenderExtCluster(rows)
}

func TestFindKnee(t *testing.T) {
	knee := FindKnee("bullet", workload.AzureCode, 0.9, 60, 11, 1, 12)
	if knee < 3 || knee > 12 {
		t.Fatalf("bullet knee = %.2f req/s, outside plausible range", knee)
	}
	// A clearly infeasible target returns 0.
	if k := FindKnee("bullet", workload.AzureCode, 1.01, 30, 11, 1, 2); k != 0 {
		t.Fatalf("impossible target gave knee %v", k)
	}
}

func TestExtKnees(t *testing.T) {
	rows := ExtKnees(workload.AzureCode, 0.9, 50, 12, 2, 10, []string{"bullet", "sglang-1024"})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.System] = r.Knee
	}
	if byName["bullet"] < byName["sglang-1024"] {
		t.Fatalf("bullet knee %.2f below sglang %.2f", byName["bullet"], byName["sglang-1024"])
	}
	_ = RenderExtKnees("azure-code", 0.9, rows)
}

func TestExtTensorParallel(t *testing.T) {
	rows := ExtTensorParallel(workload.AzureCode, 4, 60, 13)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Latency shrinks with TP degree; per-GPU efficiency falls.
	if !(rows[1].MeanTTFT < rows[0].MeanTTFT && rows[2].MeanTTFT < rows[1].MeanTTFT) {
		t.Errorf("TTFT not improving with TP: %+v", rows)
	}
	if !(rows[1].MeanTPOTMs < rows[0].MeanTPOTMs) {
		t.Errorf("TPOT not improving with TP: %+v", rows)
	}
	if rows[2].PerGPUThru > rows[0].PerGPUThru {
		t.Errorf("per-GPU throughput should fall with TP at fixed load: %+v", rows)
	}
	_ = RenderExtTensorParallel(rows)
}
