package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestQuantizedWritesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Chdir(t.TempDir())
	c := DefaultExpConfig()
	c.Scale = 0.04 // clamps to the 256-point floor; keep the smoke test fast
	c.Queries = 20
	var buf bytes.Buffer
	if err := Quantized(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"quantized search (SQ8)", "variant", "bytes/hop", "recall>=0.99", "wrote BENCH_quant.json"} {
		if !strings.Contains(out, want) {
			t.Errorf("quant table missing %q:\n%s", want, out)
		}
	}
	blob, err := os.ReadFile("BENCH_quant.json")
	if err != nil {
		t.Fatalf("BENCH_quant.json not written: %v", err)
	}
	var res QuantResult
	if err := json.Unmarshal(blob, &res); err != nil {
		t.Fatalf("BENCH_quant.json not valid JSON: %v", err)
	}
	if res.N < 256 || res.K != 10 || res.Dim != 128 {
		t.Errorf("implausible record: n=%d dim=%d k=%d", res.N, res.Dim, res.K)
	}
	variants := quantVariants()
	if want := len(variants) * len(quantEfforts); len(res.Points) != want {
		t.Errorf("got %d points, want %d", len(res.Points), want)
	}
	if len(res.Targets) != len(variants) {
		t.Errorf("got %d targets, want %d", len(res.Targets), len(variants))
	}
	perHop := map[string]float64{}
	for _, pt := range res.Points {
		if pt.Recall < 0 || pt.Recall > 1 || pt.QPS <= 0 || pt.MsPerQ <= 0 {
			t.Errorf("implausible point: %+v", pt)
		}
		if pt.Hops <= 0 || pt.DistComps <= 0 || pt.BytesPerHop <= 0 {
			t.Errorf("work stats missing from point: %+v", pt)
		}
		if pt.Effort == 60 {
			perHop[pt.Variant] = pt.BytesPerHop
		}
	}
	// The point of the code matrix: SQ8 expansion must touch far fewer
	// bytes per hop than float32 (4x on the vector share).
	if sq8, fl := perHop["sq8"], perHop["float32"]; sq8 >= fl/2 {
		t.Errorf("sq8 bytes/hop %.0f not well below float32's %.0f", sq8, fl)
	}
	// On the floor dataset every variant reaches high recall at L=160.
	for _, pt := range res.Points {
		if pt.Effort == 160 && pt.Recall < 0.9 {
			t.Errorf("%s at L=160: recall %.3f < 0.90", pt.Variant, pt.Recall)
		}
	}
}

func TestQuantExperimentRegistered(t *testing.T) {
	if _, ok := Experiments()["quant"]; !ok {
		t.Error("experiment \"quant\" not registered")
	}
}
