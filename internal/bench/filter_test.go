package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestFilteredSearchWritesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Chdir(t.TempDir())
	c := DefaultExpConfig()
	c.Scale = 0.2 // 1200 points: 50% still walks at L=20, so the sweep crosses the planner's crossover
	c.Queries = 20
	var buf bytes.Buffer
	if err := FilteredSearch(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"filtered search vs brute-force-with-filter", "selectivity", "multi-tenant sweep", "wrote BENCH_filter.json"} {
		if !strings.Contains(out, want) {
			t.Errorf("filter table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "GATE MISS") {
		t.Errorf("acceptance gate missed at smoke scale:\n%s", out)
	}
	blob, err := os.ReadFile("BENCH_filter.json")
	if err != nil {
		t.Fatalf("BENCH_filter.json not written: %v", err)
	}
	var res FilterResult
	if err := json.Unmarshal(blob, &res); err != nil {
		t.Fatalf("BENCH_filter.json not valid JSON: %v", err)
	}
	// 2 variants x len(filterSelectivities) x len(filterEfforts) + 3 tenant points.
	if want := 2*len(filterSelectivities)*len(filterEfforts) + 3; len(res.Points) != want {
		t.Errorf("got %d points, want %d", len(res.Points), want)
	}
	selSeen := map[float64]bool{}
	plans := map[string]int{}
	for _, pt := range res.Points {
		if pt.Recall < 0 || pt.Recall > 1 || pt.QPS <= 0 || pt.MsPerQ <= 0 {
			t.Errorf("implausible point: %+v", pt)
		}
		if pt.Variant == "tenant" {
			if pt.Tenants <= 0 {
				t.Errorf("tenant point without tenant count: %+v", pt)
			}
			continue
		}
		selSeen[pt.Selectivity] = true
		plans[pt.Plan]++
		if (pt.Plan == "scan") != (pt.Hops == 0) || (pt.Plan == "scan" && pt.Recall != 1) {
			t.Errorf("plan %q with %.1f hops and recall %.4f: the scan expands nothing and is exact", pt.Plan, pt.Hops, pt.Recall)
		}
		// The acceptance criterion: within 0.01 of the exact filtered
		// answer at the top of the effort sweep.
		if pt.Effort == filterEfforts[len(filterEfforts)-1] && pt.Recall < 0.99 {
			t.Errorf("%s at selectivity %.2f, L=%d: recall %.4f < 0.99", pt.Variant, pt.Selectivity, pt.Effort, pt.Recall)
		}
	}
	for _, sel := range []float64{0.50, 0.25, 0.10, 0.05, 0.02, 0.01} {
		if !selSeen[sel] {
			t.Errorf("selectivity %.2f missing from the sweep", sel)
		}
	}
	if plans["scan"] == 0 || plans["walk"] == 0 || plans["scan"]+plans["walk"] != len(res.Points)-3 {
		t.Errorf("the sweep must show both plans and nothing else: %v", plans)
	}
}

func TestFilterExperimentRegistered(t *testing.T) {
	if _, ok := Experiments()["filter"]; !ok {
		t.Error("experiment \"filter\" not registered")
	}
}
