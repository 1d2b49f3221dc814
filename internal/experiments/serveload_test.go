package experiments

import (
	"strings"
	"testing"
	"time"

	"rckalign/internal/loadgen"
)

// tinyServeLoadSpec keeps the sweep under a second of wall time: two
// short slots over a small database.
func tinyServeLoadSpec() serveLoadSpec {
	return serveLoadSpec{
		Structures: 6,
		Seed:       2,
		Slots: []loadgen.Slot{
			{RPS: 20, Dur: 300 * time.Millisecond},
			{RPS: 40, Dur: 300 * time.Millisecond},
		},
		SLO:     100 * time.Millisecond,
		K:       3,
		Prewarm: true,
	}
}

func TestServeLoadSweep(t *testing.T) {
	spec := tinyServeLoadSpec()
	cfgs := defaultServeLoadConfigs()
	out, reports, err := serveLoadSweep(spec, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(cfgs) {
		t.Fatalf("%d reports for %d configs", len(reports), len(cfgs))
	}
	if got, want := strings.Count(out, "workers="), len(cfgs)*len(spec.Slots); got != want {
		t.Errorf("table has %d rows, want %d (one per config x slot):\n%s", got, want, out)
	}
	for i, rep := range reports {
		if rep.Requests == 0 {
			t.Errorf("config %d served no requests", i)
		}
		if errs := len(rep.Errors); errs != 0 {
			t.Errorf("config %d errors: %v", i, rep.Errors)
		}
		if rep.Seed != spec.Seed {
			t.Errorf("config %d report seed %d", i, rep.Seed)
		}
	}
	// The trace is seeded: both configs must have been offered the exact
	// same request count.
	if reports[0].Requests != reports[1].Requests {
		t.Errorf("configs saw different offered loads: %d vs %d",
			reports[0].Requests, reports[1].Requests)
	}
	for _, cfg := range cfgs {
		if !strings.Contains(out, cfg.Name) {
			t.Errorf("table missing config %q:\n%s", cfg.Name, out)
		}
	}
}
