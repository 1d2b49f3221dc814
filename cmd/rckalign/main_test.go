package main

import (
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"rckalign/internal/core"
	"rckalign/internal/farm"
	"rckalign/internal/interchip"
	"rckalign/internal/sched"
)

// valid returns a flag set that passes validation; tests mutate one
// field at a time.
func valid() cliFlags {
	return cliFlags{Slaves: 47, Order: "FIFO", Threads: 1, Polling: 1, Chips: 1}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		mut     func(*cliFlags)
		wantErr string // substring of the one-line diagnostic; "" = valid
	}{
		{"defaults", func(f *cliFlags) {}, ""},
		{"order lpt lowercase", func(f *cliFlags) { f.Order = "lpt" }, ""},
		{"order unknown", func(f *cliFlags) { f.Order = "LIFO" }, "-order"},
		{"slaves zero", func(f *cliFlags) { f.Slaves = 0 }, "-slaves"},
		{"slaves too many", func(f *cliFlags) { f.Slaves = 48 }, "-slaves"},
		{"slaves ignored under sweep", func(f *cliFlags) { f.Slaves = 0; f.Sweep = true }, ""},
		{"threads zero", func(f *cliFlags) { f.Threads = 0 }, "-threads"},
		{"threads above a chip", func(f *cliFlags) { f.Threads = 48 }, "-threads 48 outside [1,47]"},
		{"threads above a chip under sweep", func(f *cliFlags) { f.Threads = 48; f.Sweep = true }, "-threads 48 outside [1,47]"},
		{"slaves below threads", func(f *cliFlags) { f.Slaves = 2; f.Threads = 3 }, "-slaves 2 cannot form one -threads 3 worker"},
		{"slaves equal threads", func(f *cliFlags) { f.Slaves = 3; f.Threads = 3 }, ""},
		{"sweep starts at threads", func(f *cliFlags) { f.Slaves = 1; f.Sweep = true; f.Threads = 2 }, ""},
		{"membudget negative", func(f *cliFlags) { f.MemBudget = -5 }, "-membudget"},
		{"deadline negative", func(f *cliFlags) { f.Deadline = -1 }, "-deadline"},
		{"deadline NaN", func(f *cliFlags) { f.Deadline = math.NaN(); f.FaultSpec = "kill=3@10" }, "-deadline NaN is not a finite"},
		{"deadline infinite", func(f *cliFlags) { f.Deadline = math.Inf(1); f.FaultSpec = "kill=3@10" }, "-deadline +Inf is not a finite"},
		{"deadline with faults", func(f *cliFlags) { f.Deadline = 5; f.FaultSpec = "kill=3@10" }, ""},
		{"deadline without faults", func(f *cliFlags) { f.Deadline = 5 }, "-deadline 5 without -faults"},
		{"polling negative", func(f *cliFlags) { f.Polling = -0.5 }, "-polling"},
		{"polling zero is the event-driven ablation", func(f *cliFlags) { f.Polling = 0 }, ""},
		{"polling NaN", func(f *cliFlags) { f.Polling = math.NaN() }, "-polling NaN is not a finite"},
		{"polling infinite", func(f *cliFlags) { f.Polling = math.Inf(1) }, "-polling +Inf is not a finite"},
		{"prune-tm NaN", func(f *cliFlags) { f.PruneTM = math.NaN() }, "-prune-tm NaN outside [0,1]"},
		{"prune-tm above one", func(f *cliFlags) { f.PruneTM = 1.5 }, "-prune-tm 1.5 outside [0,1]"},
		{"structcache derive sentinel", func(f *cliFlags) { f.StructCache = -1 }, ""},
		{"structcache below sentinel", func(f *cliFlags) { f.StructCache = -2 }, "-structcache"},
		{"batch zero is classic wire", func(f *cliFlags) { f.Batch = 0 }, ""},
		{"batch negative", func(f *cliFlags) { f.Batch = -1 }, "-batch"},
		{"chips four", func(f *cliFlags) { f.Chips = 4 }, ""},
		{"chips zero", func(f *cliFlags) { f.Chips = 0 }, "-chips"},
		{"chips above cap", func(f *cliFlags) { f.Chips = 65 }, "-chips"},
		{"interchip named profile", func(f *cliFlags) { f.Chips = 2; f.Interchip = "cluster" }, ""},
		{"interchip key-value spec", func(f *cliFlags) { f.Chips = 2; f.Interchip = "lat=1e-6,bw=1e9" }, "unknown profile"},
		{"interchip unknown profile", func(f *cliFlags) { f.Interchip = "warp" }, "-interchip"},
		{"interchip bad value", func(f *cliFlags) { f.Interchip = "bw=fast" }, "-interchip"},
		{"chips with faults", func(f *cliFlags) { f.Chips = 2; f.FaultSpec = "kill=3@10" }, ""},
		{"chips with affinity", func(f *cliFlags) { f.Chips = 2; f.Affinity = true }, ""},
		{"chips with affinity and faults", func(f *cliFlags) {
			f.Chips = 2
			f.Affinity = true
			f.FaultSpec = "kill=3@10"
		}, ""},
		{"chips with membudget", func(f *cliFlags) { f.Chips = 2; f.MemBudget = 5000 }, "-membudget with -chips"},
		{"interchip at one chip", func(f *cliFlags) { f.Interchip = "cluster" }, "-interchip \"cluster\" has no effect at -chips 1"},
		{"gather at one chip", func(f *cliFlags) { f.Gather = "flat" }, "-gather \"flat\" has no effect at -chips 1"},
		{"membudget with faults", func(f *cliFlags) { f.MemBudget = 3000; f.FaultSpec = "seed=1;kill=12@10" }, ""},
		{"affinity with faults", func(f *cliFlags) { f.Affinity = true; f.FaultSpec = "kill=3@10" }, ""},
		{"faults unparseable", func(f *cliFlags) { f.FaultSpec = "bogus" }, "-faults"},
		{"single chip keeps faults", func(f *cliFlags) { f.Chips = 1; f.FaultSpec = "kill=3@10" }, ""},
		{"gather tree", func(f *cliFlags) { f.Chips = 8; f.Gather = "tree" }, ""},
		{"gather tree with arity", func(f *cliFlags) { f.Chips = 8; f.Gather = "tree:2" }, ""},
		{"gather flat", func(f *cliFlags) { f.Chips = 8; f.Gather = "flat" }, ""},
		{"gather unknown", func(f *cliFlags) { f.Gather = "ring" }, "-gather"},
		{"gather bad arity", func(f *cliFlags) { f.Gather = "tree:0" }, "-gather"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := valid()
			tc.mut(&f)
			_, err := validateFlags(f)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags(%+v) = %v, want ok", f, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateFlags(%+v) accepted, want error naming %s", f, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not name the flag %s", err, tc.wantErr)
			}
			if strings.ContainsRune(err.Error(), '\n') {
				t.Errorf("diagnostic is not one line: %q", err)
			}
		})
	}
}

// TestValidateFlagsComposeUnderMembudget: the flags the tiled path used
// to drop silently each reach the one run configuration next to the
// memory budget (core's composition matrix pins that the run then
// honours them).
func TestValidateFlagsComposeUnderMembudget(t *testing.T) {
	cases := []struct {
		flag string
		mut  func(*cliFlags)
		set  func(core.Config) bool
	}{
		{"-structcache", func(f *cliFlags) { f.StructCache = -1 }, func(c core.Config) bool { return c.CacheStructs == -1 }},
		{"-batch", func(f *cliFlags) { f.Batch = 8 }, func(c core.Config) bool { return c.Batch == 8 }},
		{"-affinity", func(f *cliFlags) { f.Affinity = true }, func(c core.Config) bool { return c.Affinity }},
		{"-order", func(f *cliFlags) { f.Order = "LPT" }, func(c core.Config) bool { return c.Order == sched.LPT }},
		{"-threads", func(f *cliFlags) { f.Threads = 2 }, func(c core.Config) bool { return c.ThreadsPerWorker == 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.flag, func(t *testing.T) {
			f := valid()
			f.MemBudget = 3000
			tc.mut(&f)
			cfg, err := validateFlags(f)
			if err != nil {
				t.Fatalf("-membudget with %s rejected: %v", tc.flag, err)
			}
			if cfg.MemoryBudgetResidues != 3000 || !tc.set(cfg) {
				t.Errorf("-membudget with %s resolved to %+v", tc.flag, cfg)
			}
		})
	}
}

func TestValidateFlagsResolvesInterchip(t *testing.T) {
	f := valid()
	cfg, err := validateFlags(f)
	if err != nil || cfg.Interchip != interchip.DefaultConfig() {
		t.Errorf("empty -interchip resolved to %+v (err %v), want the board profile", cfg.Interchip, err)
	}
	f.Chips = 2
	f.Interchip = "cluster"
	cfg, err = validateFlags(f)
	cluster, _ := interchip.Profile("cluster")
	if err != nil || cfg.Interchip != cluster {
		t.Errorf("-interchip cluster resolved to %+v (err %v), want %+v", cfg.Interchip, err, cluster)
	}
}

func TestValidateFlagsResolvesGather(t *testing.T) {
	f := valid()
	cfg, err := validateFlags(f)
	want := farm.GatherConfig{Mode: farm.GatherTree, Arity: farm.DefaultGatherArity}
	if err != nil || cfg.Gather != want {
		t.Errorf("empty -gather resolved to %+v (err %v), want %+v", cfg.Gather, err, want)
	}
	f.Chips = 2
	f.Gather = "tree:2"
	cfg, err = validateFlags(f)
	if err != nil || cfg.Gather.Mode != farm.GatherTree || cfg.Gather.Arity != 2 {
		t.Errorf("-gather tree:2 resolved to %+v (err %v)", cfg.Gather, err)
	}
	f.Gather = "flat"
	cfg, err = validateFlags(f)
	if err != nil || cfg.Gather.Mode != farm.GatherFlat {
		t.Errorf("-gather flat resolved to %+v (err %v)", cfg.Gather, err)
	}
}

// TestMain lets the test binary stand in for the rckalign command: with
// RCKALIGN_TEST_MAIN set it runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("RCKALIGN_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestRemovedFlagsAreUndefined: -hierarchy, -float32, -hostpar and -tile
// are gone with no alias, so the flag package itself rejects them with
// exit status 2.
func TestRemovedFlagsAreUndefined(t *testing.T) {
	for _, args := range []string{"-hierarchy 2", "-float32", "-hostpar 8", "-tile 4"} {
		r := rckalign(t, "", args)
		flag, _, _ := strings.Cut(args, " ")
		if want := "flag provided but not defined: " + flag; r.code != 2 || !strings.Contains(r.stderr, want) {
			t.Errorf("rckalign %s: exit %d, printed %q; want exit 2 and %q", args, r.code, r.stderr, want)
		}
	}
}

// TestThreadsAboveSlavesExitsBeforeLoading: a flag set no run can honour
// — too few slaves for one -threads worker, and every other combination
// validateFlags rejects — is a one-line usage error (exit 2) printed
// before the dataset loads, not a farm error (exit 1) after it.
func TestThreadsAboveSlavesExitsBeforeLoading(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-slaves 2 -threads 3", `-slaves 2 cannot form one -threads 3 worker`},
		{"-chips 2 -interchip lat=1e-6,bw=1e9", `-interchip "lat=1e-6,bw=1e9": interchip: unknown profile`},
		{"-deadline 5", `-deadline 5 without -faults`},
		{"-faults seed=1;kill=12@40 -deadline NaN", `-deadline NaN is not a finite`},
		{"-interchip cluster", `-interchip "cluster" has no effect at -chips 1`},
		{"-gather flat", `-gather "flat" has no effect at -chips 1`},
		{"-polling Inf", `-polling \+Inf is not a finite scale`},
		{"-prune-tm NaN", `-prune-tm NaN outside \[0,1\]`},
	} {
		r := rckalign(t, "", tc.args)
		if re := regexp.MustCompile("(?m)^rckalign: " + tc.want); r.code != 2 || !re.MatchString(r.stderr) {
			t.Errorf("rckalign %s: exit %d, printed %q; want exit 2 and %q", tc.args, r.code, r.stderr, re)
		}
		if strings.Contains(r.stdout+r.stderr, "loading") {
			t.Errorf("rckalign %s loaded the dataset before failing:\n%s", tc.args, r.stderr)
		}
	}
}

func TestValidateFlagsResolvesOrder(t *testing.T) {
	for in, want := range map[string]sched.Order{
		"FIFO": sched.FIFO, "fifo": sched.FIFO,
		"LPT": sched.LPT, "SPT": sched.SPT, "Random": sched.Random,
	} {
		f := valid()
		f.Order = in
		cfg, err := validateFlags(f)
		if err != nil {
			t.Errorf("order %q rejected: %v", in, err)
			continue
		}
		if cfg.Order != want {
			t.Errorf("order %q resolved to %v, want %v", in, cfg.Order, want)
		}
	}
}
