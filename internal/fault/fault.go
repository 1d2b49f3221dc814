// Package fault is a seeded, deterministic fault-injection subsystem
// for the simulated SCC. A Plan declares what goes wrong — cores that
// fail-stop at a given time, cores that transiently stall, links that
// drop, delay or corrupt messages — and an Injector armed on a chip
// executes the plan: kills and stalls become scheduled simulation
// events, link faults act through the rcce wire interposer. Every
// random decision draws from one seeded stream consumed in simulated
// message order, so the same Plan and seed reproduce the identical
// fault sequence (and, with a deterministic workload, the identical
// run) every time.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"rckalign/internal/rcce"
	"rckalign/internal/sim"
	"rckalign/internal/trace"
)

// CoreFailure fail-stops a core: at time At the core's process unwinds
// out of whatever it is doing and never runs again.
type CoreFailure struct {
	Core int
	At   float64
}

// CoreStall freezes a core for a window: wake-ups that would fire
// inside [At, At+Duration) are deferred to the window's end. The core
// resumes afterwards as if nothing happened (beyond the lost time).
type CoreStall struct {
	Core     int
	At       float64
	Duration float64
}

// LinkFault degrades messages from Src to Dst (Wildcard matches any
// core on that side). Zero From/Until means always active; otherwise
// the rule applies to messages sent within [From, Until). Probabilistic
// and periodic triggers may be combined; each non-zero field is
// evaluated independently.
type LinkFault struct {
	Src, Dst    int // core id or Wildcard
	From, Until float64
	// DropEvery drops every Nth matching message (1 = all).
	DropEvery int
	// DropProb drops each matching message with this probability.
	DropProb float64
	// CorruptEvery corrupts every Nth matching message.
	CorruptEvery int
	// CorruptProb corrupts each matching message with this probability.
	CorruptProb float64
	// DelaySeconds adds fixed latency to every matching message.
	DelaySeconds float64
}

// Wildcard in LinkFault.Src/Dst matches every core.
const Wildcard = -1

// Plan is a complete fault schedule. The zero value (or an empty plan)
// injects nothing.
type Plan struct {
	// Seed drives every probabilistic decision. Two runs of the same
	// workload with the same plan are bit-identical.
	Seed   int64
	Kills  []CoreFailure
	Stalls []CoreStall
	Links  []LinkFault
}

// Empty reports whether the plan injects no faults at all.
func (pl *Plan) Empty() bool {
	return pl == nil || (len(pl.Kills) == 0 && len(pl.Stalls) == 0 && len(pl.Links) == 0)
}

// Validate checks the plan against a chip of numCores cores whose
// master runs on core master: fault targets must be in range, and the
// master core must not be killed or stalled (the detection model
// assumes a reliable master, as does the paper's farm).
func (pl *Plan) Validate(numCores, master int) error {
	if pl == nil {
		return nil
	}
	checkCore := func(kind string, core int, wildcardOK bool) error {
		if wildcardOK && core == Wildcard {
			return nil
		}
		if core < 0 || core >= numCores {
			return fmt.Errorf("fault: %s targets core %d, out of range [0,%d)", kind, core, numCores)
		}
		return nil
	}
	for _, v := range pl.numbers() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("fault: plan has a non-finite time or probability (%g)", v)
		}
	}
	for _, k := range pl.Kills {
		if err := checkCore("kill", k.Core, false); err != nil {
			return err
		}
		if k.Core == master {
			return fmt.Errorf("fault: cannot kill master core %d", master)
		}
		if k.At < 0 {
			return fmt.Errorf("fault: kill of core %d at negative time %g", k.Core, k.At)
		}
	}
	for _, s := range pl.Stalls {
		if err := checkCore("stall", s.Core, false); err != nil {
			return err
		}
		if s.Core == master {
			return fmt.Errorf("fault: cannot stall master core %d", master)
		}
		if s.At < 0 || s.Duration <= 0 {
			return fmt.Errorf("fault: stall of core %d needs At >= 0 and Duration > 0", s.Core)
		}
	}
	for _, l := range pl.Links {
		if err := checkCore("link src", l.Src, true); err != nil {
			return err
		}
		if err := checkCore("link dst", l.Dst, true); err != nil {
			return err
		}
		if l.DropEvery < 0 || l.CorruptEvery < 0 {
			return fmt.Errorf("fault: link %d>%d has negative Every period", l.Src, l.Dst)
		}
		if l.DropProb < 0 || l.DropProb > 1 || l.CorruptProb < 0 || l.CorruptProb > 1 {
			return fmt.Errorf("fault: link %d>%d probability outside [0,1]", l.Src, l.Dst)
		}
		if l.DelaySeconds < 0 {
			return fmt.Errorf("fault: link %d>%d has negative delay", l.Src, l.Dst)
		}
	}
	return nil
}

// numbers lists every time, duration and probability in the plan.
func (pl *Plan) numbers() []float64 {
	var out []float64
	for _, k := range pl.Kills {
		out = append(out, k.At)
	}
	for _, s := range pl.Stalls {
		out = append(out, s.At, s.Duration)
	}
	for _, l := range pl.Links {
		out = append(out, l.From, l.Until, l.DropProb, l.CorruptProb, l.DelaySeconds)
	}
	return out
}

// SplitPlan cuts a plan whose core ids are global across a multi-chip
// board (chip = id / coresPerChip, local = id % coresPerChip) into one
// plan per chip, for arming one injector per chip session. Wildcard
// link endpoints are replicated onto every chip; a link rule pinning
// two specific cores on different chips is rejected — the wire
// interposer is chip-local, and inter-chip traffic does not ride the
// RCCE mesh. Every chip receives a plan (possibly empty), so all chips
// run the same fault-tolerant protocol; per-chip seeds derive from the
// plan seed (Seed + chip) so chips draw independent but reproducible
// random streams. A nil plan yields empty per-chip plans.
func SplitPlan(pl *Plan, chips, coresPerChip int) ([]*Plan, error) {
	if chips < 1 || coresPerChip < 1 {
		return nil, fmt.Errorf("fault: split wants chips >= 1 and coresPerChip >= 1, got %d and %d", chips, coresPerChip)
	}
	out := make([]*Plan, chips)
	var seed int64
	if pl != nil {
		seed = pl.Seed
	}
	for c := range out {
		out[c] = &Plan{Seed: seed + int64(c)}
	}
	if pl == nil {
		return out, nil
	}
	total := chips * coresPerChip
	locate := func(kind string, core int) (int, int, error) {
		if core < 0 || core >= total {
			return 0, 0, fmt.Errorf("fault: %s targets core %d, out of range [0,%d)", kind, core, total)
		}
		return core / coresPerChip, core % coresPerChip, nil
	}
	for _, k := range pl.Kills {
		chip, local, err := locate("kill", k.Core)
		if err != nil {
			return nil, err
		}
		k.Core = local
		out[chip].Kills = append(out[chip].Kills, k)
	}
	for _, s := range pl.Stalls {
		chip, local, err := locate("stall", s.Core)
		if err != nil {
			return nil, err
		}
		s.Core = local
		out[chip].Stalls = append(out[chip].Stalls, s)
	}
	for _, l := range pl.Links {
		switch {
		case l.Src == Wildcard && l.Dst == Wildcard:
			for c := range out {
				out[c].Links = append(out[c].Links, l)
			}
		case l.Src == Wildcard:
			chip, local, err := locate("link dst", l.Dst)
			if err != nil {
				return nil, err
			}
			l.Dst = local
			out[chip].Links = append(out[chip].Links, l)
		case l.Dst == Wildcard:
			chip, local, err := locate("link src", l.Src)
			if err != nil {
				return nil, err
			}
			l.Src = local
			out[chip].Links = append(out[chip].Links, l)
		default:
			cs, ls, err := locate("link src", l.Src)
			if err != nil {
				return nil, err
			}
			cd, ld, err := locate("link dst", l.Dst)
			if err != nil {
				return nil, err
			}
			if cs != cd {
				return nil, fmt.Errorf("fault: link fault %d>%d crosses chips %d and %d (link rules are chip-local)", l.Src, l.Dst, cs, cd)
			}
			l.Src, l.Dst = ls, ld
			out[cs].Links = append(out[cs].Links, l)
		}
	}
	return out, nil
}

// Stats counts faults actually injected during a run.
type Stats struct {
	CoresKilled  int
	CoresStalled int
	// Dropped counts messages discarded on the wire, including those
	// addressed to already-dead cores.
	Dropped   int
	Delayed   int
	Corrupted int
}

// Host is what an Injector arms itself on: a chip-like object that can
// resolve core ids to simulated processes. *scc.Chip satisfies it.
type Host interface {
	Engine() *sim.Engine
	Proc(core int) *sim.Process
	CoreName(core int) string
}

// Injector executes a Plan on a host. It implements rcce.Interposer for
// the link-fault half; Arm schedules the kill and stall events. One
// injector serves one run.
type Injector struct {
	plan *Plan
	rng  *rand.Rand
	// dead marks fail-stopped cores; messages addressed to them vanish.
	dead map[int]bool
	// hits counts matching messages per link rule, for Every periods.
	hits  []int
	stats Stats
	rec   trace.Sink
	host  Host
}

// NewInjector builds an injector for the plan (nil plan = inject
// nothing, still usable as an interposer).
func NewInjector(pl *Plan) *Injector {
	if pl == nil {
		pl = &Plan{}
	}
	return &Injector{
		plan: pl,
		rng:  rand.New(rand.NewSource(pl.Seed)),
		dead: map[int]bool{},
		hits: make([]int, len(pl.Links)),
	}
}

// Stats returns the counts of faults injected so far.
func (in *Injector) Stats() Stats { return in.stats }

// DeadCores returns the fail-stopped cores so far, sorted.
func (in *Injector) DeadCores() []int {
	out := make([]int, 0, len(in.dead))
	for c := range in.dead {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// Arm schedules the plan's kill and stall events on the host's engine
// and optionally marks them, and every drop, on a trace sink (one 'X'
// per event on the core's track). Call after the core processes are
// spawned and before the engine runs.
func (in *Injector) Arm(h Host, rec trace.Sink) {
	in.host = h
	in.rec = rec
	e := h.Engine()
	for _, k := range in.plan.Kills {
		e.Schedule(k.At, func() {
			p := h.Proc(k.Core)
			if p == nil || p.Done() {
				return
			}
			in.dead[k.Core] = true
			in.stats.CoresKilled++
			e.Kill(p)
			if rec != nil {
				rec.AddMark(h.CoreName(k.Core), k.At, "kill")
			}
		})
	}
	for _, s := range in.plan.Stalls {
		e.Schedule(s.At, func() {
			p := h.Proc(s.Core)
			if p == nil || p.Done() {
				return
			}
			in.stats.CoresStalled++
			e.StallUntil(p, s.At+s.Duration)
			if rec != nil {
				rec.AddMark(h.CoreName(s.Core), s.At, "stall")
			}
		})
	}
}

func (l *LinkFault) matches(src, dst int, now float64) bool {
	if l.Src != Wildcard && l.Src != src {
		return false
	}
	if l.Dst != Wildcard && l.Dst != dst {
		return false
	}
	if l.From == 0 && l.Until == 0 {
		return true
	}
	return now >= l.From && now < l.Until
}

// Deliver implements rcce.Interposer. It evaluates every matching link
// rule completely — consuming random draws whether or not an earlier
// rule already decided to drop — so the random stream advances
// identically regardless of rule outcomes, keeping runs reproducible
// when rules are reordered or messages race.
func (in *Injector) Deliver(p *sim.Process, m *rcce.Message) rcce.Outcome {
	var out rcce.Outcome
	now := p.Now()
	for i := range in.plan.Links {
		l := &in.plan.Links[i]
		if !l.matches(m.Src, m.Dst, now) {
			continue
		}
		in.hits[i]++
		if l.DropEvery > 0 && in.hits[i]%l.DropEvery == 0 {
			out.Drop = true
		}
		if l.DropProb > 0 && in.rng.Float64() < l.DropProb {
			out.Drop = true
		}
		if l.CorruptEvery > 0 && in.hits[i]%l.CorruptEvery == 0 {
			out.Corrupt = true
		}
		if l.CorruptProb > 0 && in.rng.Float64() < l.CorruptProb {
			out.Corrupt = true
		}
		out.DelaySeconds += l.DelaySeconds
	}
	if in.dead[m.Dst] {
		// The destination core is gone; its MPB flags never acknowledge.
		out.Drop = true
	}
	if out.Drop {
		in.stats.Dropped++
		out.Corrupt = false
		out.DelaySeconds = 0
	} else {
		if out.Corrupt {
			in.stats.Corrupted++
		}
		if out.DelaySeconds > 0 {
			in.stats.Delayed++
		}
	}
	if out.Drop && in.rec != nil && in.host != nil {
		in.rec.AddMark(in.host.CoreName(m.Src), now, "drop")
	}
	return out
}

// ParseSpec parses a compact fault-plan spec, the --faults flag syntax:
// semicolon-separated clauses, e.g.
//
//	seed=7;kill=12@0.5;kill=13@0.5;stall=20@1.0+0.25;drop=*>0@p0.01;corrupt=5>0@every100;delay=3>4@0.001
//
// Clauses:
//
//	seed=N            random seed (default 0)
//	kill=CORE@T       fail-stop CORE at time T
//	stall=CORE@T+D    stall CORE for D seconds starting at T
//	drop=SRC>DST@pP   drop messages with probability P (0..1)
//	drop=SRC>DST@everyN   drop every Nth message
//	corrupt=SRC>DST@pP|everyN   corrupt instead of drop
//	delay=SRC>DST@D   add D seconds latency to every message
//
// SRC/DST accept '*' as a wildcard. Whitespace around clauses is
// ignored. An empty spec yields an empty plan.
func ParseSpec(spec string) (*Plan, error) {
	pl := &Plan{}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("fault: clause %q: want key=value", clause)
		}
		var err error
		switch key {
		case "seed":
			pl.Seed, err = strconv.ParseInt(val, 10, 64)
		case "kill":
			err = parseKill(pl, val)
		case "stall":
			err = parseStall(pl, val)
		case "drop", "corrupt", "delay":
			err = parseLink(pl, key, val)
		default:
			err = fmt.Errorf("unknown clause %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("fault: clause %q: %v", clause, err)
		}
	}
	return pl, nil
}

func parseKill(pl *Plan, val string) error {
	coreStr, atStr, ok := strings.Cut(val, "@")
	if !ok {
		return fmt.Errorf("want CORE@T")
	}
	core, err := strconv.Atoi(coreStr)
	if err != nil {
		return err
	}
	at, err := strconv.ParseFloat(atStr, 64)
	if err != nil {
		return err
	}
	pl.Kills = append(pl.Kills, CoreFailure{Core: core, At: at})
	return nil
}

func parseStall(pl *Plan, val string) error {
	coreStr, rest, ok := strings.Cut(val, "@")
	if !ok {
		return fmt.Errorf("want CORE@T+D")
	}
	atStr, durStr, ok := strings.Cut(rest, "+")
	if !ok {
		return fmt.Errorf("want CORE@T+D")
	}
	core, err := strconv.Atoi(coreStr)
	if err != nil {
		return err
	}
	at, err := strconv.ParseFloat(atStr, 64)
	if err != nil {
		return err
	}
	dur, err := strconv.ParseFloat(durStr, 64)
	if err != nil {
		return err
	}
	pl.Stalls = append(pl.Stalls, CoreStall{Core: core, At: at, Duration: dur})
	return nil
}

func parseCoreOrWildcard(s string) (int, error) {
	if s == "*" {
		return Wildcard, nil
	}
	return strconv.Atoi(s)
}

func parseLink(pl *Plan, kind, val string) error {
	pair, arg, ok := strings.Cut(val, "@")
	if !ok {
		return fmt.Errorf("want SRC>DST@ARG")
	}
	srcStr, dstStr, ok := strings.Cut(pair, ">")
	if !ok {
		return fmt.Errorf("want SRC>DST")
	}
	src, err := parseCoreOrWildcard(srcStr)
	if err != nil {
		return err
	}
	dst, err := parseCoreOrWildcard(dstStr)
	if err != nil {
		return err
	}
	lf := LinkFault{Src: src, Dst: dst}
	switch {
	case kind == "delay":
		lf.DelaySeconds, err = strconv.ParseFloat(arg, 64)
		if err == nil && lf.DelaySeconds <= 0 {
			err = fmt.Errorf("delay must be positive")
		}
	case strings.HasPrefix(arg, "p"):
		var prob float64
		prob, err = strconv.ParseFloat(arg[1:], 64)
		if err == nil && (prob <= 0 || prob > 1) {
			err = fmt.Errorf("probability %v outside (0,1]", prob)
		}
		if kind == "drop" {
			lf.DropProb = prob
		} else {
			lf.CorruptProb = prob
		}
	case strings.HasPrefix(arg, "every"):
		var n int
		n, err = strconv.Atoi(arg[len("every"):])
		if err == nil && n < 1 {
			err = fmt.Errorf("every period must be >= 1")
		}
		if kind == "drop" {
			lf.DropEvery = n
		} else {
			lf.CorruptEvery = n
		}
	default:
		err = fmt.Errorf("want pP or everyN, got %q", arg)
	}
	if err != nil {
		return err
	}
	pl.Links = append(pl.Links, lf)
	return nil
}
