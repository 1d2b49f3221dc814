// Package loadgen synthesizes deterministic open-loop arrival traces
// and replays them against a live comparison server (cmd/rckserve),
// producing an SLO report (per-endpoint latency quantiles, goodput vs
// offered load, the knee of the throughput/latency curve) and a
// Chrome/Perfetto trace of the whole run.
//
// Open loop means the generator fires requests at the trace's arrival
// times regardless of how many responses are outstanding — the
// schedule never waits for the server, so measured latencies are free
// of coordinated omission (a closed-loop client slows its arrival rate
// exactly when the server is slow, hiding the tail it should be
// measuring).
//
// Determinism contract: the arrival schedule — slot boundaries,
// arrival offsets, operation mix and target choices — is a pure
// function of (SynthSpec, structure-ID list, seed) and is byte-stable
// across runs (see BuildRequests and cmd/rckload -sched-out). Measured
// latencies are host wall-clock and are not deterministic; the report
// separates the two.
package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Op is one request kind in the generated mix. The three query kinds
// have very different work sizes (1 pair, N-1 pairs, N-1 pairs +
// ranking), which is what makes a mixed trace heavy-tailed in service
// demand even when arrivals are smooth.
type Op string

const (
	OpScore    Op = "score"
	OpOneVsAll Op = "onevsall"
	OpTopK     Op = "topk"
)

// Slot is one constant-rate segment of a trace: RPS offered for Dur.
type Slot struct {
	RPS float64       `json:"rps"`
	Dur time.Duration `json:"dur"`
}

// Constant returns a single-rate trace: rps for the whole duration,
// split into slot-sized segments so per-slot reporting still works.
func Constant(rps float64, total, slot time.Duration) []Slot {
	if slot <= 0 || slot > total {
		slot = total
	}
	var out []Slot
	for t := time.Duration(0); t < total; t += slot {
		d := slot
		if t+d > total {
			d = total - t
		}
		out = append(out, Slot{RPS: rps, Dur: d})
	}
	return out
}

// Ramp returns a stepped-RPS trace in the invitro trace-synthesizer
// shape: the first slot offers start RPS, each following slot adds
// step, and the last slot is the first to reach (or exceed) target.
// Every slot lasts slotDur. A non-positive step yields the single
// start slot.
func Ramp(start, step, target float64, slotDur time.Duration) []Slot {
	var out []Slot
	rps := start
	for {
		out = append(out, Slot{RPS: rps, Dur: slotDur})
		if step <= 0 || rps >= target {
			return out
		}
		rps += step
		if rps > target {
			rps = target
		}
	}
}

// Burst returns a base-rate trace with periodic bursts: every period,
// the rate jumps to burst RPS for burstDur, then falls back to base.
func Burst(base, burst float64, period, burstDur, total time.Duration) []Slot {
	if burstDur >= period {
		burstDur = period / 2
	}
	var out []Slot
	for t := time.Duration(0); t < total; {
		calm := period - burstDur
		if t+calm > total {
			calm = total - t
		}
		out = append(out, Slot{RPS: base, Dur: calm})
		t += calm
		if t >= total {
			break
		}
		b := burstDur
		if t+b > total {
			b = total - t
		}
		out = append(out, Slot{RPS: burst, Dur: b})
		t += b
	}
	return out
}

// Diurnal returns a day-curve trace: the rate follows a raised sinusoid
// around mean with the given amplitude over one period, sampled into
// slotDur segments. amplitude is clamped to mean so the rate never goes
// negative.
func Diurnal(mean, amplitude float64, period, slotDur, total time.Duration) []Slot {
	if amplitude > mean {
		amplitude = mean
	}
	var out []Slot
	for t := time.Duration(0); t < total; t += slotDur {
		d := slotDur
		if t+d > total {
			d = total - t
		}
		phase := 2 * math.Pi * float64(t) / float64(period)
		out = append(out, Slot{RPS: mean + amplitude*math.Sin(phase), Dur: d})
	}
	return out
}

// Mix assigns each operation kind a sampling weight. Weights need not
// sum to 1; zero-weight ops never fire.
type Mix map[Op]float64

// DefaultMix is a retrieval-heavy workload: mostly single-pair lookups
// with a heavy tail of one-vs-all sweeps and top-K queries whose work
// grows with the database size.
func DefaultMix() Mix {
	return Mix{OpScore: 0.90, OpOneVsAll: 0.07, OpTopK: 0.03}
}

// mixOps returns the mix's ops in fixed order (score, onevsall, topk)
// with positive weight, so weighted sampling is deterministic.
var mixOrder = []Op{OpScore, OpOneVsAll, OpTopK}

// Arrival is one scheduled request: fire at offset At from run start.
type Arrival struct {
	At   time.Duration `json:"at"`
	Op   Op            `json:"op"`
	Slot int           `json:"slot"`
}

// SynthSpec configures trace synthesis.
type SynthSpec struct {
	// Seed drives every random choice (arrival jitter, op mix); same
	// seed, same trace.
	Seed int64
	// Slots is the offered-rate schedule (see Constant/Ramp/Burst/
	// Diurnal).
	Slots []Slot
	// Mix weights the operation kinds (nil = DefaultMix).
	Mix Mix
	// Poisson draws exponential inter-arrival gaps (a memoryless open
	// arrival process); false spaces arrivals evenly within each slot.
	Poisson bool
}

// Validate reports a usable spec or a one-line reason.
func (s SynthSpec) Validate() error {
	if len(s.Slots) == 0 {
		return fmt.Errorf("loadgen: no slots in trace")
	}
	for i, sl := range s.Slots {
		if sl.RPS < 0 {
			return fmt.Errorf("loadgen: slot %d has negative rate %v", i, sl.RPS)
		}
		if sl.Dur <= 0 {
			return fmt.Errorf("loadgen: slot %d has non-positive duration %v", i, sl.Dur)
		}
	}
	total := 0.0
	for op, w := range s.Mix {
		if w < 0 {
			return fmt.Errorf("loadgen: mix weight for %s is negative", op)
		}
		total += w
	}
	if s.Mix != nil && total == 0 {
		return fmt.Errorf("loadgen: mix has no positive weight")
	}
	return nil
}

// TotalDuration returns the trace's scheduled length.
func (s SynthSpec) TotalDuration() time.Duration {
	var total time.Duration
	for _, sl := range s.Slots {
		total += sl.Dur
	}
	return total
}

// Synthesize expands the spec into a deterministic arrival schedule:
// same spec, same seed, same slice. Uniform mode places round(RPS*dur)
// arrivals evenly in each slot; Poisson mode draws exponential gaps at
// the slot's rate. Ops are sampled from the mix with the same seeded
// generator.
func Synthesize(spec SynthSpec) ([]Arrival, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	mix := spec.Mix
	if mix == nil {
		mix = DefaultMix()
	}
	var totalW float64
	for _, op := range mixOrder {
		totalW += mix[op]
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	pickOp := func() Op {
		x := rng.Float64() * totalW
		for _, op := range mixOrder {
			if x < mix[op] {
				return op
			}
			x -= mix[op]
		}
		return mixOrder[len(mixOrder)-1]
	}
	var out []Arrival
	base := time.Duration(0)
	for si, sl := range spec.Slots {
		if sl.RPS == 0 {
			base += sl.Dur
			continue
		}
		if spec.Poisson {
			t := time.Duration(float64(time.Second) * rng.ExpFloat64() / sl.RPS)
			for t < sl.Dur {
				out = append(out, Arrival{At: base + t, Op: pickOp(), Slot: si})
				t += time.Duration(float64(time.Second) * rng.ExpFloat64() / sl.RPS)
			}
		} else {
			n := int(math.Round(sl.RPS * sl.Dur.Seconds()))
			gap := sl.Dur / time.Duration(maxInt(n, 1))
			for i := 0; i < n; i++ {
				out = append(out, Arrival{At: base + time.Duration(i)*gap, Op: pickOp(), Slot: si})
			}
		}
		base += sl.Dur
	}
	return out, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
