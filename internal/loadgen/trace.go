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

// Ramp returns a stepped-RPS trace in the invitro trace-synthesizer
// shape: the first slot offers start RPS, each following slot adds
// step, and the last slot is the first to reach (or exceed) target.
// Every slot lasts slotDur. A non-positive step yields the single
// start slot.
func Ramp(start, step, target float64, slotDur time.Duration) []Slot {
	var out []Slot
	for rps, ok := start, true; ok; rps, ok = rampNext(rps, step, target) {
		out = append(out, Slot{RPS: rps, Dur: slotDur})
	}
	return out
}

// RampSize returns the slot count of Ramp(start, step, target, slotDur)
// and the requests it schedules (the sum of RPS × slotDur) without
// building it, stopping once the count passes maxSlots: a tiny step or
// a step lost to rounding would otherwise ramp forever.
func RampSize(start, step, target float64, slotDur time.Duration, maxSlots int) (slots int, requests float64) {
	for rps, ok := start, true; ok && slots <= maxSlots; rps, ok = rampNext(rps, step, target) {
		slots++
		requests += rps * slotDur.Seconds()
	}
	return slots, requests
}

// rampNext returns the RPS of the slot after one offering rps, or false
// after the ramp's last slot.
func rampNext(rps, step, target float64) (float64, bool) {
	if step <= 0 || rps >= target {
		return 0, false
	}
	return min(rps+step, target), true
}

// mixOrder lists the operation kinds in sampling order and mixWeights
// their weights: a retrieval-heavy workload, mostly single-pair lookups
// with a heavy tail of one-vs-all sweeps and top-K queries whose work
// grows with the database size.
var (
	mixOrder   = []Op{OpScore, OpOneVsAll, OpTopK}
	mixWeights = []float64{0.90, 0.07, 0.03}
)

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
	// Slots is the offered-rate schedule (see Ramp).
	Slots []Slot
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
	var totalW float64
	for _, w := range mixWeights {
		totalW += w
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	pickOp := func() Op {
		x := rng.Float64() * totalW
		for i, w := range mixWeights {
			if x < w {
				return mixOrder[i]
			}
			x -= w
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
			gap := sl.Dur / time.Duration(max(n, 1))
			for i := 0; i < n; i++ {
				out = append(out, Arrival{At: base + time.Duration(i)*gap, Op: pickOp(), Slot: si})
			}
		}
		base += sl.Dur
	}
	return out, nil
}
