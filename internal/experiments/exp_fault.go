package experiments

import (
	"context"
	"fmt"

	"hbsp/internal/bsp"
	"hbsp/internal/fault"
	"hbsp/internal/platform"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
)

// Fault-injection studies: how well does the LogGP cost model predict the
// makespan inflation a deterministic fault scenario causes? Two series exist,
// one per fault axis — a straggler magnitude sweep and a fail-stop
// checkpoint-interval sweep — both evaluated on the flat homogeneous cluster
// (noise-free, so the fault plan is the only source of perturbation) through
// the direct engine.

// StragglerPoint is one point of the straggler magnitude sweep.
type StragglerPoint struct {
	// Factor is the straggler's slowdown multiplier (rank 0's noise draws
	// are multiplied by it for the whole run).
	Factor float64
	// Baseline is the fault-free makespan, MakeSpan the straggler makespan.
	Baseline float64
	MakeSpan float64
	// Inflation is the simulated makespan increase, Predicted the first-order
	// LogGP model of it: per execution, every stage of the exchange charges
	// the straggler (overhead + latency + transfer) once, each scaled by the
	// slowdown — so the inflation is execs·Σ_stages(o+L+kβ)·(factor−1).
	Inflation float64
	Predicted float64
	// RelError is (Predicted − Inflation) / Inflation.
	RelError float64
}

// StragglerSeries sweeps the slowdown factor of a single straggling rank
// (rank 0) across execs executions of the superstep count exchange at the
// given rank count, comparing the simulated makespan inflation against the
// first-order model prediction.
func StragglerSeries(procs, execs int, factors []float64) ([]StragglerPoint, error) {
	if procs < 2 {
		return nil, fmt.Errorf("experiments: straggler series needs >= 2 ranks, got %d", procs)
	}
	baseline, delta, err := stragglerBaseline(procs, execs)
	if err != nil {
		return nil, err
	}
	return ParallelSeries(factors, func(f float64) ([]StragglerPoint, error) {
		m, err := platform.FlatClusterMachine(procs)
		if err != nil {
			return nil, err
		}
		s, err := bsp.ExchangeSchedule(procs)
		if err != nil {
			return nil, err
		}
		o := simnet.DefaultOptions()
		o.Faults = &fault.Plan{Slowdowns: []fault.Slowdown{{Rank: 0, Factor: f}}}
		res, err := sched.RunSchedule(context.Background(), m, s, execs, o)
		if err != nil {
			return nil, err
		}
		pt := StragglerPoint{
			Factor:    f,
			Baseline:  baseline,
			MakeSpan:  res.MakeSpan,
			Inflation: res.MakeSpan - baseline,
			Predicted: float64(execs) * delta * (f - 1),
		}
		if pt.Inflation != 0 {
			pt.RelError = (pt.Predicted - pt.Inflation) / pt.Inflation
		}
		return []StragglerPoint{pt}, nil
	})
}

// stragglerBaseline evaluates the fault-free exchange and the per-execution
// model term Σ_stages(o+L+kβ) of rank 0's slowed costs.
func stragglerBaseline(procs, execs int) (baseline, delta float64, err error) {
	m, err := platform.FlatClusterMachine(procs)
	if err != nil {
		return 0, 0, err
	}
	s, err := bsp.ExchangeSchedule(procs)
	if err != nil {
		return 0, 0, err
	}
	res, err := sched.RunSchedule(context.Background(), m, s, execs, simnet.DefaultOptions())
	if err != nil {
		return 0, 0, err
	}
	for sg := 0; sg < s.NumStages(); sg++ {
		st := s.StageAt(sg)
		for k, dst := range st.Out[0] {
			size := 0
			if st.OutBytes != nil {
				size = st.OutBytes[0][k]
			}
			lat, _, beta, ovh, _ := m.Pair(0, dst)
			delta += ovh + lat + float64(size)*beta
		}
	}
	return res.MakeSpan, delta, nil
}

// StragglerTable renders straggler sweep points.
func StragglerTable(title string, points []StragglerPoint) *Table {
	t := &Table{Title: title, Columns: []string{"factor", "baseline [s]", "makespan [s]", "inflation [s]", "predicted [s]", "rel err"}}
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%g", p.Factor), fmtSeconds(p.Baseline), fmtSeconds(p.MakeSpan),
			fmtSeconds(p.Inflation), fmtSeconds(p.Predicted), fmtPercent(p.RelError))
	}
	return t
}

// RecoveryPoint is one point of the fail-stop checkpoint-interval sweep.
type RecoveryPoint struct {
	// FailAt is the virtual crash time (half the fault-free makespan),
	// Checkpoint the checkpoint interval (0 = no checkpointing: the whole
	// prefix is recomputed).
	FailAt     float64
	Checkpoint float64
	// Predicted is the accounting model's recovery cost — restart plus
	// recompute back to the last checkpoint (FailAt mod Checkpoint).
	Predicted float64
	// Inflation is the simulated makespan increase over the fault-free run;
	// in a fully synchronized workload every rank stalls behind the failed
	// one, so the inflation matches the predicted penalty.
	Inflation float64
	MakeSpan  float64
}

// RecoverySeries crashes rank 0 halfway through execs executions of the
// count exchange and sweeps the checkpoint interval, given as fractions of
// the crash time (0 = no checkpointing). Restart cost is fixed at an eighth
// of the crash time. The sweep shows the recovery cost the checkpoint
// interval buys: from restart+FailAt with no checkpoints down to nearly just
// the restart cost at tight intervals.
func RecoverySeries(procs, execs int, fractions []float64) ([]RecoveryPoint, error) {
	if procs < 2 {
		return nil, fmt.Errorf("experiments: recovery series needs >= 2 ranks, got %d", procs)
	}
	m, err := platform.FlatClusterMachine(procs)
	if err != nil {
		return nil, err
	}
	s, err := bsp.ExchangeSchedule(procs)
	if err != nil {
		return nil, err
	}
	base, err := sched.RunSchedule(context.Background(), m, s, execs, simnet.DefaultOptions())
	if err != nil {
		return nil, err
	}
	failAt := base.MakeSpan * 0.5
	restart := failAt / 8
	return ParallelSeries(fractions, func(fr float64) ([]RecoveryPoint, error) {
		m, err := platform.FlatClusterMachine(procs)
		if err != nil {
			return nil, err
		}
		s, err := bsp.ExchangeSchedule(procs)
		if err != nil {
			return nil, err
		}
		fs := fault.FailStop{Rank: 0, FailAt: failAt, Restart: restart, Checkpoint: failAt * fr}
		o := simnet.DefaultOptions()
		o.Faults = &fault.Plan{FailStops: []fault.FailStop{fs}}
		res, err := sched.RunSchedule(context.Background(), m, s, execs, o)
		if err != nil {
			return nil, err
		}
		return []RecoveryPoint{{
			FailAt:     failAt,
			Checkpoint: fs.Checkpoint,
			Predicted:  fs.Penalty(),
			Inflation:  res.MakeSpan - base.MakeSpan,
			MakeSpan:   res.MakeSpan,
		}}, nil
	})
}

// RecoveryTable renders checkpoint-interval sweep points.
func RecoveryTable(title string, points []RecoveryPoint) *Table {
	t := &Table{Title: title, Columns: []string{"checkpoint [s]", "fail at [s]", "predicted cost [s]", "simulated cost [s]", "makespan [s]"}}
	for _, p := range points {
		t.AddRow(fmtSeconds(p.Checkpoint), fmtSeconds(p.FailAt), fmtSeconds(p.Predicted),
			fmtSeconds(p.Inflation), fmtSeconds(p.MakeSpan))
	}
	return t
}
