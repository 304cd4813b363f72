package bsp

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"hbsp/internal/platform"
	"hbsp/internal/simnet"
)

func gateMachine(t *testing.T, procs int) *platform.Machine {
	t.Helper()
	m, err := platform.Xeon8x2x4().Machine(procs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSyncGateUnwindsOnRankError pins the teardown of the direct-engine
// rendezvous: when one rank errors out before Sync, the remaining ranks are
// parked at the run's gate and can only be released by the deadline teardown
// — exactly like ranks blocked in receives on the concurrent engine. The run
// must return ErrDeadline promptly, with every rank goroutine unwound.
func TestSyncGateUnwindsOnRankError(t *testing.T) {
	m := gateMachine(t, 8)
	o := simnet.DefaultOptions()
	o.Deadline = 200 * time.Millisecond
	start := time.Now()
	_, err := RunContext(context.Background(), m, RunConfig{Options: &o}, func(c *Ctx) error {
		if c.Pid() == 0 {
			return fmt.Errorf("rank 0 gives up before the superstep ends")
		}
		return c.Sync()
	})
	if !errors.Is(err, simnet.ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("teardown took %v; gate waiters were not woken", elapsed)
	}
}

// TestSyncGateUnwindsOnContextCancel pins context cancellation while ranks
// are parked at the gate: the run aborts with an error wrapping ErrAborted
// and the cancellation cause, identical to cancellation of ranks blocked in
// receives.
func TestSyncGateUnwindsOnContextCancel(t *testing.T) {
	m := gateMachine(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	o := simnet.DefaultOptions()
	_, err := RunContext(ctx, m, RunConfig{Options: &o}, func(c *Ctx) error {
		if c.Pid() == 0 {
			// Leave the others parked at the gate, then pull the plug.
			time.Sleep(50 * time.Millisecond)
			cancel()
			return fmt.Errorf("rank 0 cancelled the run")
		}
		return c.Sync()
	})
	if !errors.Is(err, simnet.ErrAborted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrAborted wrapping context.Canceled, got %v", err)
	}
}

// TestSyncGateSingleRank pins the degenerate rendezvous: at P=1 the sole
// rank is always the gate leader and the exchange evaluates to its own row.
func TestSyncGateSingleRank(t *testing.T) {
	m := gateMachine(t, 1)
	res, err := Run(m, func(c *Ctx) error { return c.Sync() })
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) != 1 {
		t.Fatalf("bad result: %+v", res)
	}
}

// TestSyncCountRowsSurviveEarlyFinishers pins the double-buffered count rows
// of the direct exchange, which hands every rank the live rows of all ranks.
// Rank 0 receives a flood of messages every superstep, so its drain runs long
// after the other ranks have left Sync and started counting the next
// superstep's messages. Every rank must still drain exactly the messages
// addressed to it, and the virtual times must equal the concurrent engine's,
// which copies the rows (run under -race to catch a shared row).
func TestSyncCountRowsSurviveEarlyFinishers(t *testing.T) {
	const (
		procs = 8
		steps = 12
		flood = 300 // extra messages per rank to rank 0, per superstep
	)
	sends := func(src, dst, step int) int {
		n := (src*7 + dst*3 + step) % 5
		if dst == 0 {
			n += flood
		}
		return n
	}
	program := func(c *Ctx) error {
		for step := 0; step < steps; step++ {
			for dst := 0; dst < procs; dst++ {
				for k := 0; k < sends(c.Pid(), dst, step); k++ {
					if err := c.Send(dst, step, []float64{float64(k)}); err != nil {
						return err
					}
				}
			}
			if err := c.Sync(); err != nil {
				return err
			}
			want := 0
			for src := 0; src < procs; src++ {
				want += sends(src, c.Pid(), step)
			}
			if got := c.QueueLen(); got != want {
				return fmt.Errorf("rank %d step %d: drained %d messages, want %d", c.Pid(), step, got, want)
			}
		}
		return nil
	}
	m := gateMachine(t, procs)
	run := func(engine simnet.Engine) *simnet.Result {
		o := simnet.DefaultOptions()
		o.Engine = engine
		o.Deadline = 30 * time.Second // a shared row deadlocks the drain
		res, err := RunContext(context.Background(), m, RunConfig{Options: &o}, program)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	direct, concurrent := run(simnet.EngineAuto), run(simnet.EngineConcurrent)
	for r := range direct.Times {
		if direct.Times[r] != concurrent.Times[r] {
			t.Errorf("rank %d: direct %v, concurrent %v", r, direct.Times[r], concurrent.Times[r])
		}
	}
	if direct.Messages != concurrent.Messages || direct.Bytes != concurrent.Bytes {
		t.Errorf("traffic: direct %d/%d, concurrent %d/%d", direct.Messages, direct.Bytes, concurrent.Messages, concurrent.Bytes)
	}
}
