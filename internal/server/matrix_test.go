package server

import (
	"context"
	"testing"

	"hbsp/sched"
	"hbsp/sim"
)

// asymmetricMatrixMachine builds a p-rank uploaded-matrix machine whose
// latency and gap differ in the two directions of every pair, with ranks 0
// and 1 sharing a NIC so both port paths are exercised.
func asymmetricMatrixMachine(p int) *matrixMachine {
	square := func(f func(i, j int) float64) [][]float64 {
		rows := make([][]float64, p)
		for i := range rows {
			rows[i] = make([]float64, p)
			for j := range rows[i] {
				if i != j {
					rows[i][j] = f(i, j)
				}
			}
		}
		return rows
	}
	nic := make([]int, p)
	for i := range nic {
		nic[i] = i
	}
	nic[1] = 0
	return &matrixMachine{
		lat:          square(func(i, j int) float64 { return 1e-6 * float64(3+2*i+5*j) }),
		gap:          square(func(i, j int) float64 { return 1e-7 * float64(1+7*i+3*j) }),
		beta:         square(func(i, j int) float64 { return 1e-9 * float64(1+i+j) }),
		ovh:          square(func(i, j int) float64 { return 1e-7 * float64(2+i) }),
		selfOverhead: 1e-7,
		nic:          nic,
	}
}

// scheduleProgram lowers one execution of the schedule to the op-stream the
// direct evaluator's stage walk performs: per stage, each rank posts its
// receives, sends, then waits receives and sends in edge order; a rank with
// no edges pays an empty Compute(0).
func scheduleProgram(s sched.Schedule) *sim.Program {
	p := s.NumProcs()
	pr := sim.NewProgram(p)
	for sg := 0; sg < s.NumStages(); sg++ {
		st := s.StageAt(sg)
		for r := 0; r < p; r++ {
			b := pr.Rank(r)
			if len(st.In[r]) == 0 && len(st.Out[r]) == 0 {
				b.Compute(0)
				continue
			}
			var reqs []sim.Req
			for _, src := range st.In[r] {
				reqs = append(reqs, b.Irecv(src, sg))
			}
			for k, dst := range st.Out[r] {
				reqs = append(reqs, b.Isend(dst, sg, st.OutBytes[r][k]))
			}
			for _, q := range reqs {
				b.Wait(q)
			}
		}
	}
	return pr
}

// TestMatrixMachineEnginesBitIdentical runs a total exchange (plus an empty
// stage) on an asymmetric uploaded-matrix machine through the concurrent
// engine and sched.RunSchedule: with the pair priced once per send and the
// gap travelling with the message, virtual times and traffic must agree bit
// for bit, acks on and off.
func TestMatrixMachineEnginesBitIdentical(t *testing.T) {
	const p = 5
	m := asymmetricMatrixMachine(p)
	offsets := []int{0, 1, 2, 3, 4}
	sizes := []int{0, 64, 0, 4096, 8}
	for _, ack := range []bool{true, false} {
		s, err := sched.NewCirculant(p, offsets, sizes)
		if err != nil {
			t.Fatal(err)
		}
		o := sim.DefaultOptions()
		o.AckSends = ack
		o.Engine = sim.EngineConcurrent
		conc, err := sim.RunProgram(context.Background(), m, scheduleProgram(s), o)
		if err != nil {
			t.Fatal(err)
		}
		o.Engine = sim.EngineAuto
		direct, err := sched.RunSchedule(context.Background(), m, s, 1, o)
		if err != nil {
			t.Fatal(err)
		}
		for r := range conc.Times {
			if conc.Times[r] != direct.Times[r] {
				t.Errorf("ack=%v rank %d: concurrent %v, RunSchedule %v", ack, r, conc.Times[r], direct.Times[r])
			}
		}
		if conc.Messages != direct.Messages || conc.Bytes != direct.Bytes {
			t.Errorf("ack=%v traffic: concurrent %d/%d, RunSchedule %d/%d",
				ack, conc.Messages, conc.Bytes, direct.Messages, direct.Bytes)
		}
	}
}

// TestMatrixMachinePairDirections pins which direction of an asymmetric
// machine each cost is read from, on both engines: the ack of a send i→j
// pays the reverse latency lat[j][i], and the receiver's extraction port is
// occupied by the sender's gap[i][j].
func TestMatrixMachinePairDirections(t *testing.T) {
	for _, engine := range []sim.Engine{sim.EngineConcurrent, sim.EngineAuto} {
		// Acknowledged ping 2→3 (distinct NICs): the sender finishes after
		// its overhead, the forward latency and the return latency.
		m := asymmetricMatrixMachine(4)
		ping := sim.NewProgram(4)
		ping.Rank(2).Wait(ping.Rank(2).Isend(3, 0, 0))
		ping.Rank(3).Wait(ping.Rank(3).Irecv(2, 0))
		o := sim.DefaultOptions()
		o.Engine = engine
		res, err := sched.RunProgram(context.Background(), m, ping, o)
		if err != nil {
			t.Fatal(err)
		}
		arrival := m.ovh[2][3] + m.lat[2][3]
		if want := arrival + m.lat[3][2]; res.Times[2] != want {
			t.Errorf("engine %v: acked sender at %v, want %v (return latency lat[3][2])", engine, res.Times[2], want)
		}
		if res.Times[3] != arrival {
			t.Errorf("engine %v: receiver at %v, want %v", engine, res.Times[3], arrival)
		}

		// Ranks 2 and 3 post to rank 0 at once; rank 0 waits 3 first. The
		// gap 3→0 dominates the arrival from 2, so rank 0 ends one gap
		// gap[3][0] after the first arrival.
		fan := sim.NewProgram(4)
		fan.Rank(2).Post(0, 0, 0)
		fan.Rank(3).Post(0, 0, 0)
		from3, from2 := fan.Rank(0).Irecv(3, 0), fan.Rank(0).Irecv(2, 0)
		fan.Rank(0).Wait(from3)
		fan.Rank(0).Wait(from2)
		m.gap[3][0] = 1e-3
		res, err = sched.RunProgram(context.Background(), m, fan, o)
		if err != nil {
			t.Fatal(err)
		}
		if want := m.ovh[3][0] + m.lat[3][0] + m.gap[3][0]; res.Times[0] != want {
			t.Errorf("engine %v: receiver at %v, want %v (extraction gap gap[3][0])", engine, res.Times[0], want)
		}
	}
}
