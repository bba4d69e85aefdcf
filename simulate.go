package see

import (
	"errors"
	"fmt"
	"math/rand"

	"see/internal/xrand"
)

// WorkloadConfig describes a multi-slot qubit workload: each SD pair
// receives data qubits to teleport at a fixed mean rate, queues them, and
// serves them with whatever entanglement connections its scheduler
// establishes each slot.
type WorkloadConfig struct {
	// Slots is the number of time slots to simulate.
	Slots int
	// ArrivalsPerPair is the mean number of data qubits arriving at each
	// SD pair per slot (fractional rates are Bernoulli-rounded).
	ArrivalsPerPair float64
	// QueueCap bounds each pair's backlog; arrivals beyond it are dropped
	// (0 means unbounded).
	QueueCap int
	// Seed drives arrivals and the scheduler's slots.
	Seed int64
}

// WorkloadResult aggregates a workload simulation.
type WorkloadResult struct {
	// Arrived counts data qubits offered to the network.
	Arrived int
	// Delivered counts data qubits teleported to their destinations.
	Delivered int
	// Dropped counts arrivals rejected by full queues.
	Dropped int
	// Backlog is the number of qubits still queued at the end.
	Backlog int
	// MeanLatencySlots is the average waiting time (in slots, 0 = same
	// slot as arrival) of delivered qubits.
	MeanLatencySlots float64
	// MaxBacklog is the largest queue total observed after any slot.
	MaxBacklog int
	// ThroughputPerSlot is Delivered / Slots.
	ThroughputPerSlot float64
	// PerPairDelivered breaks Delivered down by SD pair.
	PerPairDelivered []int
	// Carry reports the scheduler's cross-slot bank activity over the run
	// (zero for schedulers without CarrySlots).
	Carry CarryStats
}

// RunWorkload drives a scheduler slot by slot against the workload. The
// scheduler establishes connections; each connection teleports the oldest
// queued qubit of its pair (an established connection with an empty queue
// is wasted — exactly the over-provisioning a batching controller avoids).
func RunWorkload(sched Scheduler, pairs int, w WorkloadConfig) (*WorkloadResult, error) {
	if sched == nil {
		return nil, errors.New("see: nil scheduler")
	}
	if w.Slots <= 0 {
		return nil, fmt.Errorf("see: Slots must be positive, got %d", w.Slots)
	}
	if w.ArrivalsPerPair < 0 {
		return nil, fmt.Errorf("see: negative arrival rate %v", w.ArrivalsPerPair)
	}
	rng := xrand.New(w.Seed)
	arrivalRng := xrand.Split(rng)
	slotRng := xrand.Split(rng)

	queues := make([][]int, pairs) // arrival slot per queued qubit
	res := &WorkloadResult{PerPairDelivered: make([]int, pairs)}
	var latencySum float64

	for slot := 0; slot < w.Slots; slot++ {
		// Arrivals.
		for i := 0; i < pairs; i++ {
			n := arrivals(arrivalRng, w.ArrivalsPerPair)
			for k := 0; k < n; k++ {
				res.Arrived++
				if w.QueueCap > 0 && len(queues[i]) >= w.QueueCap {
					res.Dropped++
					continue
				}
				queues[i] = append(queues[i], slot)
			}
		}
		// Service.
		out, err := sched.RunSlot(slotRng)
		if err != nil {
			return nil, fmt.Errorf("see: slot %d: %w", slot, err)
		}
		if len(out.PerPair) != pairs {
			return nil, fmt.Errorf("see: scheduler served %d pairs, workload has %d", len(out.PerPair), pairs)
		}
		for i, conns := range out.PerPair {
			served := min(conns, len(queues[i]))
			for k := 0; k < served; k++ {
				latencySum += float64(slot - queues[i][k])
				res.Delivered++
				res.PerPairDelivered[i]++
			}
			queues[i] = queues[i][served:]
		}
		backlog := 0
		for i := range queues {
			backlog += len(queues[i])
		}
		if backlog > res.MaxBacklog {
			res.MaxBacklog = backlog
		}
	}
	for i := range queues {
		res.Backlog += len(queues[i])
	}
	if res.Delivered > 0 {
		res.MeanLatencySlots = latencySum / float64(res.Delivered)
	}
	res.ThroughputPerSlot = float64(res.Delivered) / float64(w.Slots)
	res.Carry = SchedulerCarryStats(sched)
	return res, nil
}

// arrivals draws ⌊rate⌋ + Bernoulli(frac) arrivals.
func arrivals(rng *rand.Rand, rate float64) int {
	n := int(rate)
	if xrand.Bernoulli(rng, rate-float64(n)) {
		n++
	}
	return n
}
