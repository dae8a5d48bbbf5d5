package cluster

import (
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/paramsync"
)

// pool coordinates the worker fleet's FedAvg sync barrier. The
// protocol:
//
//   - account() credits served steps; when the sync (or checkpoint)
//     cadence is reached it arms the barrier: due=true, and the current
//     syncReq channel is closed so idle workers blocked on the queue
//     wake up and come to the barrier too.
//   - Every worker calls Server.syncIfDue between batches (and when
//     woken while idle). Arrivals park on cond until the last live
//     worker arrives.
//   - The last arriver has exclusive access to every replica (all
//     other workers are parked): it averages the replicas
//     (Server.syncReplicas), writes a checkpoint if one is due, then
//     opens the barrier — generation++, fresh syncReq, broadcast.
//   - Shutdown aborts a pending barrier: workers abandon the
//     rendezvous when the server context dies (pool.interrupt
//     broadcasts), and the supervisor performs the final average and
//     checkpoint after the pool has fully drained. A worker exits only
//     on shutdown, so exit() never strands a live barrier.
//
// All fields are guarded by mu. The pool is inert (never armed) at
// Workers <= 1: init is not called, wake() returns nil, and syncIfDue
// is never invoked.
type pool struct {
	mu   sync.Mutex
	cond *sync.Cond

	syncEvery int
	live      int // workers not yet exited
	arrived   int // workers parked at the armed barrier
	gen       int // barrier generation, advances as each barrier opens
	due       bool
	steps     int // pool-wide steps since the last sync
	ckptDue   int // pool-wide steps since the last checkpoint
	doCkpt    bool
	syncReq   chan struct{} // closed when due; replaced as the barrier opens
}

func (p *pool) init(workers, syncEvery int) {
	p.cond = sync.NewCond(&p.mu)
	p.syncEvery = syncEvery
	p.live = workers
	p.syncReq = make(chan struct{})
}

// wake returns the channel closed when a barrier is armed — the idle
// worker's signal to rendezvous. nil (blocks forever in a select) when
// the pool is inert.
func (p *pool) wake() <-chan struct{} {
	if p.cond == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.syncReq
}

// account credits n served steps and arms the barrier when the sync
// cadence — or, when a checkpoint sink is configured, the checkpoint
// cadence — is reached.
func (p *pool) account(n int, wantCkpt bool, ckptEvery int) {
	p.mu.Lock()
	p.steps += n
	p.ckptDue += n
	if wantCkpt && p.ckptDue >= ckptEvery {
		p.doCkpt = true
	}
	if !p.due && (p.steps >= p.syncEvery || p.doCkpt) {
		p.due = true
		close(p.syncReq)
	}
	p.mu.Unlock()
}

// exit removes one worker from the pool. Workers exit only at shutdown
// (context cancellation), which also aborts any pending barrier, so the
// broadcast here only hurries parked workers to notice.
func (p *pool) exit() {
	p.mu.Lock()
	p.live--
	p.cond.Broadcast()
	p.mu.Unlock()
}

// interrupt wakes workers parked at the barrier so they can observe
// the dying server context. No-op on an inert pool.
func (p *pool) interrupt() {
	if p.cond == nil {
		return
	}
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// syncIfDue is the barrier rendezvous: a no-op unless account armed the
// barrier. Callers hold no locks and are between passes — their replica
// is consistent. The last arriving worker performs the average (and a
// due checkpoint) while every other live worker is parked here, then
// opens the barrier.
func (s *Server) syncIfDue() {
	p := &s.pool
	p.mu.Lock()
	if !p.due {
		p.mu.Unlock()
		return
	}
	gen := p.gen
	p.arrived++
	if p.arrived < p.live {
		// Not last: park until this barrier opens or the server dies.
		for p.gen == gen && s.ctx.Err() == nil {
			p.cond.Wait()
		}
		p.mu.Unlock()
		return
	}
	doCkpt := p.doCkpt && s.cfg.Checkpoint != nil
	p.doCkpt = false
	if doCkpt {
		// Only a checkpointing barrier restarts the countdown: a plain
		// sync (SyncEvery below CheckpointEvery) must not postpone the
		// next periodic checkpoint.
		p.ckptDue = 0
	}
	p.mu.Unlock()

	// Exclusive model access: every other live worker is parked above.
	if s.ctx.Err() == nil {
		if err := s.syncReplicas(); err != nil {
			// A sync that cannot produce finite parameters is terminal for
			// the pool — but a contained failure, not a crash: failPool
			// checkpoints the healthy replicas and cancels the server
			// context. The barrier still opens below so the parked workers
			// wake and observe the dying context.
			s.failPool(err)
		} else if doCkpt {
			s.checkpoint()
		}
	}

	p.mu.Lock()
	p.steps = 0
	p.due = false
	p.arrived = 0
	p.gen++
	p.syncReq = make(chan struct{})
	p.cond.Broadcast()
	p.mu.Unlock()
}

// syncReplicas performs one parameter aggregation across the pool using
// the configured rule (FedAvg average by default; trimmed mean or
// clipped average for Byzantine tolerance): the replica-divergence gauge
// is read first (the drift the barrier is about to erase), the aggregate
// lands in the primary, and the result fans out so every replica leaves
// the barrier identical — which also heals a replica that went
// non-finite, since the robust rules drop poisoned sets before
// averaging. An error (plain Average refusing a NaN replica, or every
// replica poisoned) means the pool cannot continue: the caller converts
// it into a contained shutdown via failPool. Called only with exclusive
// access to all replicas — by the barrier's last arriver, or by the
// supervisor after the pool drained.
func (s *Server) syncReplicas() error {
	start := time.Now()
	sets := make([][]*nn.Param, len(s.replicas))
	for i, rep := range s.replicas {
		sets[i] = rep.Stack.Params()
	}
	div := paramsync.Divergence(sets)
	if math.IsNaN(div) || math.IsInf(div, 0) {
		// A poisoned replica makes the RMS spread meaningless; don't
		// export NaN through the gauge.
		div = 0
	}
	if err := paramsync.Aggregate(s.cfg.Aggregate, sets[0], sets, nil); err != nil {
		return fmt.Errorf("cluster: replica sync (%v): %w", s.cfg.Aggregate, err)
	}
	for _, set := range sets[1:] {
		if err := paramsync.Copy(set, sets[0]); err != nil {
			return fmt.Errorf("cluster: replica fan-out: %w", err)
		}
	}
	d := time.Since(start)
	if s.ins != nil {
		s.ins.syncSeconds.ObserveDuration(d)
		s.ins.divergence.Set(div)
	}
	s.tr.Record("pool.sync", -1, -1,
		fmt.Sprintf("replicas=%d divergence=%.3g", len(s.replicas), div), d)
	s.mu.Lock()
	s.syncs++
	s.lastDiv = div
	s.mu.Unlock()
	return nil
}
