package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stsl/stsl/internal/cluster"
	"github.com/stsl/stsl/internal/transport"
)

// trainOutcome holds the client-runtime counts of a train-small run.
type trainOutcome struct {
	resends, rejected, refused int
}

// runTrain is train-small's live run: the two end-systems of the
// deployment each train a fixed step budget through cluster.RunClient
// over a loopback connection the benchmark dials. As on the replay
// workloads, the join and a warm-up stay out of the window: it opens
// once every end-system has completed a tenth of its budget and closes
// when both have finished. It closes e.
func runTrain(e *env, seconds int) *live {
	l := &live{train: &trainOutcome{}}
	budget := trainStepsPerSecond * seconds
	base := time.Now()
	var cold atomic.Int32
	cold.Store(int32(len(e.dep.Clients)))
	warm := make(chan struct{})
	onWarm := func() {
		if cold.Add(-1) == 0 {
			close(warm)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	conns := make([]*checkedConn, len(e.dep.Clients))
	counters := make([]*countingConn, len(e.dep.Clients))
	results := make([]*cluster.ClientResult, len(e.dep.Clients))
	errs := make([]error, len(e.dep.Clients))
	for i := range e.dep.Clients {
		nc, err := net.Dial("tcp", e.lis.Addr())
		if err != nil {
			errs[i] = err
			continue
		}
		counters[i] = &countingConn{Conn: nc}
		conns[i] = &checkedConn{Conn: transport.NewTCPConn(counters[i]), base: base,
			warmSteps: budget / 10, onWarm: onWarm}
	}
	var wg sync.WaitGroup
	for i, c := range conns {
		if c == nil {
			continue
		}
		wg.Add(1)
		go func(i int, c *checkedConn) {
			defer wg.Done()
			defer c.Close()
			results[i], errs[i] = cluster.RunClient(ctx, e.dep.Clients[i], c, cluster.ClientConfig{
				Steps:       budget,
				GradTimeout: time.Minute,
				BackoffSeed: seedFor(e.seed, 200+i),
			})
		}(i, c)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	// A client that fails before its warm-up ends leaves the window
	// empty; the failure is reported below.
	select {
	case <-warm:
	case <-finished:
	}
	if e.reg != nil {
		e.reg.Reset()
	}
	rt0 := readRuntime()
	cpu0 := processCPU()
	winStart := time.Since(base)
	<-finished
	winEnd := time.Since(base)
	l.window = winEnd - winStart
	l.cpu = processCPU() - cpu0
	l.rt = readRuntime().sub(rt0)
	if e.reg != nil {
		l.readRegistry(e)
	}

	var bytes int64
	frames := 0
	for i := range e.dep.Clients {
		l.attempted += budget
		if errs[i] != nil {
			l.problems = append(l.problems, fmt.Sprintf("client %d: %v", i, errs[i]))
		}
		done := 0
		if r := results[i]; r != nil {
			done = r.Steps
			l.train.resends += r.Resends
			l.train.rejected += r.Rejected
			l.train.refused += r.Refused
			// Rejected and expired steps are counted where they are
			// answered, in the checked connection below.
			l.failed += r.Refused
		}
		if done != budget {
			l.failed += budget - done
			l.problems = append(l.problems, fmt.Sprintf("client %d finished %d of %d steps", i, done, budget))
		}
		l.totalSteps += done
		if c := conns[i]; c != nil {
			c.mu.Lock()
			l.failed += c.failed
			if c.problem != "" {
				l.problems = append(l.problems, fmt.Sprintf("client %d: %s", i, c.problem))
			}
			for _, st := range c.steps {
				if st.recv >= int64(winStart) {
					l.steps++
					if st.sent >= int64(winStart) {
						l.latencies = append(l.latencies, float64(st.recv-st.sent)/1e6)
					}
				}
			}
			frames += c.frames
			l.sendNanos += float64(c.sendNs)
			l.sendCount += c.sends
			c.mu.Unlock()
			bytes += counters[i].bytes()
		}
	}
	l.samples = float64(l.steps * e.w.scale.BatchSize)
	if l.totalSteps > 0 {
		l.wireBytes = float64(bytes) / float64(l.totalSteps)
		l.frames = float64(frames) / float64(l.totalSteps)
	}
	// The clients have sent their done notes; close waits for the server
	// to see both sessions finish.
	ctxAwait, cancelAwait := context.WithTimeout(context.Background(), 10*time.Second)
	if err := e.srv.AwaitClients(ctxAwait, len(e.dep.Clients)); err != nil {
		l.problems = append(l.problems, fmt.Sprintf("await clients: %v", err))
	}
	cancelAwait()
	l.finish(e)
	return l
}
