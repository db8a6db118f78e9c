package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rlibm32/internal/server"
)

// fleet-rpc shape: an open loop of 1..fleetMaxValues-value requests due
// on a seeded Poisson schedule, stepping through fixed offered rates.
// The reference step (fleetRefRate) gives the latency metrics and gets
// fleetRefShare of the run; the other steps split the rest and decide
// max_rate_at_slo.
var fleetRates = []float64{1000, 2000, 4000, 8000, 16000}

const (
	fleetRefRate  = 4000
	fleetRefShare = 0.5
	// fleetWindow splits a step for its latency quantiles (see
	// windowQuantile); at the reference rate a window holds ~2000
	// requests, 20 of them beyond its p99.
	fleetWindow    = 500 * time.Millisecond
	fleetMaxValues = 16
	fleetPool      = 4096
	// fleetSLOUs is the p99 latency limit a rate step must meet.
	fleetSLOUs = 2000
	// fleetLagLimitUs is the median schedule lag beyond which the
	// generator itself fell behind and the run is invalid. A tail of
	// late issues is the host's doing and stays in the latencies, which
	// are timed from the due time.
	fleetLagLimitUs = 1000
	// fleetDrain bounds the wait for a step's last responses.
	fleetDrain = 2 * time.Second
)

type fleetState struct {
	fl   *fleet
	reqs []request
	// stall, when set, runs before the k-th issue of every step: tests
	// inject a generator stall with it.
	stall func(k int)
}

// fleetRequests draws the fleet-rpc request pool: representation,
// function and size (1..fleetMaxValues) seeded per request.
func fleetRequests(seed int64) ([]request, error) {
	reprs := representations()
	pickRNG := newRNG(seed, 5)
	sizeRNG := newRNG(seed, 6)
	pick := func(int) (repr, string) {
		r := reprs[pickRNG.Intn(len(reprs))]
		return r, r.funcs[pickRNG.Intn(len(r.funcs))]
	}
	return drawRequests(seed, 7, fleetPool, pick, func() int { return 1 + sizeRNG.Intn(fleetMaxValues) })
}

func buildFleet(seed int64) (*fleetState, func(), error) {
	reqs, err := fleetRequests(seed)
	if err != nil {
		return nil, nil, err
	}
	fl, err := startFleet(2, true, runtime.NumCPU())
	if err != nil {
		return nil, nil, err
	}
	if err := fl.warmUp(reqs); err != nil {
		fl.close()
		return nil, nil, err
	}
	return &fleetState{fl: fl, reqs: reqs}, fl.close, nil
}

// stepResult is one rate step of the open loop.
type stepResult struct {
	rate       float64
	issued     int
	latUs      [][]float64 // per fleetWindow of due time: completion minus due time
	lagUs      []float64   // issue minus due time
	values     int
	failures   []string
	backlogUp  bool
	unanswered int
	start      time.Time // when the schedule began
	lastDone   time.Time // when the last response arrived
}

// meetsSLO reports whether the step's p99 met the limit, with nothing
// refused or lost and no growing backlog. A BUSY response is a failure,
// so it counts as a miss.
func (s *stepResult) meetsSLO() bool {
	p99, n := windowQuantile(s.latUs, 0.99)
	return len(s.failures) == 0 && s.unanswered == 0 && !s.backlogUp &&
		n > 0 && p99 <= fleetSLOUs
}

// openLoopStep issues the step's schedule on time, round-robin over the
// connections, and collects every response. Requests are timed from
// when they were due, so a late issue counts against latency.
func openLoopStep(st *fleetState, rate float64, dur time.Duration, rng *rand.Rand, seqBase int, spans *spanTally) *stepResult {
	// Collect the previous step's garbage before this step allocates,
	// so it neither stacks onto this step's peak memory nor runs in its
	// first windows.
	runtime.GC()
	sched := poissonSchedule(rng, rate, dur.Seconds())
	res := &stepResult{rate: rate, issued: len(sched)}
	due := make([]time.Time, len(sched))
	res.latUs = make([][]float64, int(dur/fleetWindow)+1)
	arena := make([]uint32, len(sched)*fleetMaxValues)
	// Sized to the number of sends, so the client's reader never waits
	// on us, even for a response that arrives after the drain timeout.
	done := make(chan *server.Call, len(sched))
	var outstanding atomic.Int64
	backlog := make([]int64, len(sched))
	issuedAll := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var timeout <-chan time.Time
		for got := 0; got < len(sched); {
			select {
			case call := <-done:
				got++
				now := time.Now()
				res.lastDone = now
				outstanding.Add(-1)
				k := int(call.Tag)
				q := &st.reqs[(seqBase+k)%len(st.reqs)]
				switch {
				case call.Err != nil:
					res.failures = append(res.failures, fmt.Sprintf("%s %s: transport: %v", q.r.name, q.fn, call.Err))
				case call.Status != server.StatusOK:
					res.failures = append(res.failures, fmt.Sprintf("%s %s: status %s", q.r.name, q.fn, server.StatusText(call.Status)))
				default:
					if bad := firstMismatch(call.Dst, q.want); bad >= 0 {
						res.failures = append(res.failures, fmt.Sprintf("%s %s(%#x): wrong bits %#x, want %#x",
							q.r.name, q.fn, q.in[bad], call.Dst[bad], q.want[bad]))
						break
					}
					w := int(time.Duration(sched[k]*1e9) / fleetWindow)
					res.latUs[w] = append(res.latUs[w], float64(now.Sub(due[k]).Nanoseconds())/1e3)
					res.values += len(q.in)
					if spans != nil {
						spans.note(call, now.UnixNano())
					}
				}
			case <-issuedAll:
				issuedAll = nil
				timeout = time.After(fleetDrain)
			case <-timeout:
				res.unanswered = len(sched) - got
				return
			}
		}
	}()

	issueSchedule(st, sched, due, arena, backlog, done, &outstanding, seqBase, spans != nil, res)
	close(issuedAll)
	wg.Wait()
	// A backlog grows when the last quarter of the step holds clearly
	// more requests in flight than the first quarter did.
	if n := len(backlog); n >= 8 {
		first, last := meanInt(backlog[:n/4]), meanInt(backlog[n-n/4:])
		res.backlogUp = last > 2*first+4
	}
	return res
}

// issueSchedule sends sched[k] at start+sched[k]. The runtime's timers
// wake up to a millisecond late, so the generator sleeps in the kernel
// on a thread of its own with a fine timer slack. runFleetRPC adds a
// processor, so the generator finds one free when it wakes and the
// daemons keep one per core.
func issueSchedule(st *fleetState, sched []float64, due []time.Time, arena []uint32, backlog []int64,
	done chan *server.Call, outstanding *atomic.Int64, seqBase int, traced bool, res *stepResult) {
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		// The thread is never unlocked, so it exits with this
		// goroutine and its timer slack goes with it.
		runtime.LockOSThread()
		const prSetTimerSlack = 29
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		start := time.Now()
		res.start = start
		clients := st.fl.clients
		for k, off := range sched {
			due[k] = start.Add(time.Duration(off * 1e9))
			for d := time.Until(due[k]); d > 0; d = time.Until(due[k]) {
				ts := syscall.NsecToTimespec(d.Nanoseconds())
				syscall.Nanosleep(&ts, nil)
			}
			if st.stall != nil {
				st.stall(k)
			}
			res.lagUs = append(res.lagUs, float64(time.Since(due[k]).Nanoseconds())/1e3)
			q := &st.reqs[(seqBase+k)%len(st.reqs)]
			dst := arena[k*fleetMaxValues : k*fleetMaxValues+len(q.in)]
			backlog[k] = outstanding.Add(1)
			c := clients[k%len(clients)]
			if traced {
				c.GoTraced(q.r.code, q.fn, dst, q.in, done, uint64(k), uint64(seqBase+k)+1, 0)
			} else {
				c.GoTagged(q.r.code, q.fn, dst, q.in, done, uint64(k))
			}
		}
	}()
	<-finished
}

// stepSummary is one rate step as the record reports it.
type stepSummary struct {
	Rate      float64 `json:"rate_per_s"`
	Issued    int     `json:"issued"`
	P50Us     float64 `json:"lat_p50_us"`
	P99Us     float64 `json:"lat_p99_us"`
	LagP99Us  float64 `json:"lag_p99_us"`
	BacklogUp bool    `json:"backlog_grew"`
	MeetsSLO  bool    `json:"meets_slo"`
}

func (s *stepResult) summary() stepSummary {
	p50, _ := windowQuantile(s.latUs, 0.5)
	p99, _ := windowQuantile(s.latUs, 0.99)
	return stepSummary{Rate: s.rate, Issued: s.issued, P50Us: p50, P99Us: p99,
		LagP99Us: quantile(s.lagUs, 0.99), BacklogUp: s.backlogUp, MeetsSLO: s.meetsSLO()}
}

func meanInt(xs []int64) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// fleetPhase runs every rate step once within dur and merges the
// results into rep. It returns the reference step's p50 latency.
func fleetPhase(st *fleetState, dur time.Duration, rng *rand.Rand, seqBase *int, spans *spanTally, rep *report) float64 {
	others := time.Duration(float64(dur) * (1 - fleetRefShare) / float64(len(fleetRates)-1))
	var ref *stepResult
	var lag []float64
	maxRate := 0.0
	for _, rate := range fleetRates {
		d := others
		var sp *spanTally
		if rate == fleetRefRate {
			d = time.Duration(float64(dur) * fleetRefShare)
			sp = spans
		}
		s := openLoopStep(st, rate, d, rng, *seqBase, sp)
		*seqBase += s.issued
		rep.attempted += uint64(s.issued)
		for _, f := range s.failures {
			rep.fail("%s", f)
		}
		for i := 0; i < s.unanswered; i++ {
			rep.fail("%.0f req/s step: no response within %v of the last issue", rate, fleetDrain)
		}
		lag = append(lag, s.lagUs...)
		rep.details = append(rep.details, s.summary())
		if s.meetsSLO() && rate > maxRate {
			maxRate = rate
		}
		if rate == fleetRefRate {
			ref = s
		}
	}
	p50, n := windowQuantile(ref.latUs, 0.50)
	p99, _ := windowQuantile(ref.latUs, 0.99)
	rep.set("lat_p50_us", p50, n)
	rep.set("lat_p99_us", p99, n)
	rep.set("values_per_s", float64(ref.values)/ref.lastDone.Sub(ref.start).Seconds(), n)
	rep.set("max_rate_at_slo", maxRate, len(fleetRates))
	rep.set("loadgen.lag_p99_us", quantile(lag, 0.99), len(lag))
	if lagP50 := quantile(lag, 0.5); lagP50 > fleetLagLimitUs {
		rep.invalid = fmt.Sprintf("open-loop generator fell behind: median lag %.0f us > %d us", lagP50, fleetLagLimitUs)
	}
	return p50
}

// runFleetRPC is the fleet-rpc workload: an in-process rlibmproxy in
// front of two in-process rlibmd backends, driven by an open loop.
func runFleetRPC(cfg runConfig, rep *report) error {
	st, err := measureSetup(rep, func() (*fleetState, func(), error) { return buildFleet(cfg.seed) })
	if err != nil {
		return err
	}
	defer st.fl.close()
	// A processor for the open-loop generator (issueSchedule).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	rng := newRNG(cfg.seed, 8)
	seq := 0
	if !cfg.traced {
		fleetPhase(st, cfg.seconds, rng, &seq, nil, rep)
		return nil
	}
	plain := fleetPhase(st, cfg.seconds/2, rng, &seq, nil, rep)
	c0 := st.fl.counters()
	spans := newSpanTally()
	traced := fleetPhase(st, cfg.seconds/2, rng, &seq, spans, rep)
	reportServerLayers(rep, c0, st.fl.counters(), true)
	spans.report(rep)
	// Latency rises when tracing costs, so the overhead is the traced
	// p50's excess over the untraced one.
	rep.set("trace.overhead_frac", (traced-plain)/plain, 2)
	if err := replayProto(st.reqs, 200*time.Millisecond, rep); err != nil {
		return err
	}
	return writeStitched(cfg, spans.spans)
}
