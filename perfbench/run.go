package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"transedge/internal/client"
	"transedge/internal/core"
	"transedge/internal/histcheck"
	"transedge/internal/merkle"
)

// Outcome classes of one attempted operation. Aborts are OCC rejections,
// reported per layer; every class after outAborted is a failure.
const (
	outOK = iota
	outAborted
	outTimeout
	outVerification
	outStale
	outError
	nOutcomes
)

var outcomeNames = [nOutcomes]string{"ok", "aborted", "timeout", "verification", "stale", "error"}

func classify(err error) int {
	switch {
	case err == nil:
		return outOK
	case errors.Is(err, client.ErrAborted):
		return outAborted
	case errors.Is(err, client.ErrTimeout):
		return outTimeout
	case errors.Is(err, client.ErrVerification), errors.Is(err, client.ErrInconsistent):
		return outVerification
	case errors.Is(err, client.ErrStale):
		return outStale
	default:
		return outError
	}
}

// run is one benchmark process: one workload, one seed.
type run struct {
	w      workload
	seed   int64
	window time.Duration
	traced bool
	ks     *keyspace
	notes  []string

	// history and correctness, across every phase of the run
	mu         sync.Mutex
	events     []histcheck.Event
	violations []string
	nViolation int
	ops        [2][nOutcomes]int64 // [read|write][outcome], whole run
	roIDs      int64
	// seqs is the last sequence each key's designated writer submitted.
	seqs []map[string]int64
}

const (
	classRO = 0
	classRW = 1
)

// phase collects one measurement interval's samples.
type phase struct {
	mu       sync.Mutex
	start    time.Time
	readLat  []sample  // successful reads, from and at their scheduled arrival
	late     []float64 // ms the generator issued behind schedule
	rwLat    []sample  // Begin to Commit, committed transactions
	out      [2][nOutcomes]int64
	round2   int64
	issued   int           // open-loop reads issued
	inWindow int           // reads completed successfully before the issue window closed
	elapsed  time.Duration // writer wall time
	// minCommits keeps closed-loop writers running past the window until
	// this many transactions have committed.
	minCommits int64
}

// writersDone reports whether closed-loop writers should stop at now.
func (ph *phase) writersDone(now, end time.Time, grace time.Duration) bool {
	if now.Before(end) {
		return false
	}
	ph.mu.Lock()
	short := int64(len(ph.rwLat)) < ph.minCommits
	ph.mu.Unlock()
	return !short || !now.Before(end.Add(grace))
}

func (r *run) violate(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nViolation++
	if len(r.violations) < 5 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

func (r *run) record(e histcheck.Event, class, oc int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops[class][oc]++
	if e.TxnID != "" {
		r.events = append(r.events, e)
	}
}

// observe decodes a value read for key, flagging any payload that does
// not name the key it was read under.
func (r *run) observe(key string, v []byte) histcheck.ReadOb {
	if v == nil {
		r.violate("key %s read as absent; every key is loaded at genesis", key)
		return histcheck.ReadOb{Key: key}
	}
	k, seq, err := decodeValue(v)
	if err != nil || k != key {
		r.violate("key %s returned a foreign or corrupt value (key %q, err %v)", key, k, err)
	}
	return histcheck.ReadOb{Key: key, Seq: seq}
}

func (r *run) newClient(sys *core.System, id uint32, measureProofs bool) *client.Client {
	return client.New(client.Config{
		ID: id, Net: sys.Net, Ring: sys.Ring, Part: sys.Part, Clusters: clusters,
		Timeout: 10 * time.Second, Seed: r.seed, MeasureProofBytes: measureProofs,
	})
}

// deploy builds and starts a fresh system and returns once a verified read
// has succeeded in every cluster: the set-up time users wait for.
func (r *run) deploy(data map[string][]byte, i int) (*core.System, string, time.Duration, error) {
	dir := ""
	if r.w.durable {
		abs, err := filepath.Abs(filepath.Join(outDir, fmt.Sprintf("data-%d-%d", os.Getpid(), i)))
		if err != nil {
			return nil, "", 0, err
		}
		dir = abs
		if err := os.RemoveAll(dir); err != nil {
			return nil, "", 0, err
		}
	}
	start := time.Now()
	sys := core.NewSystem(core.SystemConfig{
		Clusters: clusters, F: faults, Seed: uint64(r.seed),
		IntraLatency: intraDelay, InterLatency: interDelay,
		DataDir: dir, InitialData: data,
	})
	sys.Start()
	probe := r.newClient(sys, 1, false)
	var keys []string
	for _, idx := range r.ks.byCluster {
		keys = append(keys, r.ks.keys[idx[0]])
	}
	for {
		res, err := probe.ReadOnly(keys)
		if err == nil && len(res.Batches) == clusters {
			return sys, dir, time.Since(start), nil
		}
		if time.Since(start) > 60*time.Second {
			sys.Stop()
			return nil, "", 0, fmt.Errorf("set-up: no verified read in every cluster after 60s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *run) execute() (*result, error) {
	r.ks = newKeyspace(r.w.keys, clusters, r.seed)
	r.seqs = make([]map[string]int64, r.w.writers)
	for i := range r.seqs {
		r.seqs[i] = map[string]int64{}
	}
	data := r.ks.initialData()
	n := setupRuns
	if r.traced {
		n = 1
	}
	var (
		setups []float64
		sys    *core.System
		dir    string
	)
	for i := 0; i < n; i++ {
		if sys != nil {
			sys.Stop()
			os.RemoveAll(dir)
		}
		s, d, took, err := r.deploy(data, i)
		if err != nil {
			return nil, err
		}
		sys, dir = s, d
		setups = append(setups, took.Seconds())
		runtime.GC()
	}
	data = nil
	defer os.RemoveAll(dir)
	if r.traced {
		return r.tracedRun(sys)
	}
	return r.timingRun(sys, setups)
}

// drive runs the workload's load for dur: the open-loop reader and the
// closed-loop writers side by side.
//
// When minCommits is positive the writers keep going past dur until that
// many transactions have committed (at most dur longer), so the
// reported p99 is supported on a slower machine too.
func (r *run) drive(rd *client.Session, wrs []*client.Client, rate float64, dur time.Duration, minCommits int64, tr *tracer, salt int) *phase {
	ph := &phase{minCommits: minCommits, start: time.Now()}
	var wg sync.WaitGroup
	if rd != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.readLoop(rd, newStream(r.ks, r.seed, 100+salt, r.w.zipfS), rate, dur, ph, tr)
		}()
	}
	for i, c := range wrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.writeLoop(c, i, newStream(r.ks, r.seed, 200+10*salt+i, r.w.zipfS), dur, ph, tr)
		}()
	}
	wg.Wait()
	return ph
}

// readLoop issues verified session reads on a Poisson schedule at rate,
// whether or not earlier reads have completed. Latency is clocked from
// each read's scheduled arrival, so a stall also delays the reads queued
// behind it. At most rate*dur reads are issued, which bounds the
// goroutines.
func (r *run) readLoop(sess *client.Session, st *stream, rate float64, dur time.Duration, ph *phase, tr *tracer) {
	start := time.Now()
	end := start.Add(dur)
	next := start
	var wg sync.WaitGroup
	for {
		next = next.Add(st.gap(rate))
		if !next.Before(end) {
			break
		}
		keys := st.nextRead(r.w.perCluster)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(next)
		ph.mu.Lock()
		ph.issued++
		ph.late = append(ph.late, ms(late))
		ph.mu.Unlock()
		wg.Add(1)
		go func(arrival time.Time) {
			defer wg.Done()
			r.doRead(sess, keys, arrival, end, ph, tr)
		}(next)
	}
	wg.Wait()
}

func (r *run) doRead(sess *client.Session, keys []string, arrival, windowEnd time.Time, ph *phase, tr *tracer) {
	t0 := time.Now()
	res, err := sess.ReadOnly(keys)
	t1 := time.Now()
	oc := classify(err)
	rounds, parts := 0, 0
	if err == nil {
		rounds, parts = res.Rounds, len(res.Batches)
	}
	if tr != nil {
		root := tr.newID()
		tr.add(span{ID: tr.newID(), Parent: root, Op: root, Name: "client.Session.ReadOnly",
			Rounds: rounds, Parts: parts, Outcome: outcomeNames[oc]}, t0, t1)
		tr.add(span{ID: root, Op: root, Name: "op.ro", Rounds: rounds, Parts: parts, Outcome: outcomeNames[oc]}, arrival, t1)
	}
	var ev histcheck.Event
	if err == nil {
		reads := make([]histcheck.ReadOb, 0, len(keys))
		for _, k := range keys {
			v, ok := res.Values[k]
			if !ok {
				r.violate("verified read result lacks requested key %s", k)
				continue
			}
			reads = append(reads, r.observe(k, v))
		}
		r.mu.Lock()
		r.roIDs++
		ev = histcheck.Event{TxnID: fmt.Sprintf("ro-%d", r.roIDs), ReadOnly: true, Reads: reads}
		r.mu.Unlock()
	}
	r.record(ev, classRO, oc)
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.out[classRO][oc]++
	if err != nil {
		return
	}
	ph.readLat = append(ph.readLat, sample{at: arrival.Sub(ph.start), ms: ms(t1.Sub(arrival))})
	if t1.Before(windowEnd) {
		ph.inWindow++
	}
	if res.Rounds > 1 {
		ph.round2++
	}
}

// writeLoop runs closed-loop read-write transactions for dur. Writer w
// is the only writer of the keys it owns, and writes each key's versions
// in sequence, so every value read names its exact writer.
func (r *run) writeLoop(c *client.Client, w int, st *stream, dur time.Duration, ph *phase, tr *tracer) {
	writers := r.w.writers
	owned := func(i int) bool { return i%writers == w }
	seqs := r.seqs[w]
	start := time.Now()
	end := start.Add(dur)
	for !ph.writersDone(time.Now(), end, dur) {
		spec := st.nextRW(owned)
		parts := 1
		if !spec.local {
			parts = clusters
		}
		root := tr.newID()
		t0 := time.Now()
		txn := c.Begin()
		var (
			err    error
			reads  []histcheck.ReadOb
			writes []histcheck.WriteOb
		)
		for _, k := range spec.reads {
			rs := time.Now()
			v, e := txn.Read(k)
			tr.add(span{ID: tr.newID(), Parent: root, Op: root, Name: "client.Txn.Read", Parts: 1,
				Outcome: outcomeNames[classify(e)]}, rs, time.Now())
			if e != nil {
				err = e
				break
			}
			reads = append(reads, r.observe(k, v))
		}
		submitted := false
		if err == nil {
			for _, k := range spec.writes {
				s := seqs[k] + 1
				txn.Write(k, encodeValue(k, s))
				writes = append(writes, histcheck.WriteOb{Key: k, Seq: s})
			}
			cs := time.Now()
			err = txn.Commit()
			submitted = true
			tr.add(span{ID: tr.newID(), Parent: root, Op: root, Name: "client.Txn.Commit", Parts: parts,
				Outcome: outcomeNames[classify(err)]}, cs, time.Now())
		}
		t1 := time.Now()
		oc := classify(err)
		tr.add(span{ID: root, Op: root, Name: "op.rw", Parts: parts, Outcome: outcomeNames[oc]}, t0, t1)
		id := fmt.Sprintf("w%d-%d", w, txn.ID())
		var ev histcheck.Event
		switch {
		case oc == outOK:
			ev = histcheck.Event{TxnID: id, Reads: reads, Writes: writes}
		case oc != outAborted && submitted:
			// The outcome is unknown: keep the versions as possibly
			// installed (writes only), so a later read of one still has
			// its writer, and never reuse their sequence numbers.
			ev = histcheck.Event{TxnID: id, Writes: writes}
		}
		if ev.TxnID != "" {
			for _, wr := range writes {
				seqs[wr.Key] = wr.Seq
			}
		}
		r.record(ev, classRW, oc)
		if r.w.think > 0 {
			time.Sleep(r.w.think)
		}
		ph.mu.Lock()
		ph.out[classRW][oc]++
		if oc == outOK {
			ph.rwLat = append(ph.rwLat, sample{at: t1.Sub(ph.start), ms: ms(t1.Sub(t0))})
		}
		ph.mu.Unlock()
	}
	ph.mu.Lock()
	if el := time.Since(start); el > ph.elapsed {
		ph.elapsed = el
	}
	ph.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// clientsFor creates the workload's load sources: one session for the
// open-loop reader, one client per writer.
func (r *run) clientsFor(sys *core.System, measureProofs bool) (*client.Session, []*client.Client, []*client.Client) {
	var all []*client.Client
	var sess *client.Session
	if r.w.readRate > 0 {
		c := r.newClient(sys, 10, measureProofs)
		all = append(all, c)
		sess = c.NewSession()
	}
	var wrs []*client.Client
	for i := 0; i < r.w.writers; i++ {
		c := r.newClient(sys, uint32(20+i), measureProofs)
		all = append(all, c)
		wrs = append(wrs, c)
	}
	return sess, wrs, all
}

// subWindows is how many equal sub-windows a measured phase is split
// into: latency percentiles and throughput are the median over them.
const subWindows = 5

// headline returns the phase's user-facing latency samples (verified
// reads when the workload has an open-loop reader, committed transactions
// otherwise) and the phase's span.
func (r *run) headline(ph *phase, dur time.Duration) ([]sample, time.Duration) {
	if r.w.readRate > 0 {
		return ph.readLat, dur
	}
	return ph.rwLat, max(dur, ph.elapsed)
}

// throughput is committed transactions per second when the workload has
// writers, otherwise verified reads completed per second.
func (r *run) throughput(ph *phase, dur time.Duration) float64 {
	if r.w.writers > 0 {
		return windowedRate(ph.rwLat, max(dur, ph.elapsed), subWindows)
	}
	return float64(ph.inWindow) / dur.Seconds()
}

func (r *run) timingRun(sys *core.System, setups []float64) (*result, error) {
	sess, wrs, _ := r.clientsFor(sys, false)
	res := &result{Metrics: map[string]metric{}}
	res.Metrics["setup_s"] = metric{Value: median(setups), Unit: "s", n: len(setups)}

	fixed := r.window
	if r.w.ladder {
		fixed = r.window / 2
	}
	r.drive(sess, wrs, r.w.readRate, warmup, 0, nil, 0)
	// Closed-loop writers carry the headline latency only when there is
	// no reader; then they must reach a supported p99.
	var minCommits int64
	if r.w.readRate == 0 {
		minCommits = 100 * minTail
	}
	ph := r.drive(sess, wrs, r.w.readRate, fixed, minCommits, nil, 1)
	lat, span := r.headline(ph, fixed)
	all := sortedValues(lat)
	// Open-loop reads give every sub-window thousands of samples, so
	// their percentiles are medians over sub-windows, which one burst of
	// outside noise cannot move. The closed-loop writers' percentiles
	// need the whole window: their latency is bimodal (single-partition
	// against 2PC), and a sub-window's median would follow its mix.
	p50, ok50 := percentile(all, 50)
	p99, ok99 := percentile(all, 99)
	if r.w.readRate > 0 {
		p50, ok50 = windowedPercentile(lat, span, subWindows, 50)
		p99, ok99 = windowedPercentile(lat, span, subWindows, 99)
	}
	if !ok50 || !ok99 {
		// Reported anyway, so a slow machine yields a flagged result
		// rather than none.
		r.notes = append(r.notes, fmt.Sprintf("WARNING: %d latency samples do not support the reported p99", len(lat)))
	}
	r.notes = append(r.notes, "sub-window p50/p99 ms: "+subWindowSummary(lat, span))
	if r.w.writers > 0 {
		r.notes = append(r.notes, "sub-window commit p50/p99 ms: "+subWindowSummary(ph.rwLat, max(fixed, ph.elapsed)))
	}
	res.Metrics["p50_ms"] = metric{Value: p50, Unit: "ms", n: len(lat)}
	res.Metrics["p99_ms"] = metric{Value: p99, Unit: "ms", n: len(lat)}
	if p := highestSupported(len(all)); p > 99 {
		v, _ := percentile(all, p)
		r.notes = append(r.notes, fmt.Sprintf("whole-window p%g = %.4f ms (n=%d)", p, v, len(all)))
	}
	tput, tputN := r.throughput(ph, fixed), len(ph.rwLat)
	if r.w.ladder {
		fs := r.step(ph, r.w.readRate, fixed)
		if !meetsLimit(fs, latencyLimit) {
			r.notes = append(r.notes, "the fixed rate itself misses the latency limit")
		}
		tput, tputN = r.searchRate(sess, r.window-fixed, fs)
	}
	res.Metrics["throughput"] = metric{Value: tput, Unit: "1/s", n: tputN}
	var heap []float64
	for i := 0; i < heapReadings; i++ {
		if i > 0 {
			time.Sleep(250 * time.Millisecond)
		}
		heap = append(heap, liveHeapMB())
	}
	res.Metrics["heap_mb"] = metric{Value: median(heap), Unit: "MB", n: heapReadings}
	if len(ph.late) > 0 {
		sort.Float64s(ph.late)
		v, _ := percentile(ph.late, 99)
		r.notes = append(r.notes, fmt.Sprintf("generator late p99 = %.4f ms (n=%d)", v, len(ph.late)))
	}
	sys.Stop()
	r.finish(res)
	return res, nil
}

// subWindowSummary lists each sub-window's sample count, p50 and p99, to
// show how steady a run was.
func subWindowSummary(s []sample, span time.Duration) string {
	var parts []string
	for _, b := range split(s, span, subWindows) {
		p50, _ := percentile(b, 50)
		p99, _ := percentile(b, 99)
		parts = append(parts, fmt.Sprintf("n=%d %.2f/%.2f", len(b), p50, p99))
	}
	return strings.Join(parts, ", ")
}

// heapReadings is how many post-collection heap readings heap_mb is the
// median of: the system keeps checkpointing after the load stops, and a
// collection that lands on a checkpoint in flight reads high.
const heapReadings = 3

// step summarizes an open-loop phase of length dur for the latency
// limit. Its p99 is the median over up to stepWindows sub-windows, so one
// GC cycle landing in a step does not decide it; a slow step gets fewer,
// so each still holds enough reads for a p99.
func (r *run) step(ph *phase, rate float64, dur time.Duration) stepResult {
	k := min(stepWindows, max(1, len(ph.readLat)/(110*minTail)))
	p99, ok := windowedPercentile(ph.readLat, dur, k, 99)
	failed := 0
	for oc := outTimeout; oc < nOutcomes; oc++ {
		failed += int(ph.out[classRO][oc])
	}
	return stepResult{rate: rate, issued: ph.issued, completed: ph.inWindow, failed: failed, p99ms: p99, p99ok: ok}
}

// Rate ladder: coarse steps of ladderStep above the fixed rate, then
// bisection steps between the last pass and the first failure, which
// resolve the rate to ladderStep/2^ladderRefine.
const (
	ladderStep   = 1000.0
	ladderRefine = 3
	stepSeconds  = 3
	stepWindows  = 3
)

// searchRate runs the rate ladder within budget. It returns the rate at
// which the p99 crosses the limit, interpolated between the highest step
// that met the limit and the lowest step above it that did not (fixed is
// the fixed phase, the pass point when no ladder step passes), and the
// number of steps run.
func (r *run) searchRate(sess *client.Session, budget time.Duration, fixed stepResult) (float64, int) {
	stepDur := time.Duration(stepSeconds * float64(time.Second))
	maxSteps := max(int(budget/stepDur), 1)
	salt := 10
	var log []string
	steps := map[float64]stepResult{}
	floor := 0.0
	if meetsLimit(fixed, latencyLimit) {
		floor = fixed.rate
	}
	best, tried := ladder(floor, ladderStep, maxSteps, ladderRefine, func(rate float64) bool {
		salt++
		ph := r.drive(sess, nil, rate, stepDur, 0, nil, salt)
		s := r.step(ph, rate, stepDur)
		steps[rate] = s
		pass := meetsLimit(s, latencyLimit)
		log = append(log, fmt.Sprintf("%.0f/s: p99 %.2f ms, backlog %d, failed %d, pass %v",
			rate, s.p99ms, s.issued-s.completed, s.failed, pass))
		return pass
	})
	r.notes = append(r.notes, "ladder: "+strings.Join(log, "; "))
	pass, ok := steps[best]
	if !ok {
		if floor == 0 {
			return 0, len(tried)
		}
		pass = fixed
	}
	var fail *stepResult
	for rate, s := range steps {
		if rate > pass.rate && (fail == nil || rate < fail.rate) {
			fail = &s
		}
	}
	if fail == nil {
		return pass.rate, len(tried)
	}
	return crossing(pass, *fail, latencyLimit), len(tried)
}

// finish checks the recorded history and fills the outcome accounting.
func (r *run) finish(res *result) {
	res.Correct = true
	if err := histcheck.CheckSerializable(r.events); err != nil {
		res.Correct = false
		r.notes = append(r.notes, "history check failed: "+err.Error())
	}
	if r.nViolation > 0 {
		res.Correct = false
		r.notes = append(r.notes, fmt.Sprintf("%d value check failures, first: %s", r.nViolation, strings.Join(r.violations, " | ")))
	}
	for class := range r.ops {
		for oc, n := range r.ops[class] {
			res.Attempted += n
			if oc >= outTimeout {
				res.Failed += n
			}
		}
	}
	r.notes = append(r.notes, fmt.Sprintf("outcomes: reads %s; writes %s; %d events checked",
		fmtOutcomes(r.ops[classRO]), fmtOutcomes(r.ops[classRW]), len(r.events)))
	if res.Attempted > 0 {
		r.notes = append(r.notes, fmt.Sprintf("failed_pct = %.4f %% (n=%d)", 100*float64(res.Failed)/float64(res.Attempted), res.Attempted))
	}
}

func fmtOutcomes(c [nOutcomes]int64) string {
	var parts []string
	for oc, n := range c {
		parts = append(parts, fmt.Sprintf("%s=%d", outcomeNames[oc], n))
	}
	return strings.Join(parts, " ")
}

// liveHeapMB reports the live heap after a collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// counters is a snapshot of the program's exported counters that may be
// read while it runs.
type counters struct {
	sent, dropped, hashOps, certs, proofReqs, proofBytes, syncs int64
	gcPauses                                                    *metrics.Float64Histogram
	allocBytes                                                  uint64
}

var runtimeSamples = []string{"/sched/pauses/total/gc:seconds", "/gc/heap/allocs:bytes"}

func snapshot(sys *core.System, cls []*client.Client) counters {
	c := counters{
		sent:    sys.Net.Stats.Sent.Load(),
		dropped: sys.Net.Stats.Dropped.Load(),
		hashOps: int64(merkle.HashOps()),
	}
	for _, cl := range cls {
		c.certs += cl.CertVerifications()
		reqs, b := cl.ProofStats()
		c.proofReqs += reqs
		c.proofBytes += b
	}
	for cl := 0; cl < clusters; cl++ {
		for rep := 0; rep < 3*faults+1; rep++ {
			if n := sys.Node(core.NodeID{Cluster: int32(cl), Replica: int32(rep)}); n != nil {
				if l := n.WAL(); l != nil {
					c.syncs += l.SyncCount()
				}
			}
		}
	}
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		c.gcPauses = s[0].Value.Float64Histogram()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		c.allocBytes = s[1].Value.Uint64()
	}
	return c
}

// histP99 is the p99 of the observations added to a runtime histogram
// between two reads, as the upper edge of the bucket holding it.
func histP99(before, after *metrics.Float64Histogram) float64 {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0
	}
	var total uint64
	for i := range after.Counts {
		total += after.Counts[i] - before.Counts[i]
	}
	if total == 0 {
		return 0
	}
	need := (total*99 + 99) / 100
	var cum uint64
	for i := range after.Counts {
		cum += after.Counts[i] - before.Counts[i]
		if cum >= need {
			edge := after.Buckets[i+1]
			if edge > 1e9 { // the last bucket is open-ended
				edge = after.Buckets[i]
			}
			return edge
		}
	}
	return 0
}

func (r *run) tracedRun(sys *core.System) (*result, error) {
	sess, wrs, all := r.clientsFor(sys, true)
	half := r.window / 2
	r.drive(sess, wrs, r.w.readRate, warmup, 0, nil, 0)
	base := r.drive(sess, wrs, r.w.readRate, half, 0, nil, 1)
	baseLat, _ := r.headline(base, half)
	baseTput := r.throughput(base, half)

	tr := newTracer()
	before := snapshot(sys, all)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		sys.Stop()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	profStart := time.Now()
	ph := r.drive(sess, wrs, r.w.readRate, half, 0, tr, 2)
	pprof.StopCPUProfile()
	profWall := time.Since(profStart)
	after := snapshot(sys, all)
	lat, _ := r.headline(ph, half)
	tput := r.throughput(ph, half)
	sys.Stop()

	m := map[string]metric{}
	put := func(name, unit string, v float64, n int) { m[name] = metric{Value: v, Unit: unit, n: n} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	p50 := func(xs []float64) (float64, int) {
		sort.Float64s(xs)
		v, _ := percentile(xs, 50)
		return v, len(xs)
	}

	reads := float64(ph.out[classRO][outOK])
	rwAttempts := 0.0
	for _, n := range ph.out[classRW] {
		rwAttempts += float64(n)
	}
	ops := reads + rwAttempts

	// client layer
	put("client.ro_round2_pct", "%", 100*ratio(float64(ph.round2), reads), int(reads))
	put("client.cert_verifies_per_ro", "count", ratio(float64(after.certs-before.certs), reads), int(reads))
	put("client.proof_bytes_per_ro", "B", ratio(float64(after.proofBytes-before.proofBytes), float64(after.proofReqs-before.proofReqs)), int(after.proofReqs-before.proofReqs))
	v, n := p50(tr.durations("client.Txn.Read", func(s *span) bool { return s.Outcome == "ok" }))
	put("client.read_p50_ms", "ms", v, n)
	v, n = p50(tr.durations("client.Txn.Commit", func(s *span) bool { return s.Outcome == "ok" && s.Parts == 1 }))
	put("client.commit_local_p50_ms", "ms", v, n)
	v, n = p50(tr.durations("client.Txn.Commit", func(s *span) bool { return s.Outcome == "ok" && s.Parts > 1 }))
	put("client.commit_dist_p50_ms", "ms", v, n)
	put("client.rw_abort_pct", "%", 100*ratio(float64(ph.out[classRW][outAborted]), rwAttempts), int(rwAttempts))
	var failed, attempted float64
	for class := range ph.out {
		for oc, n := range ph.out[class] {
			attempted += float64(n)
			if oc >= outTimeout {
				failed += float64(n)
			}
		}
	}
	put("client.failed_pct", "%", 100*ratio(failed, attempted), int(attempted))

	// core layer: event-loop counters, read after Stop over the system's
	// whole life (both halves of the run).
	nm := func(f func(*core.Metrics) int64) float64 { return float64(sys.NodeMetrics(f)) }
	batches := nm(func(x *core.Metrics) int64 { return x.BatchesCommitted })
	leaderBatches := batches / float64(3*faults+1)
	local := nm(func(x *core.Metrics) int64 { return x.LocalCommitted })
	distC := nm(func(x *core.Metrics) int64 { return x.DistCommitted })
	distA := nm(func(x *core.Metrics) int64 { return x.DistAborted })
	lifeRW, lifeRO := 0.0, 0.0
	for oc := 0; oc < nOutcomes; oc++ {
		lifeRW += float64(r.ops[classRW][oc])
		lifeRO += float64(r.ops[classRO][oc])
	}
	put("core.txns_per_batch", "count", ratio(local+distC+distA, batches), int(leaderBatches))
	put("core.pipeline_stalls_per_batch", "count", ratio(nm(func(x *core.Metrics) int64 { return x.PipelineStalls }), leaderBatches), int(leaderBatches))
	put("core.admission_abort_pct", "%", 100*ratio(nm(func(x *core.Metrics) int64 { return x.AdmissionAborts }), lifeRW), int(lifeRW))
	put("core.dist_abort_pct", "%", 100*ratio(distA, distA+distC), int(distA+distC))
	// +1: the set-up's probe read.
	put("core.ro_served_per_ro", "count", ratio(nm(func(x *core.Metrics) int64 { return x.ROServed }), lifeRO+1), int(lifeRO+1))
	put("core.ro_park_expired", "count", nm(func(x *core.Metrics) int64 { return x.ROParkedExpired }), 0)

	// transport, merkle, wal
	put("transport.msgs_per_op", "count", ratio(float64(after.sent-before.sent), ops), int(ops))
	put("transport.dropped", "count", float64(after.dropped-before.dropped), 0)
	put("merkle.hash_ops_per_op", "count", ratio(float64(after.hashOps-before.hashOps), ops), int(ops))
	put("wal.fsyncs_per_batch", "count", ratio(float64(after.syncs), nm(func(x *core.Metrics) int64 { return x.WALAppended })), 0)

	// cpu, from the profile of the traced half
	samples, err := readCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, r.w.name+".cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	sh := attribute(samples)
	put("cpu.busy_cores", "cores", ratio(float64(sh.totalNanos), float64(profWall)), len(samples))
	for _, l := range cpuLayers {
		put("cpu."+l+"_pct", "%", sh.layer[l], len(samples))
	}
	put("cpu.ed25519_verify_pct", "%", sh.verifyAll, len(samples))
	for _, l := range []string{"bft", "core", "client"} {
		put("cpu.ed25519_verify."+l+"_pct", "%", sh.verify[l], len(samples))
	}
	put("cpu.sha256_pct", "%", sh.sha256, len(samples))

	// runtime
	put("runtime.gc_pause_p99_ms", "ms", 1000*histP99(before.gcPauses, after.gcPauses), 0)
	put("runtime.alloc_bytes_per_op", "B", ratio(float64(after.allocBytes-before.allocBytes), ops), int(ops))

	// generator
	sort.Float64s(ph.late)
	late, _ := percentile(ph.late, 99)
	put("gen.late_p99_ms", "ms", late, len(ph.late))

	// tracing overhead: traced half against the untraced half
	bs, ts := sortedValues(baseLat), sortedValues(lat)
	b50, _ := percentile(bs, 50)
	t50, _ := percentile(ts, 50)
	b99, _ := percentile(bs, 99)
	t99, _ := percentile(ts, 99)
	put("trace.overhead_p50_pct", "%", 100*ratio(t50-b50, b50), len(lat))
	put("trace.overhead_p99_pct", "%", 100*ratio(t99-b99, b99), len(lat))
	put("trace.overhead_throughput_pct", "%", 100*ratio(tput-baseTput, baseTput), 0)
	if err := tr.write(filepath.Join(outDir, r.w.name+".spans.jsonl")); err != nil {
		return nil, err
	}
	r.notes = append(r.notes, fmt.Sprintf("%d spans written", len(tr.spans)))
	r.notes = append(r.notes, fmt.Sprintf("untraced half: p50 %.4f ms, p99 %.4f ms, throughput %.2f/s; traced half: p50 %.4f ms, p99 %.4f ms, throughput %.2f/s",
		b50, b99, baseTput, t50, t99, tput))

	res := &result{Metrics: m}
	r.finish(res)
	return res, nil
}

// commitID names the code under test by a digest of the Go sources under
// the working directory: the benchmark runs from checkouts that need not
// be git repositories.
func commitID() string {
	h := sha256.New()
	n := 0
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				h.Write([]byte(path))
				h.Write(b)
				n++
			}
		}
		return nil
	})
	return fmt.Sprintf("src-sha256:%x (%d files)", h.Sum(nil)[:8], n)
}

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b []byte
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}
