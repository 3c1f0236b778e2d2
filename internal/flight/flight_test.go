package flight

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/trace"
)

// testComp is the component the tests' request lanes open on.
var testComp = meter.NewMeter().Component("test")

// done pushes one synthetic completion through the recorder: a request
// that started at start, ran for dur, and had mutate applied to its lane
// mid-flight (nil = untouched).
func done(r *Recorder, start time.Time, dur time.Duration, mutate func(*meter.Lane), err error) {
	l := meter.OpenLane(testComp)
	defer l.Close()
	sc := r.Begin(trace.SpanContext{}.WithLane(l))
	if mutate != nil {
		mutate(l)
	}
	r.Done(sc, "Test", "test.Op", start, dur, err)
}

// TestCompletionTimeSampling is the regression pin for the tail
// sampler's defining property: the retention decision happens at request
// *completion*. A request that looks ordinary in every instrumented
// stage — nothing marks it, no stage stands out while it runs — but
// whose final (app-remainder) stage makes it the slowest request seen
// must still be captured as the top slowest exemplar.
func TestCompletionTimeSampling(t *testing.T) {
	r := New(Config{SlowestK: 4})
	base := time.Now()
	// Enough ordinary requests to fill the slowest-K heap and raise the
	// retention threshold above zero.
	for i := 0; i < 32; i++ {
		done(r, base, time.Millisecond+time.Duration(i)*time.Microsecond, nil, nil)
	}
	// The interesting request: no stage annotations at all; all of its
	// latency materializes as the completion-computed app remainder.
	done(r, base, 50*time.Millisecond, nil, nil)

	ex := r.Exemplars()
	if len(ex.Slowest) == 0 {
		t.Fatal("no slowest exemplars retained")
	}
	top := ex.Slowest[0]
	if top.Dur != int64(50*time.Millisecond) {
		t.Fatalf("slowest exemplar Dur = %v, want 50ms (the late-slow request was not captured at completion)", time.Duration(top.Dur))
	}
	if got := top.DominantStage(); got != meter.StageApp {
		t.Fatalf("dominant stage = %v, want app (all latency was the final-stage remainder)", got)
	}
}

// TestBlownDeadlineCapturedAtCompletion: a request that reached the front
// door in time but finished past its propagated deadline must
// land in the deadline exemplar class — completion is the only place
// this is knowable.
func TestBlownDeadlineCapturedAtCompletion(t *testing.T) {
	r := New(Config{})
	start := time.Now()

	l := meter.OpenLane(testComp)
	sc := r.Begin(trace.SpanContext{}.WithDeadline(start.Add(2 * time.Millisecond)).WithLane(l))
	l.AddStage(meter.StageStorage, l.StageClock()-int64(9*time.Millisecond)) // a 9 ms storage stage
	r.Done(sc, "Test", "test.Op", start, 10*time.Millisecond, nil)
	l.Close()

	// Control: same shape, deadline comfortably met.
	sc = r.Begin(trace.SpanContext{}.WithDeadline(start.Add(time.Second)))
	r.Done(sc, "Test", "test.Op", start, time.Millisecond, nil)

	ex := r.Exemplars()
	if len(ex.Deadline) != 1 {
		t.Fatalf("deadline exemplars = %d, want 1", len(ex.Deadline))
	}
	rec := ex.Deadline[0].Record
	if rec.Flags&meter.FlagDeadline == 0 {
		t.Error("FlagDeadline not set on the blown-deadline record")
	}
	if got := rec.DominantStage(); got != meter.StageStorage {
		t.Errorf("dominant stage = %v, want storage", got)
	}
}

// TestSlowestKRetentionProperty: after a shuffled stream of distinct
// durations, the slowest-K class holds exactly the K largest, ordered
// slowest first.
func TestSlowestKRetentionProperty(t *testing.T) {
	const k, n = 16, 200
	r := New(Config{SlowestK: k})
	rng := rand.New(rand.NewSource(42))
	base := time.Now()
	durs := rng.Perm(n) // 0..n-1, shuffled
	for _, d := range durs {
		done(r, base, time.Duration(d+1)*time.Millisecond, nil, nil)
	}
	ex := r.Exemplars()
	if len(ex.Slowest) != k {
		t.Fatalf("retained %d slowest, want %d", len(ex.Slowest), k)
	}
	for i, e := range ex.Slowest {
		want := int64(time.Duration(n-i) * time.Millisecond)
		if e.Dur != want {
			t.Fatalf("slowest[%d].Dur = %v, want %v", i, time.Duration(e.Dur), time.Duration(want))
		}
	}
}

// TestOutcomeBuffersDropOldest: each bad-outcome class is a bounded FIFO
// keeping the newest entries.
func TestOutcomeBuffersDropOldest(t *testing.T) {
	r := New(Config{OutcomeCap: 4})
	base := time.Now()
	for i := 1; i <= 10; i++ {
		done(r, base, time.Duration(i)*time.Millisecond, func(l *meter.Lane) {
			l.CountDegraded()
		}, nil)
	}
	ex := r.Exemplars()
	if len(ex.Degraded) != 4 {
		t.Fatalf("degraded exemplars = %d, want 4", len(ex.Degraded))
	}
	for i, e := range ex.Degraded {
		want := int64(time.Duration(7+i) * time.Millisecond)
		if e.Dur != want {
			t.Fatalf("degraded[%d].Dur = %v, want %v (oldest must drop first)", i, time.Duration(e.Dur), time.Duration(want))
		}
	}
}

// TestOutcomeSeverity: a request carrying several outcome flags
// classifies by severity (error > deadline > degraded).
func TestOutcomeSeverity(t *testing.T) {
	r := New(Config{})
	base := time.Now()
	done(r, base, time.Millisecond, func(l *meter.Lane) {
		l.CountDegraded()
		l.CountDeadline()
	}, nil)
	done(r, base, time.Millisecond, func(l *meter.Lane) {
		l.CountDeadline()
		l.CountDegraded()
	}, errors.New("boom"))
	ex := r.Exemplars()
	if len(ex.Deadline) != 1 || len(ex.Error) != 1 || len(ex.Degraded) != 0 {
		t.Fatalf("classification: deadline=%d error=%d degraded=%d, want 1/1/0",
			len(ex.Deadline), len(ex.Error), len(ex.Degraded))
	}
}

// TestFastPathZeroAllocs pins the recorder's defining cost contract: a
// completion that is neither slow nor a bad outcome (the overwhelming
// majority of traffic) allocates nothing — pooled lane, value-copy ring
// write, threshold-gated retention skip.
func TestFastPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	r := New(Config{SlowestK: 4, RingSize: 256})
	start := time.Now()
	// Saturate the slowest-K heap with 1s requests so the retention
	// threshold sits far above the benchmarked completions.
	for i := 0; i < 8; i++ {
		done(r, start, time.Second, nil, nil)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		done(r, start, time.Microsecond, nil, nil)
	})
	if allocs != 0 {
		t.Fatalf("unsampled fast path allocates %.1f per op, want 0", allocs)
	}
}

// TestRecorderConcurrent hammers the recorder from many writers while a
// reader snapshots, under -race: the ring's per-slot claim locks and the
// retention path must be clean, and every completion must be counted.
func TestRecorderConcurrent(t *testing.T) {
	const writers, each = 8, 500
	r := New(Config{RingSize: 128, SlowestK: 8, OutcomeCap: 8})
	base := time.Now()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Ring(32)
				r.Exemplars()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < each; i++ {
				dur := time.Duration(rng.Intn(1000)+1) * time.Microsecond
				var mutate func(*meter.Lane)
				if i%17 == 0 {
					mutate = (*meter.Lane).CountDeadline
				}
				done(r, base, dur, mutate, nil)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := r.Total(); got != writers*each {
		t.Fatalf("Total = %d, want %d", got, writers*each)
	}
	if got := len(r.Exemplars().Slowest); got != 8 {
		t.Fatalf("slowest retained = %d, want 8", got)
	}
}
