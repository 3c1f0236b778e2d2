package workload

import (
	"reflect"
	"testing"
	"time"
)

// TestScheduleDeterminism pins the replayability contract for every
// arrival process: the same config always yields a byte-identical
// timeline, and different seeds yield different ones.
func TestScheduleDeterminism(t *testing.T) {
	for _, proc := range []ArrivalProcess{ArrivalPoisson, ArrivalBursty, ArrivalDiurnal} {
		t.Run(proc.String(), func(t *testing.T) {
			cfg := ArrivalConfig{Process: proc, Rate: 5000, Seed: 42}
			a, err := BuildSchedule(cfg, 2000)
			if err != nil {
				t.Fatal(err)
			}
			b, err := BuildSchedule(cfg, 2000)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.offsets, b.offsets) {
				t.Fatalf("%s: same config produced different timelines", proc)
			}
			cfg.Seed = 43
			c, err := BuildSchedule(cfg, 2000)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(a.offsets, c.offsets) {
				t.Fatalf("%s: different seeds produced identical timelines", proc)
			}
		})
	}
}

// TestScheduleShape sanity-checks each process's timeline: offsets are
// strictly increasing, N arrivals are produced, and the realized mean
// rate lands near the configured mean.
func TestScheduleShape(t *testing.T) {
	const n, rate = 20000, 10000.0
	for _, proc := range []ArrivalProcess{ArrivalPoisson, ArrivalBursty, ArrivalDiurnal} {
		t.Run(proc.String(), func(t *testing.T) {
			s, err := BuildSchedule(ArrivalConfig{Process: proc, Rate: rate, Seed: 7}, n)
			if err != nil {
				t.Fatal(err)
			}
			if s.N() != n {
				t.Fatalf("N = %d, want %d", s.N(), n)
			}
			prev := time.Duration(-1)
			for i := 0; i < s.N(); i++ {
				if s.Offset(i) <= prev {
					t.Fatalf("offset %d (%v) not after %v", i, s.Offset(i), prev)
				}
				prev = s.Offset(i)
			}
			got := float64(s.N()) / s.Span().Seconds()
			if got < rate*0.85 || got > rate*1.15 {
				t.Fatalf("realized rate %.0f qps, configured %.0f", got, rate)
			}
		})
	}
}

// TestScheduleBurstiness pins that the bursty process actually bursts:
// its maximum windowed rate should be several times the Poisson
// process's at the same mean rate.
func TestScheduleBurstiness(t *testing.T) {
	const n, rate = 20000, 10000.0
	peak := func(proc ArrivalProcess) float64 {
		s, err := BuildSchedule(ArrivalConfig{Process: proc, Rate: rate, Seed: 7}, n)
		if err != nil {
			t.Fatal(err)
		}
		const win = 20 * time.Millisecond
		best, lo := 0, 0
		for hi := 0; hi < s.N(); hi++ {
			for s.Offset(hi)-s.Offset(lo) > win {
				lo++
			}
			if hi-lo+1 > best {
				best = hi - lo + 1
			}
		}
		return float64(best) / win.Seconds()
	}
	pois, burst := peak(ArrivalPoisson), peak(ArrivalBursty)
	if burst < 3*pois {
		t.Fatalf("bursty peak windowed rate %.0f qps not >> poisson's %.0f", burst, pois)
	}
}

// TestScheduleValidation exercises the config error paths.
func TestScheduleValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  ArrivalConfig
		n    int
	}{
		{"zero rate", ArrivalConfig{Rate: 0}, 10},
		{"negative rate", ArrivalConfig{Rate: -1}, 10},
		{"zero n", ArrivalConfig{Rate: 100}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := BuildSchedule(c.cfg, c.n); err == nil {
				t.Fatalf("BuildSchedule(%+v, %d) succeeded, want error", c.cfg, c.n)
			}
		})
	}
}

// TestParseArrivalProcess round-trips every process name.
func TestParseArrivalProcess(t *testing.T) {
	for _, proc := range []ArrivalProcess{ArrivalPoisson, ArrivalBursty, ArrivalDiurnal} {
		got, err := ParseArrivalProcess(proc.String())
		if err != nil || got != proc {
			t.Fatalf("ParseArrivalProcess(%q) = %v, %v", proc.String(), got, err)
		}
	}
	if _, err := ParseArrivalProcess("sawtooth"); err == nil {
		t.Fatal("unknown process parsed without error")
	}
}
