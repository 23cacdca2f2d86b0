package types

import (
	"testing"
	"testing/quick"
)

func TestLeaderRoundRobin(t *testing.T) {
	// leader(v) = p_{(v mod n)+1} in the paper's 1-based notation, i.e.
	// process (v mod n) with 0-based identifiers.
	n := 4
	for v := View(1); v <= 12; v++ {
		want := ProcessID(uint64(v) % uint64(n))
		if got := (Config{N: n}).Leader(v); got != want {
			t.Fatalf("leader(%s) with n=%d: got %s, want %s", v, n, got, want)
		}
	}
	if got := (Config{}).Leader(5); got != NoProcess {
		t.Fatalf("leader with n=0: got %s, want NoProcess", got)
	}
}

// TestConfigLeaderShift pins the one thing a consensus group changes about
// the protocol: its leader schedule is the paper's map offset by the group
// number. Shift g leads view v with process (v+g) mod n, shift 0 is the
// paper's map, and group g's view-1 leader is process (1+g) mod n — process
// 1 for group 0.
func TestConfigLeaderShift(t *testing.T) {
	for _, n := range []int{4, 9} {
		base := Config{N: n, F: 1, T: 1}
		for g := 0; g < 2*n; g++ {
			cfg := base.WithLeaderShift(uint64(g))
			for v := View(1); v <= View(3*n); v++ {
				want := ProcessID((int(v) + g) % n)
				if got := cfg.Leader(v); got != want {
					t.Fatalf("n=%d shift=%d: leader(%s) = %s, want %s", n, g, v, got, want)
				}
				if g == 0 && cfg.Leader(v) != ProcessID(uint64(v)%uint64(n)) {
					t.Fatalf("n=%d: shift 0 departs from the paper's map (v mod n) at %s", n, v)
				}
			}
			if got, want := cfg.Leader(1), ProcessID((1+g)%n); got != want {
				t.Fatalf("n=%d group %d: view-1 leader %s, want %s", n, g, got, want)
			}
			if cfg.N != base.N || cfg.F != base.F || cfg.T != base.T {
				t.Fatalf("shift changed the resilience parameters: %s", cfg)
			}
		}
		if base.Leader(7) != ProcessID(7%n) {
			t.Fatalf("n=%d: a Config literal must run the paper's schedule", n)
		}
	}
	// Near the top of the view space the sum must not wrap.
	if got := (Config{N: 4, F: 1, T: 1}).WithLeaderShift(3).Leader(View(^uint64(0))); got != ProcessID((^uint64(0)%4+3)%4) {
		t.Fatalf("leader at the maximal view: %s", got)
	}
	if got := (Config{}).WithLeaderShift(3).Leader(1); got != NoProcess {
		t.Fatalf("leader with n=0: got %s, want NoProcess", got)
	}
}

func TestLeaderFairness(t *testing.T) {
	// Every process leads infinitely often: over n consecutive views every
	// process leads exactly once.
	for n := 4; n <= 19; n++ {
		seen := make(map[ProcessID]int, n)
		for v := View(1); v <= View(n); v++ {
			seen[Config{N: n}.Leader(v)]++
		}
		if len(seen) != n {
			t.Fatalf("n=%d: only %d distinct leaders in %d views", n, len(seen), n)
		}
		for p, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: %s led %d times in one round", n, p, c)
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		cfg Config
		ok  bool
	}{
		{Config{N: 4, F: 1, T: 1}, true},
		{Config{N: 3, F: 1, T: 1}, false}, // below 3f+1
		{Config{N: 9, F: 2, T: 2}, true},  // 5f−1
		{Config{N: 8, F: 2, T: 2}, false}, // 5f−2
		{Config{N: 7, F: 2, T: 1}, true},  // 3f+1 with t=1
		{Config{N: 6, F: 2, T: 1}, false},
		{Config{N: 10, F: 2, T: 3}, false}, // t > f
		{Config{N: 10, F: 2, T: 0}, false}, // t < 1
		{Config{N: 10, F: 0, T: 0}, false}, // f < 1
		{Config{N: 12, F: 3, T: 2}, true},  // 3f+2t−1 = 12
		{Config{N: 11, F: 3, T: 2}, false},
	}
	for _, tc := range tests {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.cfg, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error", tc.cfg)
		}
	}
}

func TestMinProcesses(t *testing.T) {
	tests := []struct{ f, t, want int }{
		{1, 1, 4},  // max(4, 4)
		{2, 1, 7},  // max(8−1, 7) = 7
		{2, 2, 9},  // 5f−1
		{3, 1, 10}, // 3f+1 floor binds
		{3, 2, 12},
		{3, 3, 14},
		{5, 5, 24},
	}
	for _, tc := range tests {
		if got := MinProcesses(tc.f, tc.t); got != tc.want {
			t.Errorf("MinProcesses(%d,%d)=%d want %d", tc.f, tc.t, got, tc.want)
		}
	}
}

func TestMinProcessesProperties(t *testing.T) {
	// Properties: n ≥ 3f+1 always; n = 5f−1 when t=f (and f ≥ 1);
	// monotone in both arguments; exactly two below FaB's 3f+2t+1 whenever
	// 3f+2t−1 ≥ 3f+1 (t ≥ 1 makes that always true).
	if err := quick.Check(func(fRaw, tRaw uint8) bool {
		f := int(fRaw%16) + 1
		tt := int(tRaw)%f + 1
		n := MinProcesses(f, tt)
		if n < 3*f+1 {
			return false
		}
		if tt == f && f >= 1 && n != 5*f-1 && 5*f-1 >= 3*f+1 {
			return false
		}
		if MinProcesses(f, tt) > MinProcesses(f+1, tt) || MinProcesses(f, tt) > MinProcesses(f, tt)+2 {
			return false
		}
		fab := 3*f + 2*tt + 1
		return fab-n == 2 || n == 3*f+1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueEqualClone(t *testing.T) {
	a := Value("hello")
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone must equal original")
	}
	b[0] = 'H'
	if a.Equal(b) {
		t.Fatal("clone must be independent")
	}
	if !Value(nil).Equal(Value(nil)) {
		t.Fatal("nil equals nil")
	}
	if Value(nil).Equal(Value("x")) {
		t.Fatal("nil must not equal non-nil")
	}
	if Value(nil).Clone() != nil {
		t.Fatal("nil clone stays nil")
	}
}

func TestValueEqualIsEquivalence(t *testing.T) {
	if err := quick.Check(func(a, b []byte) bool {
		x, y := Value(a), Value(b)
		if !x.Equal(x) {
			return false
		}
		return x.Equal(y) == y.Equal(x)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringers(t *testing.T) {
	if ProcessID(0).String() != "p1" {
		t.Errorf("ProcessID(0) = %s, want p1", ProcessID(0))
	}
	if NoProcess.String() != "p?" {
		t.Errorf("NoProcess = %s", NoProcess)
	}
	if View(3).String() != "v3" {
		t.Errorf("View(3) = %s", View(3))
	}
	if FastPath.String() != "fast" || SlowPath.String() != "slow" || TransferPath.String() != "transfer" {
		t.Error("path stringers")
	}
	if DecidePath(9).String() == "" {
		t.Error("unknown path must still render")
	}
	long := Value("0123456789abcdefghij")
	if long.String() == "" {
		t.Error("long value must render")
	}
	cfg := Config{N: 4, F: 1, T: 1}
	if cfg.String() != "n=4 f=1 t=1" {
		t.Errorf("config renders as %s", cfg)
	}
}

func TestProcessIDValid(t *testing.T) {
	if !ProcessID(0).Valid(1) || ProcessID(1).Valid(1) || NoProcess.Valid(4) {
		t.Fatal("Valid bounds wrong")
	}
}
