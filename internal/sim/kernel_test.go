package sim

import "testing"

func TestPhaseOrderWithinCycle(t *testing.T) {
	k := New(100_000) // 10 MHz
	var order []string
	k.At(Post, "p", func(uint64) { order = append(order, "post") })
	k.At(Falling, "f", func(uint64) { order = append(order, "fall") })
	k.At(Rising, "r", func(uint64) { order = append(order, "rise") })
	k.Step()
	want := []string{"rise", "fall", "post"}
	if len(order) != len(want) {
		t.Fatalf("got %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("phase order %v, want %v", order, want)
		}
	}
}

func TestRegistrationOrderWithinPhase(t *testing.T) {
	k := New(0)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.At(Rising, "p", func(uint64) { order = append(order, i) })
	}
	k.Step()
	for i, v := range order {
		if v != i {
			t.Fatalf("execution order %v not registration order", order)
		}
	}
}

func TestRunCountsCycles(t *testing.T) {
	k := New(0)
	var calls uint64
	k.At(Rising, "c", func(uint64) { calls++ })
	if n := k.Run(17); n != 17 {
		t.Fatalf("Run returned %d, want 17", n)
	}
	if calls != 17 {
		t.Fatalf("process ran %d times, want 17", calls)
	}
	if k.Cycle() != 17 {
		t.Fatalf("Cycle() = %d, want 17", k.Cycle())
	}
}

func TestCycleArgumentMatchesKernelCycle(t *testing.T) {
	k := New(0)
	k.At(Falling, "chk", func(c uint64) {
		if c != k.Cycle() {
			t.Fatalf("callback cycle %d != kernel cycle %d", c, k.Cycle())
		}
	})
	k.Run(10)
}

func TestTimePS(t *testing.T) {
	k := New(250_000) // 4 MHz -> 250 ns period
	k.Run(8)
	if got := k.TimePS(); got != 8*250_000 {
		t.Fatalf("TimePS = %d, want %d", got, 8*250_000)
	}
}

func TestRunUntil(t *testing.T) {
	k := New(0)
	var hits int
	k.At(Rising, "h", func(uint64) { hits++ })
	n, ok := k.RunUntil(100, func() bool { return hits >= 7 })
	if !ok || n != 7 {
		t.Fatalf("RunUntil = (%d, %v), want (7, true)", n, ok)
	}
	n, ok = k.RunUntil(3, func() bool { return false })
	if ok || n != 3 {
		t.Fatalf("RunUntil exhaust = (%d, %v), want (3, false)", n, ok)
	}
}

func TestRegisterAfterRunPanics(t *testing.T) {
	k := New(0)
	k.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering after Run")
		}
	}()
	k.At(Rising, "late", func(uint64) {})
}

func TestProcsRun(t *testing.T) {
	k := New(0)
	k.At(Rising, "a", func(uint64) {})
	k.At(Falling, "b", func(uint64) {})
	k.Run(10)
	if k.ProcsRun() != 20 {
		t.Fatalf("ProcsRun = %d, want 20", k.ProcsRun())
	}
}

func TestPhaseString(t *testing.T) {
	if Rising.String() != "rising" || Falling.String() != "falling" || Post.String() != "post" {
		t.Fatal("phase names wrong")
	}
	if Phase(9).String() == "" {
		t.Fatal("unknown phase should still stringify")
	}
}
