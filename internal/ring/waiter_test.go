package ring

import (
	"testing"
	"time"
)

func TestWaiterSpinsThenParks(t *testing.T) {
	w := Waiter{SpinLimit: 4}
	for i := 0; i < 4; i++ {
		if parked := w.Wait(); parked {
			t.Fatalf("wait %d parked inside the spin budget", i)
		}
	}
	if parked := w.Wait(); !parked {
		t.Fatal("wait after exhaustion did not park")
	}
	yields, parks := w.Stats()
	if yields != 4 || parks != 1 {
		t.Fatalf("stats = (%d, %d), want (4, 1)", yields, parks)
	}
}

func TestWaiterZeroSpinLimitParksImmediately(t *testing.T) {
	w := Waiter{}
	if !w.Wait() {
		t.Fatal("first wait must park")
	}
}

func TestWaiterParkBackoffDoublesToCap(t *testing.T) {
	w := Waiter{SpinLimit: 0}
	prev := time.Duration(0)
	for i := 0; i < 20; i++ {
		w.Wait()
		if w.park < prev {
			t.Fatalf("park shrank: %v -> %v", prev, w.park)
		}
		if w.park > maxPark {
			t.Fatalf("park %v exceeds cap %v", w.park, maxPark)
		}
		if prev > 0 && prev < maxPark && w.park != 2*prev && w.park != maxPark {
			t.Fatalf("park did not double: %v -> %v", prev, w.park)
		}
		prev = w.park
	}
	if w.park != maxPark {
		t.Fatalf("park = %v after 20 waits, want cap %v", w.park, maxPark)
	}
}

func TestWaiterResetRearmsBudgetButKeepsStats(t *testing.T) {
	w := Waiter{SpinLimit: 2}
	w.Wait()
	w.Wait()
	w.Wait() // park
	w.Reset()
	if parked := w.Wait(); parked {
		t.Fatal("post-reset wait parked despite fresh budget")
	}
	if w.park != 0 {
		t.Fatalf("reset did not clear park backoff: %v", w.park)
	}
	yields, parks := w.Stats()
	if yields != 3 || parks != 1 {
		t.Fatalf("stats = (%d, %d), want cumulative (3, 1)", yields, parks)
	}
}
