package resilience

import (
	"context"
	"errors"
	"testing"
)

func TestAdmissionFastPath(t *testing.T) {
	a := NewAdmission(10)
	if err := a.Acquire(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire(context.Background(), 6); err != nil {
		t.Fatal(err)
	}
	if got := a.InFlight(); got != 10 {
		t.Fatalf("InFlight = %d, want 10", got)
	}
	a.Release(4)
	a.Release(6)
	if got := a.InFlight(); got != 0 {
		t.Fatalf("InFlight after release = %d, want 0", got)
	}
	if got := a.Admitted(); got != 2 {
		t.Fatalf("Admitted = %d, want 2", got)
	}
}

func TestAdmissionShedsWhenQueueFull(t *testing.T) {
	a := NewAdmission(1)
	if err := a.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	err := a.Acquire(context.Background(), 1)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second Acquire = %v, want ErrOverloaded", err)
	}
	if got := a.Shed(); got != 1 {
		t.Fatalf("Shed = %d, want 1", got)
	}
	a.Release(1)
	if err := a.Acquire(context.Background(), 1); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestAdmissionCostClamped(t *testing.T) {
	a := NewAdmission(8)
	// A request dearer than the whole capacity still runs (alone).
	if err := a.Acquire(context.Background(), 1000); err != nil {
		t.Fatal(err)
	}
	if got := a.InFlight(); got != 8 {
		t.Fatalf("InFlight = %d, want clamped 8", got)
	}
	a.Release(1000)
	if got := a.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d, want 0", got)
	}
	// Non-positive cost counts as 1.
	if err := a.Acquire(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if got := a.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1", got)
	}
}

// TestAdmissionBatchAdmitsPrefix — AcquireBatch admits the longest
// prefix that fits and sheds the tail; when not even the head fits it
// sheds the whole job at once instead of waiting.
func TestAdmissionBatchAdmitsPrefix(t *testing.T) {
	a := NewAdmission(10)
	n, total, err := a.AcquireBatch(context.Background(), []int64{4, 5, 3, 1})
	if err != nil || n != 2 || total != 9 {
		t.Fatalf("AcquireBatch = %d, %d, %v; want 2, 9, nil", n, total, err)
	}
	if got := a.Shed(); got != 2 {
		t.Fatalf("Shed = %d, want 2 (the tail)", got)
	}
	n, total, err = a.AcquireBatch(context.Background(), []int64{2, 1})
	if !errors.Is(err, ErrOverloaded) || n != 0 || total != 0 {
		t.Fatalf("AcquireBatch at capacity = %d, %d, %v; want 0, 0, ErrOverloaded", n, total, err)
	}
	a.Release(9)
	if got := a.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d, want 0", got)
	}
}
