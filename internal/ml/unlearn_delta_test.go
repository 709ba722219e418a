package ml

import (
	"errors"
	"testing"

	"nde/internal/nderr"
)

// Regression tests for the unlearn stale-state sweep: atomic validation
// and dedup without double-decrement.

func TestUnlearnAtomicOnBadRow(t *testing.T) {
	d := blobs(24, 2.0, 1)
	m := NewUnlearnableLogReg()
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := m.Unlearn([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	before := m.nAlive
	// a bad id in the MIDDLE of the list: nothing before it may take effect
	err := m.Unlearn([]int{2, 99, 3})
	if !errors.Is(err, nderr.ErrDegenerateInput) {
		t.Fatalf("Unlearn with out-of-range id err = %v, want ErrDegenerateInput", err)
	}
	if m.nAlive != before {
		t.Fatalf("failed Unlearn mutated state: alive %d -> %d", before, m.nAlive)
	}
	// rows 2 and 3 must still be alive and forgettable
	if err := m.Unlearn([]int{2, 3}); err != nil {
		t.Fatal(err)
	}
	if m.nAlive != before-2 {
		t.Fatalf("alive = %d, want %d", m.nAlive, before-2)
	}
}

func TestUnlearnDedupNoDoubleDecrement(t *testing.T) {
	d := blobs(20, 2.0, 2)
	m := NewUnlearnableLogReg()
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := m.Unlearn([]int{4, 4, 4, 7, 7}); err != nil {
		t.Fatal(err)
	}
	if m.nAlive != 18 {
		t.Fatalf("after dup unlearn alive = %d, want 18", m.nAlive)
	}
	// already-dead rows are a no-op, not a second decrement
	if err := m.Unlearn([]int{4, 7}); err != nil {
		t.Fatal(err)
	}
	if m.nAlive != 18 {
		t.Fatalf("re-unlearning dead rows changed alive to %d, want 18", m.nAlive)
	}
}

func TestUnlearnEmptyGuardBeforeMutation(t *testing.T) {
	d := blobs(6, 2.0, 3)
	m := NewUnlearnableLogReg()
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	all := []int{0, 1, 2, 3, 4, 5, 5, 0}
	err := m.Unlearn(all)
	if !errors.Is(err, nderr.ErrEmptyInput) {
		t.Fatalf("unlearn-everything err = %v, want ErrEmptyInput", err)
	}
	if m.nAlive != 6 {
		t.Fatalf("failed unlearn-everything mutated alive to %d, want 6", m.nAlive)
	}
	// the model must still unlearn
	if err := m.Unlearn([]int{0}); err != nil {
		t.Fatal(err)
	}
	if m.nAlive != 5 {
		t.Fatalf("alive = %d, want 5", m.nAlive)
	}
}

func TestUnlearnLogRegAtomicValidation(t *testing.T) {
	d := blobs(30, 2.5, 4)
	m := NewUnlearnableLogReg()
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	theta := m.Theta()
	err := m.Unlearn([]int{1, -5})
	if !errors.Is(err, nderr.ErrDegenerateInput) {
		t.Fatalf("bad-row err = %v, want ErrDegenerateInput", err)
	}
	if m.nAlive != 30 {
		t.Fatalf("failed unlearn mutated alive to %d, want 30", m.nAlive)
	}
	for i, v := range m.Theta() {
		if v != theta[i] {
			t.Fatalf("failed unlearn moved theta[%d]: %v -> %v", i, theta[i], v)
		}
	}
	all := make([]int, 30)
	for i := range all {
		all[i] = i
	}
	if err := m.Unlearn(all); !errors.Is(err, nderr.ErrEmptyInput) {
		t.Fatalf("unlearn-everything err = %v, want ErrEmptyInput", err)
	}
	if m.nAlive != 30 {
		t.Fatalf("failed unlearn-everything mutated alive to %d", m.nAlive)
	}
}
