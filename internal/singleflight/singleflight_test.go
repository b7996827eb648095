package singleflight

import (
	"errors"
	"runtime"
	"strings"
	"testing"
)

// TestDoSharesLeaderOutcome: a leader runs, a waiter arriving during the
// flight shares both its result and its error without running fn, and the
// key is retired once the flight lands.
func TestDoSharesLeaderOutcome(t *testing.T) {
	var g Group[int]
	boom := errors.New("boom")
	started, release := make(chan struct{}), make(chan struct{})

	type outcome struct {
		out    int
		shared bool
		err    error
	}
	leader := make(chan outcome, 1)
	go func() {
		out, shared, err := g.Do("k", func() (int, error) {
			close(started)
			<-release
			return 42, boom
		})
		leader <- outcome{out, shared, err}
	}()
	<-started

	waiter := make(chan outcome, 1)
	go func() {
		out, shared, err := g.Do("k", func() (int, error) {
			t.Error("waiter ran fn while a flight for its key was live")
			return 0, nil
		})
		waiter <- outcome{out, shared, err}
	}()
	// The leader cannot land until release is closed, so the waiter finds
	// the flight live; wait until it is blocked on it.
	for !waiterParked() {
		runtime.Gosched()
	}
	close(release)

	l, w := <-leader, <-waiter
	if l.out != 42 || l.shared || !errors.Is(l.err, boom) {
		t.Errorf("leader = %+v, want {42 false boom}", l)
	}
	if w.out != 42 || !w.shared || !errors.Is(w.err, boom) {
		t.Errorf("waiter = %+v, want {42 true boom}", w)
	}

	g.mu.Lock()
	retired := len(g.m) == 0
	g.mu.Unlock()
	if !retired {
		t.Fatal("key still registered after the flight landed")
	}
	// A later call runs afresh instead of sharing the stale outcome.
	out, shared, err := g.Do("k", func() (int, error) { return 7, nil })
	if out != 7 || shared || err != nil {
		t.Errorf("call after retirement = (%d, %v, %v), want (7, false, nil)", out, shared, err)
	}
}

// waiterParked reports whether some goroutine is blocked inside Do itself
// waiting on a flight (a leader blocks in its fn, one frame further down).
func waiterParked() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		frames := strings.SplitN(g, "\n", 3)
		if len(frames) > 1 && strings.Contains(frames[0], "[chan receive") &&
			strings.Contains(frames[1], "singleflight.(*Group[...]).Do(") {
			return true
		}
	}
	return false
}
