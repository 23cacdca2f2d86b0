package node_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/node"
)

// TestOutboxDeliversInOrderAfterTheLock: what is posted under the lock runs
// after it is released, in posting order, and a callback that re-enters —
// locks, posts, unlocks — has its posts delivered after itself, not inside
// itself (were it run under the lock, its Lock would hang the test).
func TestOutboxDeliversInOrderAfterTheLock(t *testing.T) {
	var o node.Outbox
	var got []int
	depth := 0
	post := func(i int, then func()) {
		o.Post(func() {
			if depth++; depth != 1 {
				t.Errorf("callback %d runs inside another callback", i)
			}
			got = append(got, i)
			if then != nil {
				then()
			}
			depth--
		})
	}
	o.Lock()
	post(1, func() {
		o.Lock()
		post(3, nil)
		o.Unlock()
		got = append(got, -1) // still inside callback 1: 3 has not run
	})
	post(2, nil)
	if len(got) != 0 {
		t.Fatal("a callback ran before Unlock")
	}
	o.Unlock()
	if want := []int{1, -1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivery order %v, want %v", got, want)
	}
}

// TestOutboxViaReceivesEveryCallback: with Via set, callbacks are handed
// over in order instead of run.
func TestOutboxViaReceivesEveryCallback(t *testing.T) {
	var held []func()
	o := node.Outbox{Via: func(f func()) { held = append(held, f) }}
	var got []int
	o.Lock()
	o.Post(func() { got = append(got, 1) })
	o.Post(func() { got = append(got, 2) })
	o.Unlock()
	if len(got) != 0 || len(held) != 2 {
		t.Fatalf("%d callbacks ran and %d were handed over, want 0 and 2", len(got), len(held))
	}
	for _, f := range held {
		f()
	}
	if !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("handed over in order %v", got)
	}
}

// TestOutboxOneDelivererManyPosters: goroutines posting concurrently never
// see two callbacks overlap, every goroutine's posts arrive in its own
// posting order, and Drain returns only after everything posted before it
// was delivered — whichever goroutine delivered it.
func TestOutboxOneDelivererManyPosters(t *testing.T) {
	const posters, each = 8, 200
	var o node.Outbox
	var inCallback bool // written by callbacks only: the race detector checks they never overlap
	last := make([]int, posters)
	delivered := 0
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				i := i
				o.Lock()
				o.Post(func() {
					if inCallback {
						t.Error("two callbacks overlap")
					}
					inCallback = true
					if last[p] != i-1 {
						t.Errorf("poster %d: callback %d after %d", p, i, last[p])
					}
					last[p] = i
					delivered++
					inCallback = false
				})
				o.Unlock()
			}
		}(p)
	}
	wg.Wait()
	o.Lock()
	o.Drain()
	if delivered != posters*each {
		t.Fatalf("%d callbacks delivered when Drain returned, want %d", delivered, posters*each)
	}
}

// TestOutboxDrainWaitsForTheDeliverer: while another goroutine is inside a
// callback, Drain leaves its own posts to that goroutine and returns only
// once they too have run.
func TestOutboxDrainWaitsForTheDeliverer(t *testing.T) {
	var o node.Outbox
	entered, release, drained := make(chan struct{}), make(chan struct{}), make(chan struct{})
	first, second := false, false
	go func() {
		o.Lock()
		o.Post(func() {
			close(entered)
			<-release // a test may park a callback; a user callback must not
			first = true
		})
		o.Unlock()
	}()
	<-entered
	go func() {
		o.Lock()
		o.Post(func() { second = true })
		o.Drain()
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("Drain returned while a callback was running")
	default:
	}
	close(release)
	<-drained
	if !first || !second {
		t.Fatalf("Drain returned with callbacks outstanding (first=%v second=%v)", first, second)
	}
}
